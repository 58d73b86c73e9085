#![warn(missing_docs)]

//! # simany-stats — measurement aggregation and reporting
//!
//! Everything the paper's evaluation section computes from raw runs:
//!
//! * **Virtual-time speedups** (`vtime(1 core) / vtime(n cores)`), the
//!   y-axis of Fig. 5/6/8/9/12/13 ([`SpeedupSeries`]).
//! * **Geometric-mean relative errors** between two simulators' speedups
//!   (the 8.8 % / 18.8 % / 22.9 % numbers of §VI) ([`geomean_error`]).
//! * **Normalized simulation time** — simulator wall time divided by
//!   native execution time, Fig. 7 ([`normalized_time`]).
//! * A **power-law fit** (`y = a·x^b`) for the paper's observation that
//!   "the average simulation time increases as a square law with a small
//!   coefficient" ([`power_law_fit`]).
//! * Plain-text/Markdown table rendering for experiment reports
//!   ([`Table`]).
//! * The workspace's one JSON reader/writer ([`json`]).

pub mod json;

use json::Json;
use std::fmt::Write as _;

/// One benchmark's speedups across a sweep of core counts.
#[derive(Clone, Debug)]
pub struct SpeedupSeries {
    /// Benchmark name.
    pub name: String,
    /// `(cores, virtual completion cycles)` pairs; must contain the
    /// baseline entry (1 core).
    pub points: Vec<(u32, u64)>,
}

impl SpeedupSeries {
    /// Build from raw `(cores, cycles)` measurements.
    pub fn new(name: impl Into<String>, points: Vec<(u32, u64)>) -> Self {
        SpeedupSeries {
            name: name.into(),
            points,
        }
    }

    /// Virtual cycles of the 1-core baseline.
    pub fn baseline(&self) -> Option<u64> {
        self.points.iter().find(|&&(c, _)| c == 1).map(|&(_, v)| v)
    }

    /// `(cores, speedup)` pairs relative to the 1-core baseline.
    pub fn speedups(&self) -> Vec<(u32, f64)> {
        let Some(base) = self.baseline() else {
            return Vec::new();
        };
        self.points
            .iter()
            .map(|&(c, v)| (c, base as f64 / v.max(1) as f64))
            .collect()
    }

    /// Speedup at a given core count, if measured.
    pub fn speedup_at(&self, cores: u32) -> Option<f64> {
        let base = self.baseline()? as f64;
        self.points
            .iter()
            .find(|&&(c, _)| c == cores)
            .map(|&(_, v)| base / v.max(1) as f64)
    }
}

/// Geometric mean of per-point relative errors between two speedup sets,
/// the paper's validation metric (§VI): each error is
/// `|vt - cl| / cl`; errors are floored at 0.01 % so that exact matches
/// (possible on tiny integer workloads) do not drag the geometric mean to
/// zero — the conventional treatment in architecture papers.
pub fn geomean_error(vt: &[f64], cl: &[f64]) -> f64 {
    assert_eq!(vt.len(), cl.len(), "mismatched series");
    assert!(!vt.is_empty(), "empty series");
    let mut log_sum = 0.0;
    for (&a, &b) in vt.iter().zip(cl) {
        let err = ((a - b).abs() / b.abs().max(1e-12)).max(1e-4);
        log_sum += err.ln();
    }
    (log_sum / vt.len() as f64).exp()
}

/// Normalized simulation time: simulator wall-clock divided by native
/// wall-clock for the same workload (Fig. 7's y-axis).
pub fn normalized_time(sim: std::time::Duration, native: std::time::Duration) -> f64 {
    sim.as_secs_f64() / native.as_secs_f64().max(1e-9)
}

/// Least-squares fit of `y = a·x^b` in log-log space. Returns `(a, b)`,
/// or `None` unless the points hold at least two distinct `x` (with one
/// `x` the slope is undefined).
/// The paper's claim "simulation time increases as a square law" means
/// `b ≈ 2` when fitting normalized time against core count.
pub fn power_law_fit(points: &[(f64, f64)]) -> Option<(f64, f64)> {
    let x0 = points.first()?.0;
    if points.iter().all(|&(x, _)| x == x0) {
        return None;
    }
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        assert!(x > 0.0 && y > 0.0, "power-law fit needs positive data");
        let lx = x.ln();
        let ly = y.ln();
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    let b = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let a = ((sy - b * sx) / n).exp();
    Some((a, b))
}

/// Find the crossover core count between two series of `(cores, cycles)`
/// measurements: the smallest measured core count from which `b` completes
/// faster (fewer cycles) than `a`, interpolated geometrically between the
/// bracketing measured points when the flip happens between them. Returns
/// `None` when `b` never wins. This quantifies the paper's clustered-mesh
/// observation: "The average turning point for all benchmarks is around 78
/// cores" (§VI).
pub fn crossover(a: &[(u32, u64)], b: &[(u32, u64)]) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "mismatched sweeps");
    let mut prev: Option<(u32, f64)> = None;
    for (&(ca, va), &(cb, vb)) in a.iter().zip(b) {
        assert_eq!(ca, cb, "sweeps must share core counts");
        let ratio = vb as f64 / va.max(1) as f64; // < 1 means b wins
        if ratio < 1.0 {
            return Some(match prev {
                // Geometric interpolation of the crossover point in
                // log(cores)-log(ratio) space.
                Some((c0, r0)) if r0 > 1.0 => {
                    let lr0 = r0.ln();
                    let lr1 = ratio.ln();
                    let f = lr0 / (lr0 - lr1);
                    ((c0 as f64).ln() * (1.0 - f) + (ca as f64).ln() * f).exp()
                }
                _ => ca as f64,
            });
        }
        prev = Some((ca, ratio));
    }
    None
}

/// Geometric mean of a positive sample.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A rendered table: header plus rows, emitted as Markdown or aligned
/// plain text.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Column headers.
    pub header: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create with headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Render as a Markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.header.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.header
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for r in &self.rows {
            let _ = writeln!(out, "| {} |", r.join(" | "));
        }
        out
    }

    /// Render as aligned plain text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for r in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(r, &widths));
        }
        out
    }
}

/// Format a float with 2 decimals (helper for table cells).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Format a signed percentage variation (the ± style of the paper's
/// Fig. 10/11 tables).
pub fn pct_signed(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// Summary of a latency sample set (cycles), used for the protocol
/// resilience metrics: convergence / commit / lookup latencies under
/// fault plans.
#[derive(Clone, Debug, Default)]
pub struct LatencyDist {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean (cycles).
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum sample.
    pub max: u64,
}

impl LatencyDist {
    /// Summarize a sample set. An empty set yields the all-zero dist.
    pub fn from_samples(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return LatencyDist::default();
        }
        let mut s = samples.to_vec();
        s.sort_unstable();
        let n = s.len();
        // Nearest-rank percentile: ceil(p/100 * n), 1-indexed.
        let rank = |p: usize| -> u64 { s[((p * n).div_ceil(100)).clamp(1, n) - 1] };
        LatencyDist {
            count: n as u64,
            mean: s.iter().map(|&x| x as f64).sum::<f64>() / n as f64,
            p50: rank(50),
            p90: rank(90),
            p99: rank(99),
            max: s[n - 1],
        }
    }

    /// Render as a compact `p50/p90/p99/max` string.
    pub fn summary(&self) -> String {
        if self.count == 0 {
            return "no samples".to_string();
        }
        format!(
            "p50={} p90={} p99={} max={} (n={})",
            self.p50, self.p90, self.p99, self.max, self.count
        )
    }

    /// Render as a JSON object (`mean` rounded to one decimal).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::U64(self.count)),
            ("mean".into(), Json::Num(round_to(self.mean, 1))),
            ("p50".into(), Json::U64(self.p50)),
            ("p90".into(), Json::U64(self.p90)),
            ("p99".into(), Json::U64(self.p99)),
            ("max".into(), Json::U64(self.max)),
        ])
    }
}

/// `x` rounded to `decimals` places, for JSON fields that used to be
/// written with a fixed-precision format.
fn round_to(x: f64, decimals: i32) -> f64 {
    let k = 10f64.powi(decimals);
    (x * k).round() / k
}

/// Per-protocol resilience report: the metrics the resilience testbed
/// tracks for every protocol workload under a fault plan (ISSUE 9).
#[derive(Clone, Debug)]
pub struct ResilienceReport {
    /// Protocol name ("Gossip", "DHT Lookup", "Quorum").
    pub protocol: String,
    /// Payloads the protocol set out to deliver (rumors x live nodes,
    /// lookups issued, commands proposed).
    pub expected: u64,
    /// Payloads actually delivered / committed / resolved.
    pub delivered: u64,
    /// Application messages spent in total.
    pub payload_msgs: u64,
    /// Timeout-driven re-issues (lookup retries, election restarts...).
    pub reissues: u64,
    /// Operations that fell back to a degraded mode (flooding, ...).
    pub degraded: u64,
    /// Distinct leaders observed (quorum protocol; 0 otherwise).
    pub leader_changes: u64,
    /// End-to-end latency distribution of delivered payloads.
    pub latency: LatencyDist,
}

impl ResilienceReport {
    /// Delivery coverage in [0, 1]; `None` when nothing was expected.
    pub fn coverage(&self) -> Option<f64> {
        (self.expected > 0).then(|| self.delivered as f64 / self.expected as f64)
    }

    /// Messages spent per delivered payload (cost of resilience); `None`
    /// when nothing was delivered.
    pub fn msgs_per_delivery(&self) -> Option<f64> {
        (self.delivered > 0).then(|| self.payload_msgs as f64 / self.delivered as f64)
    }

    /// Render as a JSON object (`coverage` rounded to four decimals,
    /// `msgs_per_delivery` to two; `null` where undefined).
    pub fn to_json(&self) -> Json {
        let ratio =
            |x: Option<f64>, decimals| x.map_or(Json::Null, |v| Json::Num(round_to(v, decimals)));
        Json::Obj(vec![
            ("protocol".into(), Json::Str(self.protocol.clone())),
            ("expected".into(), Json::U64(self.expected)),
            ("delivered".into(), Json::U64(self.delivered)),
            ("coverage".into(), ratio(self.coverage(), 4)),
            ("payload_msgs".into(), Json::U64(self.payload_msgs)),
            (
                "msgs_per_delivery".into(),
                ratio(self.msgs_per_delivery(), 2),
            ),
            ("reissues".into(), Json::U64(self.reissues)),
            ("degraded".into(), Json::U64(self.degraded)),
            ("leader_changes".into(), Json::U64(self.leader_changes)),
            ("latency".into(), self.latency.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedups_relative_to_baseline() {
        let s = SpeedupSeries::new("k", vec![(1, 1000), (2, 500), (4, 300)]);
        let sp = s.speedups();
        assert_eq!(sp[0], (1, 1.0));
        assert_eq!(sp[1], (2, 2.0));
        assert!((sp[2].1 - 3.3333).abs() < 1e-3);
        assert_eq!(s.speedup_at(2), Some(2.0));
        assert_eq!(s.speedup_at(8), None);
    }

    #[test]
    fn missing_baseline_gives_empty() {
        let s = SpeedupSeries::new("k", vec![(2, 500)]);
        assert!(s.speedups().is_empty());
    }

    #[test]
    fn geomean_error_basics() {
        // 10% error everywhere -> geomean 10%.
        let cl = [1.0, 2.0, 4.0];
        let vt = [1.1, 2.2, 4.4];
        let e = geomean_error(&vt, &cl);
        assert!((e - 0.1).abs() < 1e-9, "{e}");
        // Identical series -> floored near zero.
        assert!(geomean_error(&cl, &cl) <= 1e-4 + 1e-12);
        // Mixed errors: geomean between min and max.
        let vt2 = [1.05, 2.4, 4.0];
        let e2 = geomean_error(&vt2, &cl);
        assert!(e2 > 0.001 && e2 < 0.2);
    }

    #[test]
    fn power_law_recovers_square() {
        let pts: Vec<(f64, f64)> = (1..=6)
            .map(|i| {
                let x = (1u64 << i) as f64;
                (x, 3.0 * x * x)
            })
            .collect();
        let (a, b) = power_law_fit(&pts).unwrap();
        assert!((b - 2.0).abs() < 1e-9, "exponent {b}");
        assert!((a - 3.0).abs() < 1e-6, "coefficient {a}");
    }

    #[test]
    fn power_law_needs_two_distinct_x() {
        // One machine size: the slope's divisor is zero.
        assert_eq!(power_law_fit(&[(8.0, 10.0), (8.0, 30.0)]), None);
        assert_eq!(power_law_fit(&[(8.0, 10.0)]), None);
        assert_eq!(power_law_fit(&[]), None);
        let (_, b) = power_law_fit(&[(8.0, 10.0), (8.0, 30.0), (64.0, 80.0)]).unwrap();
        assert!(b.is_finite() && b > 0.0, "exponent {b}");
    }

    #[test]
    fn geomean_of_sample() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn crossover_detection() {
        // b loses at 8 cores (ratio 2) and wins at 64 (ratio 0.5):
        // crossover interpolates between them.
        let a = [(8u32, 100u64), (64, 100)];
        let b = [(8u32, 200u64), (64, 50)];
        let x = crossover(&a, &b).unwrap();
        assert!(x > 8.0 && x < 64.0, "crossover {x}");
        // b never wins.
        assert_eq!(crossover(&a, &[(8, 200), (64, 150)]), None);
        // b wins from the start.
        assert_eq!(crossover(&a, &[(8, 50), (64, 50)]), Some(8.0));
    }

    #[test]
    fn table_renderers() {
        let mut t = Table::new(&["kernel", "speedup"]);
        t.row(vec!["qs".into(), "2.00".into()]);
        t.row(vec!["cc, hard".into(), "1.50".into()]);
        let md = t.to_markdown();
        assert!(md.contains("| kernel | speedup |"));
        assert!(md.contains("| qs | 2.00 |"));
        let txt = t.to_text();
        assert!(txt.contains("kernel"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn normalized_time_ratio() {
        let r = normalized_time(
            std::time::Duration::from_millis(500),
            std::time::Duration::from_millis(5),
        );
        assert!((r - 100.0).abs() < 1e-9);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(pct(0.188), "18.8%");
        assert_eq!(pct_signed(-0.644), "-64.4%");
        assert_eq!(pct_signed(0.32), "+32.0%");
    }

    #[test]
    fn latency_dist_percentiles() {
        let samples: Vec<u64> = (1..=100).collect();
        let d = LatencyDist::from_samples(&samples);
        assert_eq!(d.count, 100);
        assert_eq!(d.p50, 50);
        assert_eq!(d.p90, 90);
        assert_eq!(d.p99, 99);
        assert_eq!(d.max, 100);
        assert!((d.mean - 50.5).abs() < 1e-9);

        let single = LatencyDist::from_samples(&[7]);
        assert_eq!(
            (single.p50, single.p90, single.p99, single.max),
            (7, 7, 7, 7)
        );

        let empty = LatencyDist::from_samples(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.summary(), "no samples");
    }

    #[test]
    fn resilience_report_coverage_and_json() {
        let r = ResilienceReport {
            protocol: "Gossip".into(),
            expected: 64,
            delivered: 60,
            payload_msgs: 300,
            reissues: 12,
            degraded: 1,
            leader_changes: 0,
            latency: LatencyDist::from_samples(&[100, 200, 300]),
        };
        assert!((r.coverage().unwrap() - 60.0 / 64.0).abs() < 1e-9);
        assert!((r.msgs_per_delivery().unwrap() - 5.0).abs() < 1e-9);
        let json = r.to_json().dump();
        assert!(json.contains("\"protocol\":\"Gossip\""));
        assert!(json.contains("\"coverage\":0.9375"));
        assert!(json.contains("\"p99\":300"));

        // Nothing expected, nothing delivered: both ratios are undefined,
        // not 1.0 and the raw message count.
        let z = ResilienceReport {
            protocol: "x".into(),
            expected: 0,
            delivered: 0,
            payload_msgs: 5,
            reissues: 0,
            degraded: 0,
            leader_changes: 0,
            latency: LatencyDist::default(),
        };
        assert_eq!(z.coverage(), None);
        assert_eq!(z.msgs_per_delivery(), None);
        let json = z.to_json().dump();
        assert!(json.contains("\"coverage\":null"));
        assert!(json.contains("\"msgs_per_delivery\":null"));
    }
}
