//! Figure reducers: a finished sweep's `results.jsonl` as one of the
//! paper's tables (§VI).
//!
//! A spec whose top level sets `report = "fig8"` (any of [`FIGURES`]) gets
//! that figure appended to `report.md` when the sweep completes;
//! `examples/sweeps/` holds one spec per figure. A point of a table is the
//! mean over the runs of the scenarios it selects by field (`kernel`,
//! `machine`, `arch`, `clusters`, `cores`, `drift`, `sync`): every seed of
//! one machine. Virtual cycles are an integer mean. A point with a failed
//! or missing run renders `-`.

use std::collections::HashMap;
use std::time::Duration;

use simany::experiment::native_time;
use simany::kernels::{kernel_by_name, Scale};
use simany::stats::{crossover, f2, geomean_error, normalized_time, pct, pct_signed};
use simany::stats::{power_law_fit, SpeedupSeries, Table};

use crate::json::Json;
use crate::scenario::Scenario;

/// The `report` names a spec may give: Figs. 5-13 (`fig10` renders Figs.
/// 10 and 11) and the synchronization-policy ablation.
pub const FIGURES: [&str; 9] = [
    "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig12", "fig13", "ablation",
];

/// Render the figure `name` (one of [`FIGURES`], else `None`) from a
/// sweep's scenarios and its `results.jsonl` records.
pub fn render(name: &str, scenarios: &[Scenario], records: &[Json]) -> Option<String> {
    let by_label: HashMap<&str, &Json> = records
        .iter()
        .filter_map(|r| Some((r.get("label")?.as_str()?, r)))
        .collect();
    let runs = scenarios
        .iter()
        .map(|s| {
            let r = by_label.get(s.label.as_str())?;
            let num = |k| r.get(k).and_then(Json::as_u64);
            (r.get("status")?.as_str()? == "ok").then_some(())?;
            Some([
                num("final_vtime_cycles")?,
                num("wall_ns")?,
                num("sync_stalls")?,
            ])
        })
        .collect();
    let g = Grid { scenarios, runs };
    let body = match name {
        "fig5" => validation(&g, "Fig. 5 — Regular 2D-mesh speedups"),
        "fig6" => validation(&g, "Fig. 6 — Polymorphic 2D-mesh speedups"),
        "fig7" => fig7(&g),
        "fig8" => speedups(&g, "Fig. 8 — Regular 2D-mesh speedups (shared memory)"),
        "fig9" => speedups(&g, "Fig. 9 — Regular 2D-mesh speedups (distributed memory)"),
        "fig10" => fig10(&g),
        "fig12" => fig12(&g),
        "fig13" => fig13(&g),
        "ablation" => ablation(&g),
        _ => return None,
    };
    let (seeds, scales) = (g.distinct(|s| s.seed), g.distinct(|s| s.scale));
    Some(format!(
        "{body}\n(each point: mean over seeds {seeds:?}; scale {scales:?})\n"
    ))
}

/// One run's virtual cycles, wall nanoseconds and stalls.
type Run = [u64; 3];

/// The sweep's scenarios and their runs (`None`: failed or missing).
struct Grid<'a> {
    scenarios: &'a [Scenario],
    runs: Vec<Option<Run>>,
}

/// The mean of a point's runs.
#[derive(Clone, Copy)]
struct Point {
    cycles: u64,
    wall: Duration,
    stalls: u64,
}

impl<'a> Grid<'a> {
    /// The mean over every scenario `keep` selects, if all of them ran.
    fn point(&self, keep: impl Fn(&Scenario) -> bool) -> Option<Point> {
        let runs: Vec<Run> = (self.scenarios.iter().zip(&self.runs))
            .filter_map(|(s, r)| keep(s).then_some(*r))
            .collect::<Option<_>>()?;
        let n = runs.len() as u64;
        let mean = |i: usize| runs.iter().map(|r| r[i]).sum::<u64>().checked_div(n);
        Some(Point {
            cycles: mean(0)?,
            wall: Duration::from_nanos(mean(1)?),
            stalls: mean(2)?,
        })
    }

    /// The distinct values of `field` among the scenarios, in spec order.
    fn distinct<T: PartialEq>(&self, field: impl Fn(&'a Scenario) -> T) -> Vec<T> {
        let mut out = Vec::new();
        for v in self.scenarios.iter().map(field) {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    fn kernels(&self) -> Vec<&'a str> {
        self.distinct(|s| s.kernel.as_str())
    }

    /// The core counts of the scenarios `keep` selects, ascending.
    fn cores(&self, keep: impl Fn(&Scenario) -> bool) -> Vec<u32> {
        let mut out = self.distinct(|s| keep(s).then_some(s.cores));
        out.sort();
        out.into_iter().flatten().collect()
    }

    /// Mean cycles per core count of the scenarios `keep` selects.
    fn series(&self, keep: impl Fn(&Scenario) -> bool) -> SpeedupSeries {
        let points = (self.cores(&keep).into_iter())
            .filter_map(|c| Some((c, self.point(|s| keep(s) && s.cores == c)?.cycles)))
            .collect();
        SpeedupSeries::new("", points)
    }
}

/// A kernel's display name (`Barnes-Hut` for `barnes`).
fn display(kernel: &str) -> String {
    kernel_by_name(kernel).map_or_else(|| kernel.to_string(), |k| k.name().to_string())
}

/// `a`'s virtual cycles over `b`'s.
fn ratio(a: Point, b: Point) -> f64 {
    a.cycles as f64 / b.cycles.max(1) as f64
}

/// A Markdown table headed by `first` and one column per `rest`.
fn table<T: std::fmt::Display>(first: &str, rest: &[T], suffix: &str) -> Table {
    let mut header = vec![first.to_string()];
    header.extend(rest.iter().map(|x| format!("{x}{suffix}")));
    Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>())
}

fn speedup_row(name: String, cores: &[u32], series: &SpeedupSeries) -> Vec<String> {
    let cells = cores
        .iter()
        .map(|&c| series.speedup_at(c).map_or("-".into(), f2));
    std::iter::once(name).chain(cells).collect()
}

/// Figs. 5 and 6: SiMany (VT) and cycle-level (CL, `machine =
/// "cycle-level*"`) speedups per kernel, and the §VI geometric-mean error
/// per core count over the kernels where both ran.
fn validation(g: &Grid, title: &str) -> String {
    let cores = g.cores(|_| true);
    let cl = |s: &Scenario| s.machine.starts_with("cycle-level");
    let mut t = table("kernel", &cores, " cores");
    let mut pairs: Vec<(Vec<f64>, Vec<f64>)> = vec![Default::default(); cores.len()];
    for k in g.kernels() {
        let vt_s = g.series(|s| s.kernel == k && !cl(s));
        let cl_s = g.series(|s| s.kernel == k && cl(s));
        for (i, &c) in cores.iter().enumerate() {
            if let (Some(a), Some(b)) = (vt_s.speedup_at(c), cl_s.speedup_at(c)) {
                pairs[i].0.push(a);
                pairs[i].1.push(b);
            }
        }
        t.row(speedup_row(format!("{} VT", display(k)), &cores, &vt_s));
        t.row(speedup_row(format!("{} CL", display(k)), &cores, &cl_s));
    }
    let mut errors = Table::new(&["cores", "geomean error"]);
    for (c, (vt, cl)) in cores.iter().zip(&pairs).filter(|(&c, _)| c > 1) {
        let e = (!vt.is_empty()).then(|| geomean_error(vt, cl));
        errors.row(vec![c.to_string(), e.map_or("-".into(), pct)]);
    }
    format!(
        "### {title}, SiMany (VT) vs cycle-level (CL)\n\n(virtual-time speedups vs 1 core)\n\n\
         {}\nGeometric-mean VT-vs-CL speedup error:\n\n{}",
        t.to_markdown(),
        errors.to_markdown()
    )
}

/// Fig. 7: mean wall time over the mean native time of the same seeds
/// (measured here, after the sweep), per kernel and memory architecture,
/// and the power law fitted over the multi-core points.
fn fig7(g: &Grid) -> String {
    let cores = g.cores(|_| true);
    let mut t = table("kernel (arch)", &cores, " cores");
    let (mut all, mut regular) = (Vec::new(), Vec::new());
    for k in g.kernels() {
        let native = kernel_by_name(k).map(|kernel| {
            let seeds = g.distinct(|s| (s.kernel == k).then_some((s.seed, s.scale)));
            let times: Vec<_> = (seeds.into_iter().flatten())
                .map(|(seed, scale)| native_time(kernel.as_ref(), Scale(scale), 1, seed))
                .collect();
            times.iter().sum::<Duration>() / times.len() as u32
        });
        for arch in g.distinct(|s| s.arch.as_str()) {
            let mut cells = vec![format!("{} ({})", display(k), arch.to_uppercase())];
            for &c in &cores {
                let p = g.point(|s| s.kernel == k && s.arch == arch && s.cores == c);
                let norm = p
                    .zip(native)
                    .map(|(p, n)| normalized_time(p.wall, n).max(1e-6));
                if let (Some(y), true) = (norm, c > 1) {
                    all.push((f64::from(c), y));
                    if display(k) != "Dijkstra" {
                        regular.push((f64::from(c), y));
                    }
                }
                cells.push(norm.map_or("-".into(), |n| format!("{n:.0}")));
            }
            t.row(cells);
        }
    }
    let fit = |points: &[(f64, f64)]| {
        power_law_fit(points).map_or("n/a".into(), |(a, b)| {
            format!("`t_norm ≈ {a:.2} · cores^{b:.2}`")
        })
    };
    format!(
        "### Fig. 7 — Average normalized simulation time (wall / native)\n\n{}\n\
         Power-law fit over all kernels: {}; excluding Dijkstra (whose speculative \
         algorithm does *less* total work as cores grow): {} (the paper reports a \
         square law with a small coefficient).\n",
        t.to_markdown(),
        fit(&all),
        fit(&regular)
    )
}

/// Figs. 8 and 9: speedup vs 1 core per kernel.
fn speedups(g: &Grid, title: &str) -> String {
    let cores = g.cores(|_| true);
    let mut t = table("kernel", &cores, " cores");
    for k in g.kernels() {
        t.row(speedup_row(
            display(k),
            &cores,
            &g.series(|s| s.kernel == k),
        ));
    }
    format!(
        "### {title}\n\n(virtual-time speedups vs 1 core)\n\n{}",
        t.to_markdown()
    )
}

/// Figs. 10 and 11: for each `T` but the baseline 100, the change of the
/// virtual speedup (the inverse of the cycles ratio) and of the wall time
/// against `T = 100`, averaged over the core counts.
fn fig10(g: &Grid) -> String {
    let t_of = |s: &Scenario| s.drift.unwrap_or(100);
    let (cores, kernels) = (g.cores(|_| true), g.kernels());
    let names: Vec<String> = kernels.iter().map(|k| display(k)).collect();
    let (mut speed, mut wall) = (table("T", &names, ""), table("T", &names, ""));
    let mut ts = g.distinct(t_of);
    ts.sort();
    for t in ts.into_iter().filter(|&t| t != 100) {
        let (mut srow, mut wrow) = (vec![t.to_string()], vec![t.to_string()]);
        for k in &kernels {
            let at = |t, c| g.point(|s| s.kernel == *k && s.cores == c && t_of(s) == t);
            let pairs: Option<Vec<_>> = cores.iter().map(|&c| at(t, c).zip(at(100, c))).collect();
            let mean = |f: fn(&(Point, Point)) -> f64| {
                pairs.as_ref().map_or("-".into(), |ps| {
                    pct_signed(ps.iter().map(f).sum::<f64>() / ps.len() as f64)
                })
            };
            srow.push(mean(|&(p, b)| ratio(b, p) - 1.0));
            wrow.push(mean(|(p, b)| {
                p.wall.as_secs_f64() / b.wall.as_secs_f64().max(1e-9) - 1.0
            }));
        }
        speed.row(srow);
        wall.row(wrow);
    }
    format!(
        "### Fig. 10 — Virtual-speedup variation with T (baseline T = 100)\n\n{}\n\
         ### Fig. 11 — Simulation wall-time variation with T (baseline T = 100)\n\n{}",
        speed.to_markdown(),
        wall.to_markdown()
    )
}

/// Fig. 12: per cluster count, the clustered machines' virtual cycles, and
/// their change against the uniform mesh (`machine = "mesh"`) at the
/// largest machine with the core count from which they win ([`crossover`]).
fn fig12(g: &Grid) -> String {
    let clustered = |s: &Scenario| s.machine == "clustered";
    let mut counts = g.distinct(|s| clustered(s).then_some(s.clusters));
    counts.sort();
    let mut sections = Vec::new();
    for n in counts.into_iter().flatten() {
        let cores = g.cores(|s| clustered(s) && s.clusters == n);
        let mut t = table("kernel", &cores, " cores");
        let mut deltas = table(
            "kernel",
            &["Δ virtual time @ largest (clustered vs uniform)"],
            "",
        );
        for k in g.kernels() {
            let on = |c, machine: &dyn Fn(&Scenario) -> bool| {
                g.point(|s| s.kernel == k && s.cores == c && machine(s))
            };
            let clu = |c| on(c, &|s| clustered(s) && s.clusters == n);
            let uni = |c| on(c, &|s| s.machine == "mesh");
            let cells = cores
                .iter()
                .map(|&c| clu(c).map_or("-".into(), |p| p.cycles.to_string()));
            t.row(std::iter::once(display(k)).chain(cells).collect());
            let (uni_pts, clu_pts): (Vec<_>, Vec<_>) = (cores.iter())
                .filter_map(|&c| Some(((c, uni(c)?.cycles), (c, clu(c)?.cycles))))
                .unzip();
            let turning = crossover(&uni_pts, &clu_pts)
                .map_or_else(|| "never".into(), |x| format!("{x:.0} cores"));
            let largest = cores.last().and_then(|&c| clu(c).zip(uni(c)));
            deltas.row(vec![
                format!("{} (turns at {turning})", display(k)),
                largest.map_or("-".into(), |(c, u)| pct_signed(ratio(c, u) - 1.0)),
            ]);
        }
        sections.push(format!(
            "### Fig. 12 — Clustered 2D mesh, {n} clusters (distributed memory)\n\n\
             (virtual completion cycles; lower is better)\n\n{}\n\
             Change at the largest machine vs the uniform mesh:\n\n{}",
            t.to_markdown(),
            deltas.to_markdown()
        ));
    }
    sections.join("\n")
}

/// Fig. 13: polymorphic speedups against the uniform machine's 1-core
/// baseline (a 1-core polymorphic machine is one half-speed core), and the
/// virtual-time change against the uniform mesh averaged over the two
/// largest machines (the −18.8 % claim of §VI).
fn fig13(g: &Grid) -> String {
    let poly = |s: &Scenario| s.machine == "polymorphic";
    let cores = g.cores(poly);
    let mut t = table("kernel", &cores, " cores");
    let mut deltas = table(
        "kernel",
        &["Δ virtual time vs uniform (avg of two largest)"],
        "",
    );
    for k in g.kernels() {
        let at = |c, side| g.point(|s| s.kernel == k && s.cores == c && poly(s) == side);
        let base = at(1, false);
        let cells = (cores.iter())
            .map(|&c| (at(c, true).zip(base)).map_or("-".into(), |(p, b)| f2(ratio(b, p))));
        t.row(std::iter::once(display(k)).chain(cells).collect());
        let largest = &cores[cores.len().saturating_sub(2)..];
        let changes: Option<Vec<f64>> = (largest.iter())
            .map(|&c| Some(ratio(at(c, true)?, at(c, false)?) - 1.0))
            .collect();
        let delta = changes
            .filter(|d| d.len() == 2)
            .map(|d| (d[0] + d[1]) / 2.0);
        deltas.row(vec![display(k), delta.map_or("-".into(), pct_signed)]);
    }
    format!(
        "### Fig. 13 — Polymorphic 2D-mesh speedups (distributed memory)\n\n\
         (speedups vs the uniform machine's 1-core baseline)\n\n{}\n\
         Virtual-time change vs the uniform mesh (paper §VI: −18.8 % on\n\
         average for the non-regular benchmarks at 256/1024 cores):\n\n{}",
        t.to_markdown(),
        deltas.to_markdown()
    )
}

/// The synchronization-policy ablation: one row per policy, against the
/// conservative (exact-order) run as the accuracy reference.
fn ablation(g: &Grid) -> String {
    let reference = g.point(|s| s.sync == "conservative");
    let header = ["virtual cycles", "vs exact order", "stalls", "wall"];
    let mut t = table("policy", &header, "");
    for (sync, window) in g.distinct(|s| (s.sync.clone(), s.drift.unwrap_or(100))) {
        let p = g.point(|s| s.sync == sync && s.drift.unwrap_or(100) == window);
        let vs = p.zip(reference).map(|(p, r)| ratio(p, r) - 1.0);
        let cell = |f: fn(Point) -> String| p.map_or("-".into(), f);
        t.row(vec![
            match sync.as_str() {
                "spatial" => format!("spatial, T = {window}"),
                "bounded-slack" => format!("bounded-slack, window {window}"),
                _ => sync.clone(),
            },
            cell(|p| p.cycles.to_string()),
            vs.map_or("-".into(), pct_signed),
            cell(|p| p.stalls.to_string()),
            cell(|p| format!("{:.1} ms", p.wall.as_secs_f64() * 1e3)),
        ]);
    }
    let kernels: Vec<String> = g.kernels().into_iter().map(display).collect();
    let cores: Vec<String> = g.cores(|_| true).iter().map(u32::to_string).collect();
    format!(
        "### Ablation — synchronization policies ({}, {} cores)\n\n{}",
        kernels.join(", "),
        cores.join(", "),
        t.to_markdown()
    )
}
