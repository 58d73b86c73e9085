//! Parent side: the only load generator. It runs reps one after another,
//! each in a fresh pinned child, and turns them into one ledger row per
//! workload.

use crate::catalog::{Catalog, Workload, LEDGER_SCHEMA, VT_CL_ERR};
use crate::rep::{self, Rep, Request, SpawnError};
use crate::workloads::{threads_of, Metric};
use crate::{pin, spans};
use simany_serve::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Traced `wall_s` over untraced: a layer-ledger entry without a layer.
const TRACE_OVERHEAD: &str = "trace_overhead_pct";

/// A name with a dot is a layer metric (the prefix is the crate); one
/// without is derived from end-to-end numbers.
fn is_layer(name: &str) -> bool {
    name.contains('.') || name == TRACE_OVERHEAD
}

/// How many reps to run.
#[derive(Clone, Copy, Debug)]
pub enum Reps {
    Count(usize),
    /// Start another rep while fewer than this many seconds have passed.
    Seconds(f64),
}

/// What to run for each workload.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seed: u64,
    pub quick: bool,
    /// Timed reps with tracing off: the end-to-end numbers.
    pub untraced: Reps,
    /// Timed reps with tracing on: the layer ledger.
    pub traced: Option<Reps>,
    /// Set-up is sampled (by set-up-only reps) until there are this many
    /// `setup_s` values.
    pub setup_samples: usize,
    /// Reps of each auxiliary point a traced run adds.
    pub aux_reps: usize,
}

/// Median, quartiles, extremes and count of a sample. With at most ten
/// reps no tail percentile has ten samples beyond it, so none is given.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Dist {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Dist {
    /// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
    /// them; a single value is its own quartiles.
    pub fn of(values: &[f64]) -> Option<Dist> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let quantile = |i: usize| {
            if n == 1 {
                return v[0];
            }
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Some(Dist {
            min: *v.first()?,
            max: *v.last()?,
            q1: quantile(1),
            median: quantile(2),
            q3: quantile(3),
            n,
        })
    }

    fn to_json(self, unit: &str) -> Json {
        Json::Obj(vec![
            ("unit".into(), Json::Str(unit.into())),
            ("median".into(), Json::Num(self.median)),
            ("q1".into(), Json::Num(self.q1)),
            ("q3".into(), Json::Num(self.q3)),
            ("min".into(), Json::Num(self.min)),
            ("max".into(), Json::Num(self.max)),
            ("n".into(), Json::Num(self.n as f64)),
        ])
    }
}

/// The reps of one workload and what they add up to.
pub struct Measured {
    pub workload: Workload,
    /// Why there is no number, if there is none (never a guess instead).
    pub unmeasured: Option<String>,
    pub reps: Vec<Rep>,
    pub setup_s: Vec<f64>,
    pub traced: Vec<Rep>,
    /// Metrics that need more than one process: `trace_overhead_pct`,
    /// `core.t2_speedup`, `core.handoff_placement_ratio`.
    pub cross: Vec<Metric>,
    pub errors: Vec<String>,
}

fn request(w: &str, plan: &Plan) -> Request {
    Request {
        workload: w.to_string(),
        seed: plan.seed,
        quick: plan.quick,
        trace: false,
        setup_only: false,
        unpinned: false,
    }
}

/// Run reps of `req` as `reps` says, collecting them (and their errors).
fn run_reps(req: &Request, reps: Reps, errors: &mut Vec<String>) -> Result<Vec<Rep>, SpawnError> {
    let started = Instant::now();
    let mut done = Vec::new();
    loop {
        match reps {
            Reps::Count(n) if done.len() >= n => break,
            Reps::Seconds(s) if !done.is_empty() && started.elapsed().as_secs_f64() >= s => break,
            _ => {}
        }
        match rep::spawn(req) {
            Ok(rep) => done.push(rep),
            Err(SpawnError::TooFewCpus) => return Err(SpawnError::TooFewCpus),
            Err(SpawnError::Other(e)) => {
                errors.push(e);
                // A rep that dies would die again; do not loop on it.
                break;
            }
        }
    }
    Ok(done)
}

fn median_of(reps: &[Rep], value: impl Fn(&Rep) -> Option<f64>) -> Option<f64> {
    let values: Vec<f64> = reps.iter().filter_map(value).collect();
    Dist::of(&values).map(|d| d.median)
}

/// Measure one workload as `plan` says.
pub fn measure(workload: &Workload, plan: &Plan) -> Measured {
    let mut m = Measured {
        workload: workload.clone(),
        unmeasured: None,
        reps: Vec::new(),
        setup_s: Vec::new(),
        traced: Vec::new(),
        cross: Vec::new(),
        errors: Vec::new(),
    };
    if let Err(SpawnError::TooFewCpus) = measure_into(&mut m, plan) {
        m.unmeasured = Some(format!(
            "{} CPUs allowed, the workload has {} simulator threads",
            pin::allowed_cpus().len(),
            threads_of(&workload.name)
        ));
    }
    m
}

fn measure_into(m: &mut Measured, plan: &Plan) -> Result<(), SpawnError> {
    let name = m.workload.name.clone();
    let req = request(&name, plan);
    let setup_req = Request {
        setup_only: true,
        ..req.clone()
    };
    // One untimed set-up first. This host hands pages it has not backed
    // yet to a process that starts after a pause, and their first touch
    // costs 3-4x more (README, "Warm host memory"); a rep that starts
    // right after a process of the same size ended does not pay that.
    run_reps(&setup_req, Reps::Count(1), &mut Vec::new())?;
    m.reps = run_reps(&req, plan.untraced, &mut m.errors)?;
    m.setup_s = m.reps.iter().map(|r| r.setup_s).collect();
    while m.setup_s.len() < plan.setup_samples && m.errors.is_empty() {
        let extra = run_reps(&setup_req, Reps::Count(1), &mut m.errors)?;
        m.setup_s.extend(extra.iter().map(|r| r.setup_s));
    }

    let Some(traced) = plan.traced else {
        return Ok(());
    };
    let traced_req = Request {
        trace: true,
        ..req.clone()
    };
    m.traced = run_reps(&traced_req, traced, &mut m.errors)?;
    if let (Some(on), Some(off)) = (
        median_of(&m.traced, |r| Some(r.wall_s)),
        median_of(&m.reps, |r| Some(r.wall_s)),
    ) {
        let overhead = 100.0 * (on / off - 1.0);
        m.cross.push(Metric::new(TRACE_OVERHEAD, "%", overhead));
    }

    let aux = |workload: &str, unpinned: bool, errors: &mut Vec<String>| {
        let req = Request {
            unpinned,
            ..request(workload, plan)
        };
        run_reps(&req, Reps::Count(plan.aux_reps), errors)
    };
    if name == "refill_4096_t2" {
        // The same shape on the sequential engine; the simulated outcome
        // must not depend on the thread count.
        let t1 = aux("refill_4096_t1", false, &mut m.errors)?;
        let vtime = |reps: &[Rep]| median_of(reps, |r| r.metric("final_vtime_cycles"));
        if vtime(&t1) != vtime(&m.reps) {
            m.errors
                .push("threads=1 and threads=2 end at different virtual times".into());
        }
        if let (Some(one), Some(two)) = (
            median_of(&t1, |r| Some(r.wall_s)),
            median_of(&m.reps, |r| Some(r.wall_s)),
        ) {
            m.cross
                .push(Metric::new("core.t2_speedup", "ratio", one / two));
        }
    }
    if name == "scale_1m" {
        // Why runs are pinned: the same binary on the same inputs, left to
        // the host scheduler against held on one CPU.
        let pinned = aux("scale_65k", false, &mut m.errors)?;
        let unpinned = aux("scale_65k", true, &mut m.errors)?;
        let wall = |reps: &[Rep]| Dist::of(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        if let (Some(p), Some(u)) = (wall(&pinned), wall(&unpinned)) {
            for (name, value) in [
                ("core.handoff_placement_ratio", u.median / p.median),
                ("core.handoff_unpinned_max_over_min", u.max / u.min),
                ("core.handoff_pinned_max_over_min", p.max / p.min),
            ] {
                m.cross.push(Metric::new(name, "ratio", value));
            }
        }
    }
    Ok(())
}

impl Measured {
    /// Operations attempted and failed over the untraced reps. A rep whose
    /// simulated outcome differs from the first rep's, a rep that died and
    /// a cross-process check that failed each count as a failed operation.
    pub fn ops(&self) -> (u64, u64) {
        let attempted: u64 = self.reps.iter().map(|r| r.ops_attempted).sum();
        let failed: u64 = self.reps.iter().map(|r| r.ops_failed).sum();
        let strays = self
            .reps
            .iter()
            .chain(&self.traced)
            .filter(|r| r.sim_digest != self.sim_digest())
            .count();
        (
            attempted.max(1),
            failed + strays as u64 + self.errors.len() as u64,
        )
    }

    /// The harness's own errors, then every rep's.
    fn all_errors(&self) -> impl Iterator<Item = &String> {
        let reps = self.reps.iter().chain(&self.traced);
        self.errors.iter().chain(reps.flat_map(|r| &r.errors))
    }

    /// The simulated outcome's digest (of the first rep; `ops` counts the
    /// reps that disagree with it).
    pub fn sim_digest(&self) -> &str {
        self.reps.first().map_or("", |r| r.sim_digest.as_str())
    }

    /// Distribution of an end-to-end metric over the untraced reps.
    pub fn end_to_end(&self, name: &str) -> Option<Dist> {
        let values: Vec<f64> = match name {
            "wall_s" => self.reps.iter().map(|r| r.wall_s).collect(),
            "setup_s" => self.setup_s.clone(),
            "peak_rss_mb" => self.reps.iter().map(|r| r.peak_rss_mb).collect(),
            other => self.reps.iter().filter_map(|r| r.metric(other)).collect(),
        };
        Dist::of(&values)
    }

    /// Every other metric the reps report, by name, as `(unit, dist)`.
    /// Layer metrics (a dot in the name) come from the traced reps where
    /// there are any — they carry the profile and the probes; metrics
    /// derived from end-to-end numbers come from the untraced reps.
    pub fn reported(&self) -> BTreeMap<String, (String, Dist)> {
        let is_layer = |m: &&Metric| is_layer(&m.name);
        let layer_reps = if self.traced.is_empty() {
            &self.reps
        } else {
            &self.traced
        };
        let derived = self.reps.iter().flat_map(|r| &r.metrics);
        let layers = layer_reps.iter().flat_map(|r| &r.metrics);
        let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
        for m in derived
            .filter(|m| !is_layer(m) && m.name != VT_CL_ERR)
            .chain(layers.filter(is_layer))
        {
            let entry = values.entry(m.name.clone()).or_default();
            entry.0 = m.unit.clone();
            entry.1.push(m.value);
        }
        for m in &self.cross {
            values.insert(m.name.clone(), (m.unit.clone(), vec![m.value]));
        }
        values
            .into_iter()
            .filter_map(|(name, (unit, v))| Some((name, (unit, Dist::of(&v)?))))
            .collect()
    }

    /// The ledger row.
    pub fn row(&self, catalog: &Catalog, host: &Host, plan: &Plan) -> Json {
        let (attempted, failed) = self.ops();
        let mut end_to_end = Vec::new();
        for metric in &catalog.end_to_end {
            if let Some(d) = self.end_to_end(&metric.name) {
                end_to_end.push((metric.name.clone(), d.to_json(&metric.unit)));
            }
        }
        let (mut derived, mut layers) = (Vec::new(), Vec::new());
        for (name, (unit, d)) in self.reported() {
            let group = if is_layer(&name) {
                &mut layers
            } else {
                &mut derived
            };
            group.push((name, d.to_json(&unit)));
        }
        Json::Obj(vec![
            ("ledger".into(), Json::Num(LEDGER_SCHEMA as f64)),
            ("workload".into(), Json::Str(self.workload.name.clone())),
            ("why".into(), Json::Str(self.workload.why.clone())),
            (
                "status".into(),
                Json::Str(match &self.unmeasured {
                    Some(why) => format!("unmeasured: {why}"),
                    None => "measured".into(),
                }),
            ),
            ("commit".into(), Json::Str(host.commit.clone())),
            ("rustc".into(), Json::Str(host.rustc.clone())),
            ("seed".into(), Json::Num(plan.seed as f64)),
            (
                "size".into(),
                Json::Str(if plan.quick { "quick" } else { "full" }.into()),
            ),
            ("host_cpus".into(), Json::Num(host.cpus as f64)),
            ("allowed_cpus".into(), rep::cpu_list(&host.allowed)),
            (
                "pinned_cpus".into(),
                rep::cpu_list(self.reps.first().map_or(&[], |r| &r.pinned_cpus)),
            ),
            (
                "threads".into(),
                Json::Num(f64::from(threads_of(&self.workload.name))),
            ),
            ("reps".into(), Json::Num(self.reps.len() as f64)),
            ("traced_reps".into(), Json::Num(self.traced.len() as f64)),
            ("ops_attempted".into(), Json::Num(attempted as f64)),
            ("ops_failed".into(), Json::Num(failed as f64)),
            ("sim_digest".into(), Json::Str(self.sim_digest().into())),
            ("end_to_end".into(), Json::Obj(end_to_end)),
            ("derived".into(), Json::Obj(derived)),
            ("layers".into(), Json::Obj(layers)),
            (
                "errors".into(),
                Json::Arr(self.all_errors().cloned().map(Json::Str).collect()),
            ),
        ])
    }

    /// Every metric by name with its unit, for people.
    pub fn print(&self, catalog: &Catalog) {
        let w = &self.workload;
        println!("\n== {}: {}", w.name, w.why);
        if let Some(why) = &self.unmeasured {
            println!("   unmeasured: {why}");
            return;
        }
        let (attempted, failed) = self.ops();
        println!(
            "   threads {}  pinned to CPUs {:?}  reps {} (+{} traced)  ops {attempted} attempted, \
             {failed} failed  sim_digest {}",
            threads_of(&w.name),
            self.reps.first().map_or(&[][..], |r| &r.pinned_cpus),
            self.reps.len(),
            self.traced.len(),
            self.sim_digest(),
        );
        let line = |name: &str, unit: &str, d: Dist| {
            print!("   {name:<36} {:>16.6} {unit:<6} n {}", d.median, d.n);
            if d.min < d.max {
                print!(
                    "  q1 {:.6}  q3 {:.6}  min {:.6}  max {:.6}",
                    d.q1, d.q3, d.min, d.max
                );
            }
            println!();
        };
        for metric in &catalog.end_to_end {
            match self.end_to_end(&metric.name) {
                Some(d) => line(&metric.name, &metric.unit, d),
                None => println!("   {:<36} {:>14} {}", metric.name, "absent", metric.unit),
            }
        }
        for (name, (unit, d)) in self.reported() {
            line(&name, &unit, d);
        }
        for e in self.all_errors() {
            println!("   error: {e}");
        }
    }

    /// Write the traced reps' spans as Chrome trace-event JSON.
    pub fn write_trace(&self) -> Option<std::path::PathBuf> {
        if self.traced.is_empty() {
            return None;
        }
        let path = rep::results_dir().join(format!("trace-{}.json", self.workload.name));
        let reps: Vec<_> = self.traced.iter().map(|r| r.spans.clone()).collect();
        std::fs::write(&path, spans::chrome_trace(&self.workload.name, &reps)).ok()?;
        Some(path)
    }
}

/// What a result needs to say about where it was taken.
pub struct Host {
    pub cpus: usize,
    pub allowed: Vec<u32>,
    pub rustc: String,
    pub commit: String,
}

impl Host {
    pub fn probe() -> Host {
        let run = |program: &str, args: &[&str]| {
            let out = std::process::Command::new(program)
                .args(args)
                .current_dir(env!("CARGO_MANIFEST_DIR"))
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())?;
            Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
        };
        let commit = match run("git", &["rev-parse", "--short", "HEAD"]) {
            // Uncommitted changes are part of what was measured.
            Some(head) => match run("git", &["status", "--porcelain"]) {
                Some(changes) if changes.is_empty() => head,
                _ => format!("{head}-dirty"),
            },
            None => "unknown".into(),
        };
        Host {
            cpus: std::thread::available_parallelism().map_or(1, |p| p.get()),
            allowed: pin::allowed_cpus(),
            rustc: run("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            commit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 4, 7, 11], n=4) == [1.5, 4.0, 9.0]
        let d = Dist::of(&[11.0, 1.0, 7.0, 2.0, 4.0]).unwrap();
        assert_eq!((d.q1, d.median, d.q3), (1.5, 4.0, 9.0));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let d = Dist::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!((d.q1, d.median, d.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        let d = Dist::of(&[3.0, 5.0]).unwrap();
        assert_eq!((d.q1, d.median, d.q3), (2.5, 4.0, 5.5));
        let d = Dist::of(&[3.0]).unwrap();
        assert_eq!((d.q1, d.median, d.q3, d.n), (3.0, 3.0, 3.0, 1));
        assert_eq!(Dist::of(&[]), None);
    }
}
