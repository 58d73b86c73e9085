//! One rep: a fresh child process (`ledger one <workload> ...`) that pins
//! itself, runs the workload body once and prints what it found as one
//! JSON line. A process per rep makes `VmHWM` a per-rep number and lets
//! nothing leak between reps or workloads.

use crate::spans::{self, Span};
use crate::workloads::{run_body, threads_of, Cx, Metric};
use crate::{pin, probes};
use simany_serve::json::Json;
use std::io::Read as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Exit code of a child that was allowed fewer CPUs than its workload has
/// threads.
const EXIT_TOO_FEW_CPUS: i32 = 3;

/// Longest a rep may take; the slowest one (a traced `scale_1m` rep with
/// its probes) takes about a fifth of this on the reference host.
const REP_TIMEOUT: Duration = Duration::from_secs(60);

/// Where results, traces and per-rep scratch directories go.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Scratch directory of the rep running as process `pid`.
fn work_dir(pid: u32) -> PathBuf {
    results_dir().join(format!("work-{pid}"))
}

/// What the parent asks of a child.
#[derive(Clone, Debug)]
pub struct Request {
    pub workload: String,
    pub seed: u64,
    pub quick: bool,
    pub trace: bool,
    pub setup_only: bool,
    /// Leave the child on every allowed CPU (only the
    /// `core.handoff_placement_ratio` diagnostic does).
    pub unpinned: bool,
}

/// A list of CPU numbers as JSON.
pub fn cpu_list(cpus: &[u32]) -> Json {
    Json::Arr(cpus.iter().map(|&c| Json::Num(f64::from(c))).collect())
}

/// What a child reports.
#[derive(Clone, Debug, PartialEq)]
pub struct Rep {
    /// First call into the library to a verified result, process start
    /// excluded.
    pub wall_s: f64,
    pub setup_s: f64,
    /// `VmHWM` when the body returned.
    pub peak_rss_mb: f64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub sim_digest: String,
    pub errors: Vec<String>,
    pub pinned_cpus: Vec<u32>,
    pub metrics: Vec<Metric>,
    pub spans: Vec<Span>,
}

impl Rep {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("wall_s".into(), Json::Num(self.wall_s)),
            ("setup_s".into(), Json::Num(self.setup_s)),
            ("peak_rss_mb".into(), Json::Num(self.peak_rss_mb)),
            ("ops_attempted".into(), Json::Num(self.ops_attempted as f64)),
            ("ops_failed".into(), Json::Num(self.ops_failed as f64)),
            ("sim_digest".into(), Json::Str(self.sim_digest.clone())),
            (
                "errors".into(),
                Json::Arr(self.errors.iter().cloned().map(Json::Str).collect()),
            ),
            ("pinned_cpus".into(), cpu_list(&self.pinned_cpus)),
            (
                "metrics".into(),
                Json::Arr(
                    self.metrics
                        .iter()
                        .map(|m| {
                            Json::Arr(vec![
                                Json::Str(m.name.clone()),
                                Json::Str(m.unit.clone()),
                                Json::Num(m.value),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("spans".into(), spans::to_json(&self.spans)),
        ])
    }

    fn from_json(v: &Json) -> Option<Rep> {
        let strings = |key: &str| -> Option<Vec<String>> {
            v.get(key)?
                .as_arr()?
                .iter()
                .map(|s| Some(s.as_str()?.to_string()))
                .collect()
        };
        Some(Rep {
            wall_s: v.get("wall_s")?.as_f64()?,
            setup_s: v.get("setup_s")?.as_f64()?,
            peak_rss_mb: v.get("peak_rss_mb")?.as_f64()?,
            ops_attempted: v.get("ops_attempted")?.as_u64()?,
            ops_failed: v.get("ops_failed")?.as_u64()?,
            sim_digest: v.get("sim_digest")?.as_str()?.to_string(),
            errors: strings("errors")?,
            pinned_cpus: v
                .get("pinned_cpus")?
                .as_arr()?
                .iter()
                .map(|c| Some(c.as_u64()? as u32))
                .collect::<Option<_>>()?,
            metrics: v
                .get("metrics")?
                .as_arr()?
                .iter()
                .map(|m| {
                    let m = m.as_arr()?;
                    Some(Metric {
                        name: m.first()?.as_str()?.to_string(),
                        unit: m.get(1)?.as_str()?.to_string(),
                        value: m.get(2)?.as_f64()?,
                    })
                })
                .collect::<Option<_>>()?,
            spans: spans::from_json(v.get("spans")?)?,
        })
    }
}

/// Child side: run the rep `req` describes and print it. Returns the
/// process exit code.
pub fn child_main(req: &Request) -> i32 {
    let allowed = pin::allowed_cpus();
    let threads = threads_of(&req.workload) as usize;
    let pinned: Vec<u32> = if req.unpinned {
        allowed
    } else {
        if allowed.len() < threads {
            eprintln!(
                "{}: needs {threads} CPUs, {} allowed",
                req.workload,
                allowed.len()
            );
            return EXIT_TOO_FEW_CPUS;
        }
        let cpus = allowed[..threads].to_vec();
        if let Err(e) = pin::pin_to(&cpus) {
            eprintln!("{e}");
            return EXIT_TOO_FEW_CPUS;
        }
        cpus
    };

    let work_dir = work_dir(std::process::id());
    std::fs::create_dir_all(&work_dir).expect("benchmark/results is writable");
    let mut cx = Cx::new(
        req.seed,
        req.quick,
        req.trace,
        req.setup_only,
        work_dir.clone(),
    );
    let span = cx.spans.enter("rep");
    run_body(&req.workload, &mut cx);
    let wall_s = cx.spans.exit(span) as f64 / 1e9;
    let peak_rss_mb = simany_bench::peak_rss_bytes() as f64 / (1024.0 * 1024.0);
    if !cx.errors.is_empty() && cx.ops_failed == 0 {
        // An error that no body attributed to an operation still fails one.
        cx.ops_failed = 1;
    }
    let common = layer_metrics(&cx, wall_s);
    cx.metrics.extend(common);
    if req.trace && !req.setup_only {
        probes::run(&req.workload, &mut cx);
    }
    let _ = std::fs::remove_dir_all(&work_dir);

    let rep = Rep {
        wall_s,
        setup_s: cx.setup_ns as f64 / 1e9,
        peak_rss_mb,
        ops_attempted: cx.ops_attempted,
        ops_failed: cx.ops_failed,
        sim_digest: cx.digest_hex(),
        errors: cx.errors,
        pinned_cpus: pinned,
        metrics: cx.metrics,
        spans: cx.spans.all().to_vec(),
    };
    println!("{}", rep.to_json().dump());
    0
}

/// The metrics every workload has: what `SimStats` counted and timed,
/// summed over the rep's engine runs, and the spans' totals. A name with a
/// dot is a layer metric (the prefix is the crate); one without is derived
/// from end-to-end numbers.
fn layer_metrics(cx: &Cx, wall_s: f64) -> Vec<Metric> {
    let e = &cx.engine;
    let secs = |ns: u64| ns as f64 / 1e9;
    let mut out = vec![Metric::new("picks_per_s", "1/s", e.picks as f64 / wall_s)];
    if e.messages > 0 {
        out.push(Metric::new(
            "messages_per_s",
            "1/s",
            e.messages as f64 / wall_s,
        ));
    }
    // Only what was timed from here: `sweep_drift` builds its topologies
    // inside worker processes, and only `protocols_64` samples fault plans.
    let spans = cx.spans.all();
    for (span, metric) in [
        ("topology.build", "topology.build_s"),
        ("fault.plan_sample", "fault.plan_sample_s"),
    ] {
        if spans.iter().any(|s| s.name == span) {
            out.push(Metric::new(metric, "s", spans::self_secs(spans, span)));
        }
    }
    let ns_per_pick = e.run_ns as f64 / e.picks.max(1) as f64;
    out.extend([
        Metric::new("core.build_s", "s", secs(e.build_ns)),
        Metric::new("core.run_s", "s", secs(e.run_ns)),
        Metric::new("core.ns_per_pick", "ns", ns_per_pick),
        Metric::new("core.scheduler_picks", "count", e.picks as f64),
        Metric::new("core.sync_stalls", "count", e.stalls as f64),
        Metric::new(
            "core.fast_path_advances",
            "count",
            e.fast_path_advances as f64,
        ),
        Metric::new(
            "core.checkpoints_written",
            "count",
            e.checkpoints_written as f64,
        ),
        Metric::new("net.messages", "count", e.messages as f64),
        Metric::new("net.dropped", "count", e.net_dropped as f64),
        Metric::new("net.rerouted", "count", e.net_rerouted as f64),
        Metric::new("runtime.tasks_started", "count", e.tasks_started as f64),
        Metric::new("runtime.msg_retries", "count", e.msg_retries as f64),
    ]);
    if e.prof_action_ns > 0 {
        // `profile_picks` reaches the sequential engine of this process
        // only: not the frame engine, not `sweep_drift`'s workers.
        out.extend([
            Metric::new("core.pick_floor_s", "s", secs(e.prof_floor_ns)),
            Metric::new("core.pick_pop_s", "s", secs(e.prof_pop_ns)),
            Metric::new("core.pick_overhead_s", "s", secs(e.prof_overhead_ns)),
            Metric::new("core.action_s", "s", secs(e.prof_action_ns)),
        ]);
    }
    out
}

/// Why the parent has no rep to show.
#[derive(Debug)]
pub enum SpawnError {
    /// Fewer CPUs are allowed than the workload has threads.
    TooFewCpus,
    Other(String),
}

/// Parent side: run one rep in a fresh child and wait for it.
pub fn spawn(req: &Request) -> Result<Rep, SpawnError> {
    let exe = std::env::current_exe().map_err(|e| SpawnError::Other(e.to_string()))?;
    let mut cmd = Command::new(exe);
    cmd.args(["one", &req.workload, "--seed", &req.seed.to_string()]);
    for (flag, on) in [
        ("--quick", req.quick),
        ("--trace", req.trace),
        ("--setup-only", req.setup_only),
        ("--unpinned", req.unpinned),
    ] {
        if on {
            cmd.arg(flag);
        }
    }
    if threads_of(&req.workload) == 1 {
        // The sequential engine hosts every activity on a thread of its
        // own and hands one run token around; whether glibc opens another
        // malloc arena for a new thread depends on who holds the arena
        // lock at that instant, and `VmHWM` moved by 12 % between reps of
        // one input. One arena makes it repeat within 2 %.
        cmd.env("MALLOC_ARENA_MAX", "1");
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| SpawnError::Other(format!("cannot start a rep: {e}")))?;
    let mut pipe = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        pipe.read_to_string(&mut text).map(|_| text)
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if started.elapsed() < REP_TIMEOUT => {
                std::thread::sleep(Duration::from_millis(20));
            }
            // A rep that hangs is killed and counts as failed.
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    // A rep that died (or was killed) did not clean up after itself.
    let _ = std::fs::remove_dir_all(work_dir(child.id()));
    let stdout = reader.join().ok().and_then(Result::ok).unwrap_or_default();
    let Some(status) = status else {
        return Err(SpawnError::Other(format!(
            "rep of {} did not end within {REP_TIMEOUT:?} and was killed",
            req.workload
        )));
    };
    if status.code() == Some(EXIT_TOO_FEW_CPUS) {
        return Err(SpawnError::TooFewCpus);
    }
    stdout
        .lines()
        .last()
        .filter(|_| status.success())
        .and_then(|line| Rep::from_json(&Json::parse(line).ok()?))
        .ok_or_else(|| {
            SpawnError::Other(format!(
                "rep of {} ended with {status} and no result",
                req.workload
            ))
        })
}
