//! The sweep service itself: scheduling loop, worker pool, preemption,
//! crash-safe restart, and result/report emission.
//!
//! Layout under the output directory:
//!
//! ```text
//! out/
//!   journal.log        append-only queue journal (crash recovery)
//!   results.jsonl      one JSON record per scenario label (streaming)
//!   summary.json       aggregate counters, written at completion
//!   report.md          human-readable tables, written at completion (plus
//!                      the spec's `report` figure, see [`crate::figures`])
//!   runs/<digest>.json     raw `simulate --json` output per unique job
//!   runs/<digest>.stderr   worker stderr capture
//!   checkpoints/<digest>.checkpoint  preemption/interruption waypoints
//! ```
//!
//! Restart contract: `results.jsonl` is the source of truth for which
//! scenario records were already emitted; the journal is the source of
//! truth for which jobs completed. A killed sweep restarted with the same
//! arguments finishes with every scenario recorded exactly once.

use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::figures;
use crate::journal::{self, Journal};
use crate::json::Json;
use crate::queue::Queue;
use crate::scenario::{sibling_binary, Scenario};
use crate::spec;
use crate::worker::{classify_exit, ExitClass, Launch};

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Sweep spec file (TOML subset or JSON).
    pub spec_path: String,
    /// Output directory (created if missing).
    pub out_dir: PathBuf,
    /// Maximum concurrent worker processes.
    pub workers: usize,
    /// Path to the `simulate` binary; `None` = look next to the current
    /// executable.
    pub simulate_bin: Option<PathBuf>,
    /// `--checkpoint-every` for workers; checkpoints enable preemption and
    /// interrupted-run resume. `None` disables both.
    pub checkpoint_every: Option<u64>,
    /// Preempt each worker after this many fresh checkpoints (round-robin
    /// time-slicing across the queue). `None` = run to completion.
    pub preempt_after: Option<u64>,
    /// Cap on preempt/resume rounds per job before it runs to completion.
    pub max_resumes: u64,
    /// Polling sleep between scheduler iterations: how long a worker's
    /// exit can go unnoticed. Short, because a sweep of short jobs waits
    /// half of it per launch and the wait is a timer phase, different on
    /// every run; a poll is one `waitpid` per running worker.
    pub poll_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            spec_path: String::new(),
            out_dir: PathBuf::from("sweep-out"),
            workers: 2,
            simulate_bin: None,
            checkpoint_every: Some(5_000),
            preempt_after: None,
            max_resumes: 8,
            poll_ms: 1,
        }
    }
}

/// Aggregate counters for a finished (or interrupted) sweep.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Scenario labels in the spec.
    pub scenarios: usize,
    /// Unique jobs after dedup.
    pub unique_jobs: usize,
    /// Scenarios that deduplicated onto an existing job.
    pub dedup_hits: u64,
    /// Jobs that finished successfully (including in earlier runs).
    pub completed: usize,
    /// Jobs that failed terminally.
    pub failed: usize,
    /// Preemption events this run.
    pub preempts: u64,
    /// Resumed launches this run (from preemption or prior interruption).
    pub resumes: u64,
    /// Wall-clock seconds of this run.
    pub wall_secs: f64,
    /// True when the run stopped on a shutdown signal with work remaining.
    pub interrupted: bool,
}

enum JobState {
    Ready,
    Running,
    Done,
    Failed,
}

/// A running sweep service.
pub struct Service {
    cfg: ServeConfig,
    queue: Queue,
    states: Vec<JobState>,
    journal: Journal,
    /// Labels already present in `results.jsonl` (restart dedup).
    recorded: HashSet<String>,
    /// Jobs whose previous run was interrupted (checkpoint may exist).
    prior_preempts: HashMap<u64, u64>,
    simulate_bin: PathBuf,
    summary: Summary,
    /// The spec's figure and its scenarios, in spec order.
    report: Option<(String, Vec<Scenario>)>,
}

struct Running {
    job: usize,
    child: std::process::Child,
    resumed: bool,
}

impl Service {
    /// Load the spec, recover any prior journal state, and prepare the
    /// output directory.
    pub fn new(cfg: ServeConfig) -> Result<Service, String> {
        let spec = spec::load_spec(&cfg.spec_path)?;
        let report = spec.report.map(|name| (name, spec.scenarios.clone()));
        let queue = Queue::build(spec.scenarios)?;

        std::fs::create_dir_all(cfg.out_dir.join("runs"))
            .and_then(|()| std::fs::create_dir_all(cfg.out_dir.join("checkpoints")))
            .map_err(|e| format!("cannot create output dir {}: {e}", cfg.out_dir.display()))?;

        let recovery = journal::replay(&cfg.out_dir.join("journal.log"))?;
        let recorded = read_recorded_labels(&cfg.out_dir.join("results.jsonl"))?;

        let simulate_bin = match &cfg.simulate_bin {
            Some(p) => p.clone(),
            None => sibling_binary("simulate").ok_or_else(|| {
                "cannot find the `simulate` binary next to this executable; \
                 pass --simulate-bin"
                    .to_string()
            })?,
        };
        if !simulate_bin.is_file() {
            return Err(format!(
                "simulate binary {} does not exist",
                simulate_bin.display()
            ));
        }

        let mut states = Vec::with_capacity(queue.n_jobs());
        let mut summary = Summary {
            scenarios: queue.jobs.iter().map(|j| j.fanout.len()).sum(),
            unique_jobs: queue.n_jobs(),
            dedup_hits: queue.dedup_hits,
            ..Summary::default()
        };
        for job in &queue.jobs {
            let state = if recovery.done.contains_key(&job.digest) {
                summary.completed += 1;
                JobState::Done
            } else if recovery.failed.contains_key(&job.digest) {
                // Failures are terminal across restarts: identical inputs
                // would fail identically, and their scenario records are
                // already in results.jsonl.
                summary.failed += 1;
                JobState::Failed
            } else {
                // Never started, or interrupted mid-run — in the latter
                // case the on-disk checkpoint makes the relaunch a resume.
                JobState::Ready
            };
            states.push(state);
        }

        let journal_path = cfg.out_dir.join("journal.log");
        let fresh = !journal_path.exists();
        let mut journal = Journal::open(&journal_path)?;
        // A fresh journal gets the full enqueue record (self-describing);
        // on restart the lines are already there.
        if fresh {
            for job in &queue.jobs {
                for s in &job.fanout {
                    journal.append("enqueued", job.digest, &s.label)?;
                }
            }
        }

        Ok(Service {
            cfg,
            states,
            journal,
            recorded,
            prior_preempts: recovery.preempts,
            simulate_bin,
            summary,
            queue,
            report,
        })
    }

    /// Run the sweep to completion (or until `shutdown` is raised). On
    /// shutdown, running workers are killed — their checkpoints survive —
    /// and the journal records them as interrupted (no terminal event), so
    /// a restart resumes them without re-running finished jobs.
    pub fn run(&mut self, shutdown: &AtomicBool) -> Result<Summary, String> {
        let started = Instant::now();
        let mut running: Vec<Running> = Vec::new();

        loop {
            // Reap finished workers.
            let mut idx = 0;
            while idx < running.len() {
                let r = &mut running[idx];
                match r.child.try_wait() {
                    Ok(Some(status)) => {
                        let r = running.swap_remove(idx);
                        self.on_worker_exit(r.job, classify_exit(status.code()))?;
                    }
                    Ok(None) => idx += 1,
                    Err(e) => return Err(format!("waitpid failed: {e}")),
                }
            }

            if shutdown.load(Ordering::SeqCst) {
                // Kill the pool; checkpoints on disk make this lossless.
                for r in &mut running {
                    let _ = r.child.kill();
                    let _ = r.child.wait();
                }
                self.summary.interrupted = true;
                break;
            }

            // Launch up to the worker limit.
            while running.len() < self.cfg.workers {
                let Some(job) = self.queue.pop_ready(|j| {
                    !matches!(self.states[j], JobState::Ready) || running.iter().any(|r| r.job == j)
                }) else {
                    break;
                };
                let launched = self.launch(job)?;
                self.summary.resumes += u64::from(launched.resumed);
                running.push(launched);
            }

            if running.is_empty() {
                break; // queue drained
            }
            std::thread::sleep(std::time::Duration::from_millis(self.cfg.poll_ms));
        }

        self.summary.wall_secs = started.elapsed().as_secs_f64();
        if !self.summary.interrupted {
            self.write_report()?;
        }
        Ok(self.summary.clone())
    }

    fn launch(&mut self, job: usize) -> Result<Running, String> {
        let j = &self.queue.jobs[job];
        let digest_hex = format!("{:016x}", j.digest);
        let launch = Launch {
            scenario: &j.fanout[0],
            digest_hex: &digest_hex,
            simulate_bin: &self.simulate_bin,
            out_dir: &self.cfg.out_dir,
            checkpoint_every: self.cfg.checkpoint_every,
            // Once a job exhausts its resume budget it runs to completion.
            preempt_after: self.cfg.preempt_after.filter(|_| {
                j.preempts + self.prior_preempts.get(&j.digest).copied().unwrap_or(0)
                    < self.cfg.max_resumes
            }),
        };
        let resumed = self.cfg.checkpoint_every.is_some() && launch.checkpoint_path().is_file();
        let child = launch.spawn()?;
        self.journal.append("started", j.digest, "")?;
        self.states[job] = JobState::Running;
        Ok(Running {
            job,
            child,
            resumed,
        })
    }

    fn on_worker_exit(&mut self, job: usize, class: ExitClass) -> Result<(), String> {
        let digest = self.queue.jobs[job].digest;
        match class {
            ExitClass::Success => {
                // Record every fanout label before journaling `done`: if we
                // crash between the two, restart re-records missing labels
                // (results.jsonl scan) rather than losing them.
                self.record_results(job, "ok")?;
                self.journal.append("done", digest, "ok")?;
                self.states[job] = JobState::Done;
                self.summary.completed += 1;
            }
            ExitClass::Preempted => {
                self.journal.append("preempted", digest, "")?;
                self.summary.preempts += 1;
                self.states[job] = JobState::Ready;
                self.queue.requeue(job);
            }
            other => {
                let status = other.status();
                self.record_results(job, &status)?;
                self.journal.append("failed", digest, &status)?;
                self.states[job] = JobState::Failed;
                self.summary.failed += 1;
            }
        }
        Ok(())
    }

    /// Append one results.jsonl record per fanout label not yet recorded.
    fn record_results(&mut self, job: usize, status: &str) -> Result<(), String> {
        let j = &self.queue.jobs[job];
        let digest_hex = format!("{:016x}", j.digest);
        let run_json = if status == "ok" {
            let path = self
                .cfg
                .out_dir
                .join("runs")
                .join(format!("{digest_hex}.json"));
            let text = std::fs::read_to_string(&path).map_err(|e| {
                format!("worker succeeded but {} is unreadable: {e}", path.display())
            })?;
            Some(
                Json::parse(&text)
                    .map_err(|e| format!("bad worker JSON {}: {e}", path.display()))?,
            )
        } else {
            None
        };

        let path = self.cfg.out_dir.join("results.jsonl");
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        for s in &j.fanout {
            if self.recorded.contains(&s.label) {
                continue;
            }
            let mut record = vec![
                ("label".to_string(), Json::Str(s.label.clone())),
                ("digest".to_string(), Json::Str(digest_hex.clone())),
                ("status".to_string(), Json::Str(status.to_string())),
            ];
            if let Some(run) = &run_json {
                for key in [
                    "kernel",
                    "cores",
                    "seed",
                    "final_vtime_cycles",
                    "wall_ns",
                    "peak_rss_bytes",
                    "cores_per_sec",
                    "work_items",
                    "sync_stalls",
                    "messages",
                    "checkpoints_written",
                    "checkpoint_verifications",
                ] {
                    if let Some(v @ (Json::Num(_) | Json::Str(_) | Json::Bool(_))) = run.get(key) {
                        record.push((key.to_string(), v.clone()));
                    }
                }
                // Protocol runs carry a nested resilience report
                // (coverage, msgs/delivery, latency distribution) —
                // copied verbatim so sweep results keep the whole story.
                if let Some(rep) = run.get("resilience") {
                    record.push(("resilience".to_string(), rep.clone()));
                }
                if let Some(d) = s.drift {
                    record.push(("drift".to_string(), Json::U64(d)));
                }
                record.push(("sync".to_string(), Json::Str(s.sync.clone())));
            }
            writeln!(file, "{}", Json::Obj(record).dump())
                .map_err(|e| format!("results write failed: {e}"))?;
            self.recorded.insert(s.label.clone());
        }
        file.flush()
            .map_err(|e| format!("results flush failed: {e}"))
    }

    /// Write `summary.json` and `report.md` for a completed sweep.
    fn write_report(&mut self) -> Result<(), String> {
        let s = &self.summary;
        let per_hour = if s.wall_secs > 0.0 {
            s.scenarios as f64 / (s.wall_secs / 3600.0)
        } else {
            0.0
        };
        let count = |n: usize| Json::U64(n as u64);
        let summary_json = Json::Obj(Vec::from(
            [
                ("scenarios", count(s.scenarios)),
                ("unique_jobs", count(s.unique_jobs)),
                ("dedup_hits", Json::U64(s.dedup_hits)),
                ("completed", count(s.completed)),
                ("failed", count(s.failed)),
                ("preempts", Json::U64(s.preempts)),
                ("resumes", Json::U64(s.resumes)),
                ("wall_secs", Json::Num((s.wall_secs * 1e3).round() / 1e3)),
                (
                    "scenarios_per_hour",
                    Json::Num((per_hour * 10.0).round() / 10.0),
                ),
                ("interrupted", Json::Bool(s.interrupted)),
            ]
            .map(|(k, v)| (k.to_string(), v)),
        ))
        .dump_lines();
        std::fs::write(self.cfg.out_dir.join("summary.json"), summary_json)
            .map_err(|e| format!("cannot write summary.json: {e}"))?;

        // report.md: one row per recorded scenario, read back from
        // results.jsonl so the report survives restarts losslessly.
        let mut table = simany::stats::Table::new(&[
            "label",
            "status",
            "digest",
            "vtime (cycles)",
            "stalls",
            "messages",
            "wall (ms)",
        ]);
        let records = read_results(&self.cfg.out_dir.join("results.jsonl"))?;
        for r in &records {
            let num = |k: &str| {
                r.get(k)
                    .and_then(Json::as_f64)
                    .map(|x| format!("{x}"))
                    .unwrap_or_else(|| "-".into())
            };
            let wall_ms = r
                .get("wall_ns")
                .and_then(Json::as_f64)
                .map(|ns| format!("{:.1}", ns / 1e6))
                .unwrap_or_else(|| "-".into());
            table.row(vec![
                r.get("label")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                r.get("status")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                r.get("digest")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                num("final_vtime_cycles"),
                num("sync_stalls"),
                num("messages"),
                wall_ms,
            ]);
        }
        let mut report = String::from("# Sweep report\n\n");
        report.push_str(&format!(
            "{} scenarios, {} unique jobs ({} deduplicated), {} completed, {} failed.\n\
             {} preemptions, {} resumed launches, {:.1}s wall ({per_hour:.0} scenarios/hour).\n\n",
            s.scenarios,
            s.unique_jobs,
            s.dedup_hits,
            s.completed,
            s.failed,
            s.preempts,
            s.resumes,
            s.wall_secs,
        ));
        report.push_str(&table.to_markdown());
        if let Some((name, scenarios)) = &self.report {
            report.push('\n');
            report.push_str(&figures::render(name, scenarios, &records).unwrap_or_default());
        }
        std::fs::write(self.cfg.out_dir.join("report.md"), report)
            .map_err(|e| format!("cannot write report.md: {e}"))
    }
}

/// Scan `results.jsonl` for the labels already recorded (restart path).
fn read_recorded_labels(path: &Path) -> Result<HashSet<String>, String> {
    Ok(read_results(path)?
        .iter()
        .filter_map(|r| r.get("label").and_then(Json::as_str).map(str::to_string))
        .collect())
}

/// Parse every record in a results.jsonl file (missing file = empty).
pub fn read_results(path: &Path) -> Result<Vec<Json>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(Json::parse(line).map_err(|e| format!("{} line {}: {e}", path.display(), i + 1))?);
    }
    Ok(out)
}
