//! The engine's run contracts, one harness for every suite that checks them.
//!
//! Virtual time is a pure function of (program, configuration, seed):
//! checkpoint/resume, the sweep service's dedup and every golden table rest
//! on that. So a scenario — a point of machine × workload × policy × fault
//! × cut, plus a seed — is held to the same checks wherever it is named:
//!
//! - [`Check::Repeat`]: two runs agree on every deterministic output;
//! - [`Check::EmptyPlan`]: an empty fault plan gives the same run as no
//!   plan;
//! - [`Check::Sanitizer`]: watching changes nothing, finds no violation and
//!   checks something;
//! - [`Check::Cut`], resume: a run that writes checkpoints, and a run
//!   resumed from one (verified once), both match the uninterrupted run;
//! - [`Check::Cut`], preempt: preempted after a budget of fresh checkpoints
//!   and resumed slice after slice, each strictly further, the run ends as
//!   the uninterrupted one did;
//! - and every run's workload output passes its own check.
//!
//! Each test binary that includes this module uses a part of it.
#![allow(dead_code)]

use simany::core::{EngineConfig, SimError, SimStats, SyncPolicy, TraceEvent, Tracer};
use simany::core::{VDuration, VirtualTime};
use simany::fault::{FaultConfig, FaultPlan, FaultPlanBuilder};
use simany::kernels::protocols::{all_protocols, protocol_by_name};
use simany::kernels::{all_kernels, kernel_by_name, Scale};
use simany::presets;
use simany::runtime::{ProgramSpec, RunOutput};
use std::sync::atomic::{AtomicU64, Ordering};
use std::{cell::RefCell, collections::BTreeSet, fmt::Debug, path::PathBuf, rc::Rc, sync::Arc};
pub use {Cut::*, Fault::*, Machine::*, Workload::*};

/// 16-core 2D meshes — optimistic shared memory, distributed memory, shared
/// memory with coherence timings — and 2×2 chiplets of 16×16 cores joined
/// by 4-cycle / 32 B/cy links (distributed memory).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Machine {
    Sm,
    Dm,
    Smc,
    Chiplet,
}

/// A dwarf kernel at `Scale(0.1)` or a protocol at `Scale(1.0)`, by name
/// prefix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    Kernel(&'static str),
    Protocol(&'static str),
}

/// Every dwarf kernel, and every protocol, in registry order.
pub fn kernels() -> Vec<Workload> {
    all_kernels().iter().map(|k| Kernel(k.name())).collect()
}
pub fn protocols() -> Vec<Workload> {
    all_protocols().iter().map(|p| Protocol(p.name())).collect()
}

const T100: VDuration = VDuration::from_cycles(100);
pub const SPATIAL: SyncPolicy = SyncPolicy::Spatial { t: T100 };
pub const SLACK: SyncPolicy = SyncPolicy::BoundedSlack { window: T100 };
pub const POLICIES: [SyncPolicy; 4] = [
    SPATIAL,
    SLACK,
    SyncPolicy::Conservative,
    SyncPolicy::Unbounded,
];

/// No plan; a plan with nothing in it; links failing and repairing, lossy
/// links and failing cores, sampled with plan seed 7; the machine's two
/// halves cut apart, then healed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    NoPlan,
    EmptyPlan,
    Sampled,
    Partition,
}

/// Run to completion only; checkpoint every quarter of the run and resume
/// from the last checkpoint; or checkpoint every `every` cycles (`None`: a
/// quarter of the run) and preempt after `budget` fresh checkpoints,
/// resuming with the same budget until done.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Cut {
    Whole,
    Resume,
    Preempt { budget: u64, every: Option<u64> },
}

/// Preemption after `budget` fresh checkpoints, one every quarter of the run.
pub const fn preempt(budget: u64) -> Cut {
    Preempt {
        budget,
        every: None,
    }
}

/// One scenario: (machine, workload, policy, fault, cut, seed); the seed
/// is both the workload's and the engine's.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Case(
    pub Machine,
    pub Workload,
    pub SyncPolicy,
    pub Fault,
    pub Cut,
    pub u64,
);

/// Quicksort with seed 42: the scenario most suites name.
pub fn quicksort(m: Machine, p: SyncPolicy, f: Fault, c: Cut) -> Case {
    Case(m, Kernel("Quicksort"), p, f, c, 42)
}

/// The checks of the module docs, in the order a case runs them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Check {
    Repeat,
    EmptyPlan,
    Sanitizer,
    Cut,
}

pub const ALL_CHECKS: [Check; 4] = [
    Check::Repeat,
    Check::EmptyPlan,
    Check::Sanitizer,
    Check::Cut,
];

/// All of `stats` that is a function of the scenario, as one text, so a
/// new counter is covered the day it is added.
pub fn deterministic(stats: &SimStats) -> String {
    let mut s = stats.clone();
    // Host time, not a function of the scenario.
    s.wall = Default::default();
    (s.build_ns, s.run_ns, s.os_threads) = (0, 0, 0);
    (s.prof_floor_ns, s.prof_pop_ns, s.prof_overhead_ns) = (0, 0, 0);
    (s.prof_action_ns, s.prof_publish_ns) = (0, 0);
    // Differ by design between a run and its sanitized, checkpointing or
    // resumed variant; the checks read them on their own.
    (s.sanitizer_checks, s.sanitizer_violations) = (0, 0);
    (s.checkpoints_written, s.checkpoint_verifications) = (0, 0);
    s.max_global_drift = VDuration::ZERO;
    format!("{s:#?}")
}

/// Every deterministic output of a run — [`deterministic`] `SimStats`, all
/// of `RtStats` and the workload's outcome (kernel: `verified` and
/// `work_items`; protocol: `verified` and every metric down to the latency
/// samples) — as one text.
#[derive(PartialEq, Eq)]
struct Fingerprint(String);

impl Fingerprint {
    fn of(out: &RunOutput, outcome: &dyn Debug) -> Self {
        let (stats, rt) = (deterministic(&out.stats), &out.rt);
        Fingerprint(format!("{stats}\n{rt:#?}\n{outcome:#?}"))
    }

    /// `Err` naming the first differing line, if `other` differs.
    fn expect_same(&self, other: &Fingerprint, check: &str) -> Result<(), String> {
        match self.0.lines().zip(other.0.lines()).find(|(a, b)| a != b) {
            Some((a, b)) => Err(format!("{check}: `{}` became `{}`", a.trim(), b.trim())),
            None if self != other => Err(format!("{check}: outputs differ in length")),
            None => Ok(()),
        }
    }
}

/// What a completed, verified run left behind for the checks.
struct Outcome(Fingerprint, SimStats);

/// A directory of this process's own, removed when dropped.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("simany-contract-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The sanitizer's violations, by invariant name.
#[derive(Default)]
struct Violations(RefCell<BTreeSet<&'static str>>);

impl Tracer for Violations {
    fn record(&self, event: TraceEvent) {
        if let TraceEvent::SanitizerViolation { invariant, .. } = event {
            self.0.borrow_mut().insert(invariant);
        }
    }
}

impl Case {
    /// The scenario's machine, fault plan, policy and seed, ready to run.
    pub fn spec(&self) -> ProgramSpec {
        let Case(machine, workload, policy, fault, _, seed) = *self;
        let mut spec = match machine {
            Sm => presets::uniform_mesh_sm(16),
            Dm => presets::uniform_mesh_dm(16),
            Smc => presets::uniform_mesh_sm_coherent(16),
            Chiplet => presets::chiplet_dm(1024, 4),
        };
        let (topo, cycles) = (&spec.topo, VirtualTime::from_cycles);
        let plan = match fault {
            NoPlan => None,
            EmptyPlan => Some(FaultPlan::empty(topo)),
            Sampled => {
                let mut cfg = FaultConfig::default();
                (cfg.link_fail_prob, cfg.drop_prob, cfg.core_fail_prob) = (0.15, 0.05, 0.05);
                cfg.repair_after = Some(VDuration::from_cycles(5_000));
                cfg.horizon = cycles(20_000);
                Some(FaultPlan::sample(topo, &cfg, 7))
            }
            Partition => {
                // Quorum is cut later, so a stable leader exists first.
                let (at, heal) = match workload {
                    Protocol("Quorum") => (15_000, 40_000),
                    _ => (5_000, 30_000),
                };
                let cut =
                    FaultPlanBuilder::new().partition_halves(topo, cycles(at), Some(cycles(heal)));
                Some(cut.build(topo))
            }
        };
        if let Some(plan) = plan {
            spec.engine = spec.engine.with_fault_plan(Arc::new(plan));
        }
        (spec.engine.sync, spec.engine.seed) = (policy, seed);
        spec
    }

    /// Run the scenario with `tweak` applied last; `Ok(Err)` if the
    /// workload output failed its check.
    fn try_run(
        &self,
        tweak: impl FnOnce(&mut EngineConfig),
    ) -> Result<Result<Outcome, String>, SimError> {
        let Case(_, workload, .., seed) = *self;
        let mut spec = self.spec();
        tweak(&mut spec.engine);
        let (out, verified, outcome): (_, _, Box<dyn Debug>) = match workload {
            Kernel(name) => {
                let r = kernel_by_name(name)
                    .unwrap()
                    .run_sim(spec, Scale(0.1), seed)?;
                (r.out, r.verified, Box::new(r.work_items))
            }
            Protocol(name) => {
                let o = protocol_by_name(name)
                    .unwrap()
                    .run_sim(spec, Scale(1.0), seed)?;
                (o.out, o.verified, Box::new(o.metrics))
            }
        };
        let fp = Fingerprint::of(&out, &(verified, outcome));
        Ok(match verified {
            true => Ok(Outcome(fp, out.stats)),
            false => Err("verified: the workload output failed its check".into()),
        })
    }

    /// [`Self::try_run`] for a run that must complete and verify.
    fn run(&self, tweak: impl FnOnce(&mut EngineConfig)) -> Result<Outcome, String> {
        self.try_run(tweak)
            .map_err(|e| format!("run failed: {e}"))?
    }

    /// The failures of `checks` on this case, in check order.
    pub fn check(&self, checks: &[Check]) -> Vec<String> {
        let base = match self.run(|_| {}) {
            Ok(base) => base,
            Err(e) => return vec![e],
        };
        let checks = checks.iter().map(|check| match check {
            Check::Repeat => self.check_repeat(&base),
            Check::EmptyPlan => self.check_empty_plan(&base),
            Check::Sanitizer => self.check_sanitizer(&base),
            Check::Cut => self.check_cut(&base),
        });
        checks.filter_map(Result::err).collect()
    }

    fn check_repeat(&self, Outcome(base, _): &Outcome) -> Result<(), String> {
        base.expect_same(&self.run(|_| {})?.0, "repeat")
    }

    /// No plan against an empty one, whichever of the two the case has.
    fn check_empty_plan(&self, Outcome(base, _): &Outcome) -> Result<(), String> {
        let Case(machine, workload, policy, fault, cut, seed) = *self;
        let other = match fault {
            NoPlan => EmptyPlan,
            EmptyPlan => NoPlan,
            Sampled | Partition => return Ok(()),
        };
        let twin = Case(machine, workload, policy, other, cut, seed);
        base.expect_same(&twin.run(|_| {})?.0, "empty plan")
    }

    /// A failure names the invariants violated, not how often: the counts
    /// follow the sanitizer's cadence, which host-work changes may move.
    fn check_sanitizer(&self, Outcome(base, _): &Outcome) -> Result<(), String> {
        let violated = Rc::new(Violations::default());
        let Outcome(watched, s) = self.run(|c| {
            c.sanitize = true;
            c.tracer = Some(violated.clone());
        })?;
        base.expect_same(&watched, "sanitizer")?;
        let violated: Vec<_> = violated.0.take().into_iter().collect();
        match (s.sanitizer_violations, s.sanitizer_checks) {
            (0, 1..) => Ok(()),
            (0, 0) => Err("sanitizer: made no check".into()),
            _ => Err(format!("sanitizer: violated {}", violated.join(", "))),
        }
    }

    /// Resume: one run writes checkpoints to the end, a second resumes from
    /// the last. Preempt: slices, each stopped by the budget strictly
    /// further than the one before, until one resumes to the end.
    fn check_cut(&self, Outcome(base, stats): &Outcome) -> Result<(), String> {
        let Case(.., cut, _) = *self;
        let quarter = (stats.final_vtime.cycles() / 4).max(1);
        let (what, budget, every) = match cut {
            Whole => return Ok(()),
            Resume => ("resume", None, quarter),
            Preempt { budget, every } => ("preempt", Some(budget), every.unwrap_or(quarter)),
        };
        let dir = ScratchDir::new();
        let path = dir.0.join("run.checkpoint");
        let every = VDuration::from_cycles(every);
        let (mut resume, mut stopped) = (false, None);
        // The budget counts only checkpoints beyond the resume watermark, so
        // every slice advances; the cap catches a livelock.
        for _slice in 0..SLICES {
            let slice = self.try_run(|c| {
                (c.checkpoint_every, c.checkpoint_path) = (Some(every), Some(path.clone()));
                c.preempt_after_checkpoints = budget;
                c.resume_from = resume.then(|| path.clone());
            });
            match slice {
                Err(SimError::Preempted { at, checkpoints })
                    if budget == Some(checkpoints) && stopped.is_none_or(|s| at > s) =>
                {
                    stopped = Some(at)
                }
                Err(e) => return Err(format!("{what}: {e} (last slice stopped at {stopped:?})")),
                Ok(done) => {
                    let Outcome(done, s) = done?;
                    base.expect_same(&done, what)?;
                    let (written, verified) = (s.checkpoints_written, s.checkpoint_verifications);
                    match (resume, budget) {
                        (false, None) if written > 0 => {}
                        (true, _) if verified == 1 => return Ok(()),
                        _ => return Err(format!("{what}: {written} written, {verified} verified")),
                    }
                }
            }
            resume = true;
        }
        Err(format!("{what}: no end within {SLICES} slices"))
    }
}

/// Preempted slices a cut may take before it counts as a livelock.
const SLICES: usize = 200;

/// Assert that every one of `cases` passes every one of `checks`.
pub fn assert_checks(cases: impl IntoIterator<Item = Case>, checks: &[Check]) {
    let wrong: Vec<String> = cases
        .into_iter()
        .flat_map(|case| {
            case.check(checks)
                .into_iter()
                .map(move |e| format!("{case:?}: {e}"))
        })
        .collect();
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
