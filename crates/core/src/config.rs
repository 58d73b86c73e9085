//! Engine configuration: synchronization policy, core speeds and run-time
//! cost knobs.

use simany_net::NetworkParams;
use simany_time::{CoreSpeed, CostModel, VDuration};

/// Virtual-time synchronization policy.
///
/// The paper's contribution is [`SyncPolicy::Spatial`]; the other variants
/// reproduce the schemes of the related work (§VII) for ablation studies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// **Spatial synchronization** (paper §II.A): a core may run ahead of
    /// the most-late of its *topological neighbors* by at most `t`;
    /// otherwise it stalls until the laggard catches up. Purely local: the
    /// drift between any two cores is bounded by `distance × t`.
    Spatial {
        /// Maximum local drift `T`.
        t: VDuration,
    },
    /// Bounded slack against the *global* minimum virtual time (SlackSim's
    /// bounded-slack scheme): a core stalls whenever it is more than
    /// `window` ahead of the slowest active core anywhere in the machine.
    BoundedSlack {
        /// Global window size.
        window: VDuration,
    },
    /// Conservative global order: only the core(s) holding the minimum
    /// virtual time may advance. Exact event ordering; this is what the
    /// cycle-level reference simulator uses.
    Conservative,
    /// No synchronization at all: cores free-run (fastest, least accurate).
    Unbounded,
}

impl SyncPolicy {
    /// The paper's reference configuration: spatial synchronization with
    /// `T = 100` cycles (§V, *Virtual Timing Parameters*).
    pub fn paper_default() -> Self {
        SyncPolicy::Spatial {
            t: VDuration::from_cycles(100),
        }
    }

    /// The slack the policy allows a core over its floor: `T` over the
    /// local floor, the window over the global one (`Conservative` is a
    /// zero window), or `None` without a bound.
    pub(crate) fn slack(self) -> Option<VDuration> {
        match self {
            SyncPolicy::Spatial { t } => Some(t),
            SyncPolicy::BoundedSlack { window } => Some(window),
            SyncPolicy::Conservative => Some(VDuration::ZERO),
            SyncPolicy::Unbounded => None,
        }
    }
}

/// Full engine configuration.
#[derive(Clone)]
pub struct EngineConfig {
    /// Synchronization policy (default: spatial, `T = 100` cycles).
    pub sync: SyncPolicy,
    /// Master seed: branch predictors and any runtime-level randomness
    /// derive from it.
    pub seed: u64,
    /// Instruction-class cost model shared by all cores.
    pub cost_model: CostModel,
    /// Per-core speed factors. `None` = uniform base speed; otherwise must
    /// have one entry per core (polymorphic architectures, paper §V).
    pub speeds: Option<Vec<CoreSpeed>>,
    /// Network cost parameters.
    pub net: NetworkParams,
    /// Cost of switching context to a *resuming* task (paper §V: 15
    /// cycles). Charged when a woken (e.g. joining) activity regains its
    /// core.
    pub resume_cost: VDuration,
    /// Size of every stack a task body can run on: the pooled userland
    /// contexts (`mmap`ed, plus one guard page each; resident only as deep
    /// as a body reaches). Task bodies are real recursive Rust code, and
    /// the runtime's message handlers run on top of a body at its
    /// annotation boundaries, so this must accommodate the deepest kernel
    /// recursion plus one handler. A size the host refuses to map ends the
    /// run with
    /// [`crate::SimError::HostResources`].
    pub worker_stack_bytes: usize,
    /// Abort the simulation if total live activities ever exceeds this
    /// (guards against runaway task explosions in buggy programs).
    pub max_live_activities: usize,
    /// Optional event tracer (see [`crate::Tracer`]).
    pub tracer: Option<std::rc::Rc<dyn crate::trace::Tracer>>,
    /// Profile the pick loop:
    /// accumulate wall time per loop phase (floor maintenance, ready-queue
    /// pops, scheduler overhead, action execution) and inside
    /// `sync::publish` into [`crate::SimStats`]'s `prof_*_ns` fields.
    /// Observation only — never affects the schedule — but it puts four or
    /// five clock reads on every pick and two on every publish, so it is
    /// off by default and meant for ranking per-event costs at scale, not
    /// for production runs.
    pub profile_picks: bool,
    /// Optional fault plan (link failures, message drops/delays/corruption,
    /// core failures). `None` — and an empty plan — are bit-identical to a
    /// perfect machine. Shared with the network model via `Arc`.
    pub fault: Option<std::sync::Arc<simany_fault::FaultPlan>>,
    /// Enable the online invariant sanitizer: every slow-path
    /// synchronization decision, publish sweep and message delivery is
    /// re-validated against an independent recomputation of the paper's
    /// invariants (neighbor drift <= T, global drift <= diameter x T,
    /// shadow-time monotonicity, birth-time floors, per-sender FIFO,
    /// causality). Violations are counted in
    /// [`crate::SimStats::sanitizer_violations`] and reported as
    /// [`crate::TraceEvent::SanitizerViolation`] events. Off by default;
    /// when off the checks cost a single untaken branch outside the hot
    /// fast path.
    pub sanitize: bool,
    /// Stall watchdog: abort with [`crate::SimError::Stalled`] after this
    /// many consecutive scheduler picks without any virtual-time progress
    /// (livelock defense; classic deadlocks are detected exactly by the
    /// quiet-state check). `None` disables the watchdog. The default is
    /// generous enough that no legitimate workload trips it.
    pub watchdog_picks: Option<u64>,
    /// Write a verification checkpoint every time the maximum virtual time
    /// crosses a multiple of this interval. `None` disables checkpointing.
    /// See `crate::checkpoint` for the format and the replay-based resume
    /// model.
    pub checkpoint_every: Option<VDuration>,
    /// Path the checkpoint file is (re)written to. Required when
    /// `checkpoint_every` is set.
    pub checkpoint_path: Option<std::path::PathBuf>,
    /// Resume from (i.e. deterministically replay and verify against) a
    /// checkpoint previously written by a run with the same program,
    /// configuration and seed. On reaching the checkpoint's virtual-time
    /// watermark the engine compares state digests and aborts with
    /// [`crate::SimError::CheckpointMismatch`] on divergence.
    pub resume_from: Option<std::path::PathBuf>,
    /// External-preemption budget: stop with [`crate::SimError::Preempted`]
    /// after this many *fresh-ground* checkpoints have been written — ones
    /// whose watermark lies strictly beyond the resume watermark (all
    /// checkpoints are fresh when not resuming). The checkpoint on disk is
    /// valid at the instant of preemption, so a driver (e.g. the
    /// `simany-serve` sweep scheduler) can park the run and later resume it
    /// with [`Self::resume_from`] under the usual bit-identity contract;
    /// the strict-progress rule guarantees each preempt/resume round
    /// advances at least one checkpoint interval. Requires
    /// [`Self::checkpoint_every`]. Observation-only: excluded from the
    /// config digest, like the checkpoint paths themselves.
    pub preempt_after_checkpoints: Option<u64>,
    /// Unit-test override: never take the drift-headroom fast path, so
    /// `sync`'s fast-vs-full equality test can run one program both ways.
    /// Not a knob — the field does not exist outside this crate's tests.
    #[cfg(test)]
    pub(crate) full_sync_only: bool,
    /// Unit-test fault: lose the first uncap registration made under a key
    /// beyond the front (`sync::UncapIndex`), so the sanitizer's
    /// `shadow-fixpoint` test has a stale capped core to find. Not a knob
    /// either.
    #[cfg(test)]
    pub(crate) drop_uncap_registration: bool,
    /// Unit-test override: never open a publish window (`sync::Window`), so
    /// `sync`'s windows-on-vs-off equality test can run one program both
    /// ways. Not a knob.
    #[cfg(test)]
    pub(crate) no_publish_windows: bool,
}

impl std::fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineConfig")
            .field("sync", &self.sync)
            .field("seed", &self.seed)
            .field("speeds", &self.speeds)
            .field("net", &self.net)
            .field("resume_cost", &self.resume_cost)
            .field("worker_stack_bytes", &self.worker_stack_bytes)
            .field("max_live_activities", &self.max_live_activities)
            .field("tracer", &self.tracer.as_ref().map(|_| "..."))
            .field("fault", &self.fault.as_ref().map(|_| "..."))
            .field("profile_picks", &self.profile_picks)
            .field("sanitize", &self.sanitize)
            .field("watchdog_picks", &self.watchdog_picks)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("checkpoint_path", &self.checkpoint_path)
            .field("resume_from", &self.resume_from)
            .field("preempt_after_checkpoints", &self.preempt_after_checkpoints)
            .finish()
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            sync: SyncPolicy::paper_default(),
            seed: 0x51_3A_17,
            cost_model: CostModel::default(),
            speeds: None,
            net: NetworkParams::default(),
            resume_cost: VDuration::from_cycles(15),
            worker_stack_bytes: 1 << 20,
            max_live_activities: 1 << 20,
            tracer: None,
            fault: None,
            profile_picks: false,
            sanitize: false,
            watchdog_picks: Some(10_000_000),
            checkpoint_every: None,
            checkpoint_path: None,
            resume_from: None,
            preempt_after_checkpoints: None,
            #[cfg(test)]
            full_sync_only: false,
            #[cfg(test)]
            drop_uncap_registration: false,
            #[cfg(test)]
            no_publish_windows: false,
        }
    }
}

impl EngineConfig {
    /// Configuration with a specific spatial drift bound `T` (in cycles).
    pub fn with_drift_cycles(mut self, t: u64) -> Self {
        self.sync = SyncPolicy::Spatial {
            t: VDuration::from_cycles(t),
        };
        self
    }

    /// Set the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable pick-loop phase profiling (see [`Self::profile_picks`]).
    pub fn with_profile_picks(mut self, on: bool) -> Self {
        self.profile_picks = on;
        self
    }

    /// Install a fault plan (see `simany_fault::FaultPlan`).
    pub fn with_fault_plan(mut self, plan: std::sync::Arc<simany_fault::FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Enable or disable the online invariant sanitizer (see
    /// [`Self::sanitize`]).
    pub fn with_sanitize(mut self, on: bool) -> Self {
        self.sanitize = on;
        self
    }

    /// Set (or disable, with `None`) the stall-watchdog pick budget (see
    /// [`Self::watchdog_picks`]).
    pub fn with_watchdog_picks(mut self, picks: Option<u64>) -> Self {
        self.watchdog_picks = picks;
        self
    }

    /// Write verification checkpoints every `every` of virtual-time
    /// progress to `path`.
    pub fn with_checkpoint(
        mut self,
        every: VDuration,
        path: impl Into<std::path::PathBuf>,
    ) -> Self {
        self.checkpoint_every = Some(every);
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Resume from (replay and verify against) the checkpoint at `path`.
    pub fn with_resume(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.resume_from = Some(path.into());
        self
    }

    /// Set (or clear) the external-preemption budget (see
    /// [`Self::preempt_after_checkpoints`]).
    pub fn with_preempt_after_checkpoints(mut self, checkpoints: Option<u64>) -> Self {
        self.preempt_after_checkpoints = checkpoints;
        self
    }

    /// Does nothing: the engine runs on the calling thread alone.
    // `benchmark/src/workloads.rs:452` still calls this; ROADMAP's parked
    // item "Deleting the names the frozen benchmark uses" deletes that
    // call, and this with it.
    #[deprecated(note = "the engine has no host worker threads; this is a no-op")]
    pub fn with_threads(self, _: u32) -> Self {
        self
    }

    /// Set per-core speeds (polymorphic architecture).
    pub fn with_speeds(mut self, speeds: Vec<CoreSpeed>) -> Self {
        self.speeds = Some(speeds);
        self
    }

    /// The paper's polymorphic speed pattern for `n` cores: cores alternate
    /// between half speed and 1.5× speed, preserving aggregate computing
    /// power (§V, *Architecture Exploration*).
    pub fn polymorphic_speeds(n: u32) -> Vec<CoreSpeed> {
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    CoreSpeed::HALF
                } else {
                    CoreSpeed::THREE_HALVES
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = EngineConfig::default();
        assert_eq!(
            c.sync,
            SyncPolicy::Spatial {
                t: VDuration::from_cycles(100)
            }
        );
        assert_eq!(c.resume_cost, VDuration::from_cycles(15));
    }

    #[test]
    fn polymorphic_pattern() {
        let speeds = EngineConfig::polymorphic_speeds(4);
        assert_eq!(
            speeds,
            vec![
                CoreSpeed::HALF,
                CoreSpeed::THREE_HALVES,
                CoreSpeed::HALF,
                CoreSpeed::THREE_HALVES
            ]
        );
        // Aggregate power equals uniform.
        let sum: f64 = speeds.iter().map(|s| s.as_f64()).sum();
        assert!((sum - 4.0).abs() < 1e-12);
    }

    #[test]
    fn builders_compose() {
        let c = EngineConfig::default()
            .with_drift_cycles(500)
            .with_seed(7)
            .with_speeds(EngineConfig::polymorphic_speeds(2));
        assert_eq!(
            c.sync,
            SyncPolicy::Spatial {
                t: VDuration::from_cycles(500)
            }
        );
        assert_eq!(c.seed, 7);
        assert_eq!(
            c.speeds,
            Some(vec![CoreSpeed::HALF, CoreSpeed::THREE_HALVES])
        );
    }

    #[test]
    fn uniform_speed_when_unset() {
        assert_eq!(EngineConfig::default().speeds, None);
    }
}
