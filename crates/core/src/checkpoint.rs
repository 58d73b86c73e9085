//! Verification checkpoints and deterministic resume.
//!
//! SiMany is deterministic: topology + configuration + seed fully determine
//! the run. A checkpoint therefore does not need to serialize the engine's
//! live object graph (native task stacks could not be serialized anyway —
//! task bodies are real Rust frames, §III); it records a *verifiable
//! waypoint*: the configuration digest, the virtual-time watermark, the
//! scheduler-pick count at that watermark and an order-independent digest
//! of all mutable machine state. Resuming (`EngineConfig::resume_from`)
//! replays the run from the start and, at the first scheduler-time instant
//! whose `max_vtime` reaches the watermark, compares pick count and state
//! digest — any divergence (changed binary, configuration drift, a
//! nondeterminism bug) aborts with [`crate::SimError::CheckpointMismatch`].
//! A resumed run that verifies is bit-identical to the uninterrupted run by
//! construction, which is exactly the property the determinism suite pins.
//!
//! The on-disk format is a small versioned text file:
//!
//! ```text
//! simany-checkpoint v2
//! config <16-hex config digest>
//! watermark <ticks>
//! picks <scheduler picks>
//! state <16-hex state digest>
//! ```
//!
//! Checkpoints are written at scheduler-time quiescence (deferred publishes
//! are flushed at every token yield), so the digest is well-defined; the
//! file at `checkpoint_path` is atomically replaced (write + rename) each
//! time the watermark crosses a `checkpoint_every` boundary.

use crate::engine::{Failure, Shared, Sim};
use simany_time::{VDuration, VirtualTime};
use std::path::Path;

/// Format magic of version 2. Version 1 digested each idle core's stored
/// shadow word (which could predate a rise of the shadow cap) and four
/// host-work counters; a v1 file cannot verify against this digest and is
/// refused as an unsupported format.
const MAGIC_V2: &str = "simany-checkpoint v2";

/// One verification waypoint (see the module docs for semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Digest of the behavioral configuration (policy, seed, network,
    /// fault plan shape — everything that determines the trajectory;
    /// observation-only knobs like tracing, sanitizing and checkpoint
    /// paths are excluded so a resuming run may differ in them).
    pub config_digest: u64,
    /// Virtual-time watermark: `max_vtime` at the instant the checkpoint
    /// was taken.
    pub watermark: VirtualTime,
    /// Scheduler picks completed at the watermark.
    pub picks: u64,
    /// Digest of all mutable machine state at the watermark.
    pub state_digest: u64,
}

impl Checkpoint {
    /// Serialize to `path`, replacing any previous checkpoint atomically
    /// (write to `path.tmp`, then rename). The file is handed to the OS,
    /// not forced to the device: a reader after this process was preempted,
    /// killed or crashed sees the old checkpoint or the new one, which is
    /// the failure model of the sweep journal too, and a device flush per
    /// waypoint would put the host's storage latency inside the pick loop.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        let text = format!(
            "{MAGIC_V2}\nconfig {:016x}\nwatermark {}\npicks {}\nstate {:016x}\n",
            self.config_digest,
            self.watermark.ticks(),
            self.picks,
            self.state_digest
        );
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, path)
    }

    /// Load and validate a checkpoint file.
    pub fn load(path: &Path) -> Result<Checkpoint, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
        let mut lines = text.lines();
        let magic = lines.next().unwrap_or_default();
        if magic != MAGIC_V2 {
            return Err(format!(
                "unsupported checkpoint format {magic:?} in {} (expected {MAGIC_V2:?})",
                path.display()
            ));
        }
        let mut field = |name: &str, radix: u32| -> Result<u64, String> {
            let line = lines
                .next()
                .ok_or_else(|| format!("truncated checkpoint {}", path.display()))?;
            let value = line
                .strip_prefix(name)
                .and_then(|r| r.strip_prefix(' '))
                .ok_or_else(|| {
                    format!("malformed checkpoint line {line:?} (expected {name} ...)")
                })?;
            u64::from_str_radix(value.trim(), radix)
                .map_err(|e| format!("bad {name} value {value:?}: {e}"))
        };
        let config_digest = field("config", 16)?;
        let watermark_ticks = field("watermark", 10)?;
        let picks = field("picks", 10)?;
        let state_digest = field("state", 16)?;
        Ok(Checkpoint {
            config_digest,
            watermark: VirtualTime::ZERO + VDuration::from_half_cycles(watermark_ticks),
            picks,
            state_digest,
        })
    }
}

/// Per-run checkpoint/resume bookkeeping. The pick front-end shared by
/// both scheduler loops calls [`CheckpointDriver::observe`] once per
/// scheduler-time instant (quiescence: deferred publishes are flushed at
/// every token yield), which performs, in order:
///
/// 1. **resume verification** — the first instant whose `max_vtime`
///    reaches the resume watermark compares pick count and state digest
///    and records a [`Failure::CheckpointMismatch`] on divergence;
/// 2. **checkpoint writes** — every `checkpoint_every` boundary crossing
///    atomically replaces the checkpoint file;
/// 3. **external preemption** — once
///    [`crate::EngineConfig::preempt_after_checkpoints`] fresh-ground
///    checkpoints (watermark strictly beyond the resume watermark) have
///    been written, records a [`Failure::Preempted`]. The strict
///    inequality guarantees each preempt/resume round advances at least
///    one checkpoint interval, so a driver that loops preempt → resume
///    always terminates.
pub(crate) struct CheckpointDriver {
    pending_resume: Option<Checkpoint>,
    resume_watermark: Option<VirtualTime>,
    next_checkpoint: Option<VirtualTime>,
    fresh_written: u64,
    preempt_budget: Option<u64>,
}

impl CheckpointDriver {
    pub(crate) fn new(config: &crate::EngineConfig, resume_target: Option<Checkpoint>) -> Self {
        CheckpointDriver {
            resume_watermark: resume_target.as_ref().map(|cp| cp.watermark),
            pending_resume: resume_target,
            next_checkpoint: config
                .checkpoint_every
                .map(|every| VirtualTime::ZERO + every),
            fresh_written: 0,
            preempt_budget: config.preempt_after_checkpoints,
        }
    }

    /// Run the bookkeeping for the current instant. Returns `false` (after
    /// setting `sim.failure`) when the scheduler loop must stop.
    pub(crate) fn observe(&mut self, sim: &mut Sim, shared: &Shared, cfg_digest: u64) -> bool {
        if self
            .pending_resume
            .as_ref()
            .is_some_and(|cp| sim.max_vtime >= cp.watermark)
        {
            let cp = self.pending_resume.take().unwrap();
            sim.stats.checkpoint_verifications += 1;
            let digest = state_digest(sim, shared);
            if sim.stats.scheduler_picks != cp.picks || digest != cp.state_digest {
                sim.failure = Some(Failure::CheckpointMismatch(format!(
                    "replay diverged at watermark {}: picks {} (checkpoint {}), \
                     state digest {:016x} (checkpoint {:016x})",
                    cp.watermark, sim.stats.scheduler_picks, cp.picks, digest, cp.state_digest
                )));
                return false;
            }
        }
        if self.next_checkpoint.is_some_and(|nc| sim.max_vtime >= nc) {
            let every = shared.config.checkpoint_every.unwrap();
            let mut nc = self.next_checkpoint.unwrap();
            while sim.max_vtime >= nc {
                nc += every;
            }
            self.next_checkpoint = Some(nc);
            let cp = Checkpoint {
                config_digest: cfg_digest,
                watermark: sim.max_vtime,
                picks: sim.stats.scheduler_picks,
                state_digest: state_digest(sim, shared),
            };
            let path = shared.config.checkpoint_path.as_ref().unwrap();
            match cp.write_to(path) {
                Ok(()) => sim.stats.checkpoints_written += 1,
                Err(e) => {
                    sim.failure = Some(Failure::Checkpoint(format!(
                        "cannot write checkpoint {}: {e}",
                        path.display()
                    )));
                    return false;
                }
            }
            if self.pending_resume.is_none()
                && self.resume_watermark.is_none_or(|w| cp.watermark > w)
            {
                self.fresh_written += 1;
                if self.preempt_budget.is_some_and(|b| self.fresh_written >= b) {
                    sim.failure = Some(Failure::Preempted {
                        at: cp.watermark,
                        checkpoints: self.fresh_written,
                    });
                    return false;
                }
            }
        }
        true
    }

    /// End-of-run check: a resume watermark the program never reached is a
    /// checkpoint error (the checkpoint belongs to a different program or
    /// a longer run).
    pub(crate) fn finish(&mut self, sim: &mut Sim) {
        if let Some(cp) = self.pending_resume.take() {
            sim.failure = Some(Failure::Checkpoint(format!(
                "resume watermark {} never reached (run ended at {})",
                cp.watermark, sim.max_vtime
            )));
        }
    }
}

/// Tiny FNV-1a-style 64-bit folder over little-endian `u64` words. Not
/// cryptographic — it only needs to make accidental divergence visible.
#[derive(Clone, Copy)]
pub(crate) struct Digest(u64);

impl Digest {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Digest(Self::OFFSET)
    }

    pub(crate) fn u64(&mut self, x: u64) -> &mut Self {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    pub(crate) fn str(&mut self, s: &str) -> &mut Self {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self.u64(s.len() as u64)
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of everything that determines the run's trajectory: sync
/// policy, seed, cost model, speeds, network parameters, runtime cost
/// knobs and the fault plan shape. Deliberately excludes observation-only
/// configuration (tracer, sanitize, watchdog, checkpoint/resume paths):
/// those may legitimately differ between the writing and the resuming run.
pub fn config_digest(config: &crate::EngineConfig) -> u64 {
    let mut d = Digest::new();
    d.str(&format!("{:?}", config.sync));
    // Where the retired pick policy (always lowest-vtime) used to fold.
    d.str("LowestVtime");
    d.u64(config.seed);
    d.str(&format!("{:?}", config.cost_model));
    d.str(&format!("{:?}", config.speeds));
    d.str(&format!("{:?}", config.net));
    d.u64(config.resume_cost.ticks());
    d.u64(config.max_live_activities as u64);
    d.u64(config.parallelism_sample_every);
    // Where the retired `fast_path` toggle (always on) used to fold: the
    // constant keeps every digest, serve dedup key and on-disk checkpoint
    // written before its removal valid. (`profile_picks` is observation-
    // only and deliberately excluded.)
    d.u64(1);
    match &config.fault {
        None => {
            d.str("fault:none");
        }
        Some(p) => {
            d.str("fault:plan");
            d.u64(u64::from(p.n_cores()));
            d.u64(p.epoch_count() as u64);
            d.u64(u64::from(p.has_message_faults()));
            d.u64(u64::from(p.has_core_faults()));
        }
    };
    d.finish()
}

/// Order-independent digest of all mutable machine state at a
/// scheduler-time instant: per-core clocks, exposed values and queues,
/// activity/birth counters, behavioral statistics, the network model and
/// whatever the runtime exposes via [`RuntimeHooks::state_digest`].
/// Wall-clock and observation-only counters are excluded — the sanitizer's
/// and the checkpoint bookkeeping's, so sanitized and plain runs digest
/// identically, and the host-work counters of the synchronization hot path
/// (`fast_path_advances`, `full_sync_checks`, `publish_sweeps`,
/// `floor_recomputes`, `shadow_evals`, `shadow_uncaps`), which say how the
/// engine got to a state, not what the state is.
///
/// [`RuntimeHooks::state_digest`]: crate::RuntimeHooks::state_digest
pub(crate) fn state_digest(sim: &Sim, shared: &Shared) -> u64 {
    let mut d = Digest::new();
    d.u64(sim.cores.len() as u64);
    for i in 0..sim.cores.len() {
        // Field order is part of the on-disk contract. Arena slot indices
        // never enter the digest — only lengths, times and ids — so pooled
        // storage and slot reuse are invisible here.
        let c = simany_topology::CoreId(i as u32);
        d.u64(sim.cores.vtime[i].ticks());
        d.u64(crate::sync::exposed(sim, shared, i).ticks());
        d.u64(sim.cores.busy[i].ticks());
        d.u64(u64::from(sim.cores.lock_depth[i]));
        d.u64(u64::from(sim.cores.queue_hint[i]));
        d.u64(u64::from(sim.cores.resident[i]));
        d.u64(sim.cores.inboxes.len(c) as u64);
        d.u64(
            sim.cores
                .inboxes
                .earliest_arrival(c)
                .map_or(0, |a| a.ticks()),
        );
        d.u64(sim.cores.birth_count(i) as u64);
        d.u64(sim.cores.min_birth(i).map_or(0, |b| b.ticks()));
    }
    d.u64(sim.live_activities as u64);
    d.u64(sim.next_act);
    d.u64(sim.next_birth);
    d.u64(sim.max_vtime.ticks());
    let s = &sim.stats;
    for x in [
        s.activities_started,
        s.activity_resumes,
        s.stall_events,
        s.late_messages,
        s.on_time_messages,
        s.late_by_total.ticks(),
        s.msg_retries,
        s.core_failures,
        s.link_faults,
        s.partitions_observed,
        s.max_neighbor_drift.ticks(),
        s.parallelism_samples.len() as u64,
        s.parallelism_samples.iter().map(|&x| u64::from(x)).sum(),
    ] {
        d.u64(x);
    }
    d.u64(sim.net.state_digest());
    d.u64(shared.hooks.state_digest());
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let dir = std::env::temp_dir().join("simany-checkpoint-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.txt");
        let cp = Checkpoint {
            config_digest: 0xdead_beef_0123_4567,
            watermark: VirtualTime::from_cycles(12_345),
            picks: 678,
            state_digest: 0x0fed_cba9_8765_4321,
        };
        cp.write_to(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), cp);
    }

    /// Checkpoints, serve dedup keys and ledger `sim_digest`s written
    /// before the pick policy was retired must stay valid: the digests of
    /// the default configuration as PR 16 computed them.
    #[test]
    fn default_config_digest_is_unchanged_since_pr16() {
        let config = crate::EngineConfig::default();
        assert_eq!(config_digest(&config), 0xe367_8dc7_d756_71c4);
    }

    #[test]
    fn rejects_bad_magic() {
        let dir = std::env::temp_dir().join("simany-checkpoint-badmagic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.txt");
        std::fs::write(&path, "not a checkpoint\n").unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(err.contains("unsupported checkpoint format"), "{err}");
    }

    #[test]
    fn rejects_a_version_1_file() {
        // A v1 state digest covered stored shadow words and host-work
        // counters; it cannot verify here, so the file is refused up front
        // with the same typed error as any unknown format.
        let dir = std::env::temp_dir().join("simany-checkpoint-v1");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.txt");
        std::fs::write(
            &path,
            "simany-checkpoint v1\nconfig 0000000000000001\nwatermark 10\npicks 3\n\
             state 0000000000000002\n",
        )
        .unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(err.contains("unsupported checkpoint format"), "{err}");
        assert!(err.contains("simany-checkpoint v2"), "{err}");
    }

    #[test]
    fn config_digest_ignores_observation_knobs() {
        let base = crate::EngineConfig::default();
        let observed = crate::EngineConfig::default()
            .with_sanitize(true)
            .with_watchdog_picks(Some(42))
            .with_checkpoint(VDuration::from_cycles(1000), "/tmp/cp.txt");
        assert_eq!(config_digest(&base), config_digest(&observed));
        let other_seed = crate::EngineConfig::default().with_seed(99);
        assert_ne!(config_digest(&base), config_digest(&other_seed));
    }
}
