//! Simulation statistics and instrumentation counters.

use simany_net::NetStats;
use simany_time::{VDuration, VirtualTime};
use simany_topology::CoreId;

/// How many of the busiest cores [`BusySummary`] keeps by id.
const TOP_BUSY: usize = 8;

/// Streaming summary of per-core busy virtual time.
///
/// Replaces the old `Vec<VDuration>` (one entry per core): at a million
/// cores a dense vector is 8 MB of teardown allocation that every consumer
/// then re-reduces. The engine instead folds each core's busy time into
/// this accumulator in one pass — O(1) memory, with the top-`TOP_BUSY`
/// busiest cores retained by id for diagnostics. Deterministic: cores are
/// recorded in index order and ties prefer the lower core id.
#[derive(Clone, Debug, Default)]
pub struct BusySummary {
    /// Cores recorded.
    pub n_cores: u64,
    /// Cores with nonzero busy time (work actually landed there).
    pub active: u64,
    /// Sum of busy time over all cores.
    pub total: VDuration,
    /// Largest single-core busy time.
    pub max: VDuration,
    /// The busiest cores as `(core, busy)`, descending; ties keep the
    /// lower core id first. At most `TOP_BUSY` entries.
    pub top: Vec<(CoreId, VDuration)>,
}

impl BusySummary {
    /// Fold one core's busy time into the summary. Call in core-index
    /// order for a deterministic `top` list.
    pub fn record(&mut self, core: CoreId, busy: VDuration) {
        self.n_cores += 1;
        if busy.ticks() > 0 {
            self.active += 1;
        }
        self.total += busy;
        if busy > self.max {
            self.max = busy;
        }
        if self.top.len() < TOP_BUSY || busy > self.top.last().unwrap().1 {
            // Insert before the first strictly-smaller entry: equal-busy
            // cores stay in record (= core id) order.
            let at = self.top.partition_point(|&(_, b)| b >= busy);
            self.top.insert(at, (core, busy));
            self.top.truncate(TOP_BUSY);
        }
    }

    /// Mean busy time per recorded core, in ticks (0 when empty).
    pub fn mean_ticks(&self) -> f64 {
        if self.n_cores == 0 {
            return 0.0;
        }
        self.total.ticks() as f64 / self.n_cores as f64
    }
}

/// Counters accumulated during one simulation run.
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    /// Final virtual time: the largest clock any core reached (program
    /// completion time; the numerator/denominator of virtual speedups).
    pub final_vtime: VirtualTime,
    /// Number of activities (tasks) ever started.
    pub activities_started: u64,
    /// Number of simulated context switches (token handoffs to activities).
    pub activity_resumes: u64,
    /// Switches between the driver and a task body's userland context —
    /// two per start or resume of a body, to it and back (see
    /// `crate::coro`), so always `2 * activity_resumes`. Deterministic: a
    /// function of the pick sequence alone. Not part of any state digest.
    pub ctx_switches: u64,
    /// Context stacks ever mapped — the high-water mark of activities
    /// holding one at once (granted a first time and not yet returned). 1
    /// when no body ever suspends. Deterministic and undigested like
    /// [`Self::ctx_switches`].
    pub peak_stacks: usize,
    /// Host threads of the process when the pick loop ended (`Threads:` of
    /// `/proc/self/status`; 0 without procfs): 1 in a single-threaded
    /// embedder, however many bodies are suspended — the engine spawns no
    /// thread. A host observation, not a simulation result.
    pub os_threads: u64,
    /// Times a core stalled due to the synchronization policy.
    pub stall_events: u64,
    /// Messages processed after their virtual arrival time had already
    /// passed on the receiving core ("out-of-order" processing; the paper's
    /// accuracy-loss source, §II.A).
    pub late_messages: u64,
    /// Total virtual lateness of late messages (how far in the receiver's
    /// past their arrival stamps were).
    pub late_by_total: VDuration,
    /// Messages processed in order (arrival time >= receiver clock).
    pub on_time_messages: u64,
    /// Busy virtual time summary (time spent advancing, not waiting),
    /// streamed per core at teardown — no O(cores) vector.
    pub busy: BusySummary,
    /// Network statistics (messages, bytes, hops, link contention).
    pub net: NetStats,
    /// Wall-clock duration of the run.
    pub wall: std::time::Duration,
    /// Wall nanoseconds spent *building* the machine: topology, routing,
    /// core arrays and workload setup — everything before the
    /// first scheduler pick. Scale benchmarks divide per-event cost out of
    /// [`Self::run_ns`], not out of `wall`, so setup cost cannot
    /// masquerade as per-event cost.
    pub build_ns: u64,
    /// Wall nanoseconds spent inside the scheduler loop (the pick loop
    /// proper, excluding build and teardown).
    pub run_ns: u64,
    /// Ready-queue entries popped and discarded because their core was no
    /// longer runnable (lazy-deletion garbage of the pick heap).
    pub ready_stale_skipped: u64,
    /// Key updates applied to the incremental global-floor structure
    /// (zero under policies that do not allocate it).
    pub floor_key_updates: u64,
    /// Pick-loop phase profile (populated only when
    /// [`crate::EngineConfig::profile_picks`] is on): nanoseconds spent in
    /// floor maintenance / stall wakes.
    pub prof_floor_ns: u64,
    /// Profile: nanoseconds popping ready-queue entries (incl. stale
    /// skips).
    pub prof_pop_ns: u64,
    /// Profile: nanoseconds of scheduler bookkeeping (checkpoint observe,
    /// watchdog, sanitizer cadence, parallelism sampling).
    pub prof_overhead_ns: u64,
    /// Profile: nanoseconds executing the picked action (message
    /// processing, activity grants and task code, idle hooks, requeue).
    pub prof_action_ns: u64,
    /// Profile: nanoseconds inside `sync::publish` (shadow relaxation and
    /// stall rechecks included) — a share of whichever lap the publish ran
    /// under, mostly [`Self::prof_action_ns`].
    pub prof_publish_ns: u64,
    /// Largest observed instantaneous neighbor drift (ticks), for checking
    /// the spatial-synchronization bound.
    pub max_neighbor_drift: VDuration,
    /// Largest number of live activities at any point.
    pub peak_live_activities: usize,
    /// Number of scheduler picks.
    pub scheduler_picks: u64,
    /// Timing annotations that advanced the clock inside the cached drift
    /// headroom: no publish sweep, no stall recheck, no floor work.
    pub fast_path_advances: u64,
    /// Timing annotations that went through the full synchronization path
    /// (publish + message drain + policy check).
    pub full_sync_checks: u64,
    /// Publish calls that changed what some core exposes — the publishing
    /// core's own value, or a capped shadow the risen front uncapped — and
    /// ran the propagation/recheck sweep. Stays flat while a core advances
    /// within its headroom — the observable proof that fast-path
    /// annotations do no sweep work (and no heap allocation). Host work,
    /// not simulated state: not part of any digest.
    pub publish_sweeps: u64,
    /// Shadow virtual times evaluated by `sync::publish` (the idle-region
    /// relaxation): `shadow_evals / publish_sweeps` is how far a publish
    /// ripples. It does not grow with the idle sea: a shadow at the cap
    /// `max_vtime + T` is stored as a marker and never re-evaluated for a
    /// rise of the front alone. Counted always; deterministic; not part of
    /// any digest.
    pub shadow_evals: u64,
    /// Uncap registrations the front overtook: capped idle cores
    /// re-evaluated because `max_vtime` passed their lowest concrete
    /// neighbor (each is also one of the `shadow_evals`). Counted always;
    /// deterministic; not part of any digest.
    pub shadow_uncaps: u64,
    /// Times the cached neighbor-floor minimum had to be recomputed from
    /// scratch (a neighbor that may have been the minimum rose).
    pub floor_recomputes: u64,
    /// The busiest directed links of the run — NoC hotspots —
    /// as `(src, dst, busy transmission time)`, descending.
    pub hot_links: Vec<(simany_topology::CoreId, simany_topology::CoreId, VDuration)>,
    /// Messages lost to the fault plan (dropped in flight, corrupted on
    /// arrival, or unroutable across a partition).
    pub msgs_dropped: u64,
    /// Runtime-level send retries (timeout + exponential backoff).
    pub msg_retries: u64,
    /// Cores observed to have failed during the run.
    pub core_failures: u64,
    /// Link failure events announced (LinkDown traces).
    pub link_faults: u64,
    /// Epoch transitions that left the machine partitioned.
    pub partitions_observed: u64,
    /// Invariant checks the online sanitizer performed (0 unless
    /// `EngineConfig::sanitize` is on).
    pub sanitizer_checks: u64,
    /// Invariant violations the sanitizer detected. Any nonzero value is
    /// an engine bug (or deliberately injected corruption in tests).
    pub sanitizer_violations: u64,
    /// Largest observed global drift — the spread between the fastest
    /// working core and the global floor — recorded by the sanitizer for
    /// checking the `diameter x T` bound. Zero unless `sanitize` is on.
    pub max_global_drift: VDuration,
    /// Verification checkpoints written (see `crate::checkpoint`).
    pub checkpoints_written: u64,
    /// Checkpoint digests verified against a resumed run's watermark.
    pub checkpoint_verifications: u64,
    // `benchmark/src/workloads.rs:477-481` still reads the next five
    // fields; ROADMAP's parked item "Deleting the names the frozen
    // benchmark uses" deletes that code, and these with it.
    /// Always 0: the engine runs no epochs.
    pub parallel_epochs: u64,
    /// Always 0 (see [`Self::parallel_epochs`]).
    pub phase_a_wall_ns: u64,
    /// Always 0 (see [`Self::parallel_epochs`]).
    pub phase_b_wall_ns: u64,
    /// Always 0 (see [`Self::parallel_epochs`]).
    pub serial_tail_ns: u64,
    /// Always 0 (see [`Self::parallel_epochs`]).
    pub frame_parks: u64,
}

impl SimStats {
    /// Core utilization: mean busy time divided by final time (0..1).
    pub fn utilization(&self) -> f64 {
        if self.final_vtime.ticks() == 0 || self.busy.n_cores == 0 {
            return 0.0;
        }
        self.busy.mean_ticks() / self.final_vtime.ticks() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_computation() {
        let mut busy = BusySummary::default();
        busy.record(CoreId(0), VDuration::from_cycles(50));
        busy.record(CoreId(1), VDuration::from_cycles(100));
        let s = SimStats {
            final_vtime: VirtualTime::from_cycles(100),
            busy,
            ..Default::default()
        };
        assert!((s.utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn busy_summary_streams_top_cores() {
        let mut b = BusySummary::default();
        for i in 0..20u32 {
            // Busy times 0, 10, 20, ..., with a tie between cores 3 and 13.
            let cycles = if i == 13 { 30 } else { u64::from(i) * 10 };
            b.record(CoreId(i), VDuration::from_cycles(cycles));
        }
        assert_eq!(b.n_cores, 20);
        assert_eq!(b.max, VDuration::from_cycles(190));
        assert_eq!(b.top.len(), 8);
        assert_eq!(b.top[0], (CoreId(19), VDuration::from_cycles(190)));
        // Descending, and the tie at 30 cycles keeps the lower id first
        // (core 3 recorded before core 13).
        for w in b.top.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        let mut tie = BusySummary::default();
        for i in 0..4u32 {
            tie.record(CoreId(i), VDuration::from_cycles(5));
        }
        assert_eq!(tie.top[0].0, CoreId(0));
        assert_eq!(tie.top[3].0, CoreId(3));
    }
}
