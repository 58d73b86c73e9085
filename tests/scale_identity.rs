//! Bit-identity at scale: the pick-loop optimizations (incremental global
//! floor, bucketed stall wakes, the ready queue's in-order run beside its
//! 8-ary heap, the activity table's multiply hash, O(1) parallelism
//! sampling) change per-event *cost*, never event *order*. These tests run
//! big chiplet-mesh machines and compare their observable behavior with a
//! golden table recorded before those optimizations, and with a repeat run.
//!
//! Debug builds additionally cross-check the incremental floor against the
//! naive O(cores) sweep on every query (`debug_assert_eq!` in
//! `sync::global_floor`), so the BoundedSlack runs here double as an
//! engine-level equivalence test for the floor structure.

use simany::core::{
    CoreId, EngineConfig, Envelope, ExecCtx, Ops, RuntimeHooks, SimStats, SyncPolicy, VDuration,
};

/// Same one-task-per-core workload as the scale benchmark: every core gets
/// one queue hint and materializes one small activity lazily.
struct OneShot;
impl RuntimeHooks for OneShot {
    fn on_message(&self, _: &mut Ops<'_>, _: Envelope) {}
    fn on_idle(&self, ops: &mut Ops<'_>, c: CoreId) {
        ops.queue_hint_sub(c, 1);
        let step = 3 + u64::from(c.0 % 5);
        ops.start_activity(
            c,
            "scale",
            Box::new(()),
            Box::new(move |ctx: &mut ExecCtx| {
                for _ in 0..16 {
                    ctx.advance_cycles(step);
                }
            }),
        );
    }
    fn on_activity_end(&self, _: &mut Ops<'_>, _: CoreId, _: Box<dyn std::any::Any + Send>) {}
}

/// A `chips`×`chips` mesh of `side`×`side` chiplets, every core queued at
/// t = 0 in id order.
fn chiplet_run(chips: u32, side: u32, window: u64, sync: SyncPolicy) -> SimStats {
    let topo = simany::topology::chiplet_mesh(
        chips,
        chips,
        side,
        side,
        simany::topology::ChipletParams::default(),
    );
    let n = topo.n_cores();
    let mut config = EngineConfig::default()
        .with_seed(7)
        .with_drift_cycles(window);
    config.sync = sync;
    simany::core::simulate(topo, config, std::sync::Arc::new(OneShot), move |ops| {
        for c in 0..n {
            ops.queue_hint_add(CoreId(c), 1);
        }
    })
    .expect("chiplet run failed")
}

/// Both policies with `T` (or the slack window) of `window` cycles, in the
/// golden tables' row order.
fn policies(window: u64) -> [(&'static str, SyncPolicy); 2] {
    let w = VDuration::from_cycles(window);
    [
        ("spatial", SyncPolicy::Spatial { t: w }),
        ("bounded_slack", SyncPolicy::BoundedSlack { window: w }),
    ]
}

/// The counters any schedule divergence would show up in: final vtime,
/// picks, activities, stalls, fast-path advances, stale ready entries,
/// shadow evaluations and publish sweeps.
type Fingerprint = [u64; 8];

fn fingerprint(s: &SimStats) -> Fingerprint {
    [
        s.final_vtime.cycles(),
        s.scheduler_picks,
        s.activities_started,
        s.stall_events,
        s.fast_path_advances,
        s.ready_stale_skipped,
        s.shadow_evals,
        s.publish_sweeps,
    ]
}

/// Run one point under both policies, twice each: every core ran its task,
/// the repeat matches, and both match the golden row.
fn check(chips: u32, side: u32, window: u64, golden: [Fingerprint; 2]) {
    let cores = u64::from(chips * chips * side * side);
    for ((name, sync), want) in policies(window).into_iter().zip(golden) {
        let a = chiplet_run(chips, side, window, sync);
        let b = chiplet_run(chips, side, window, sync);
        assert_eq!(a.busy.active, cores, "{name}: a core never ran");
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{name}: repeated {cores}-core runs diverged"
        );
        assert_eq!(
            fingerprint(&a),
            want,
            "{name}: {cores}-core schedule moved off the golden row"
        );
    }
}

/// 4,096-core chiplet mesh (2×2 chiplets of 32×32), both policies.
#[test]
fn chiplet_bit_identity_4k() {
    check(2, 32, 64, GOLDEN_4K);
}

/// The 262,144-core point from the scale benchmark (8×8 chiplets of
/// 64×64), both policies.
///
/// The window is sized above the longest task (16×7 = 112 cycles) on
/// purpose: a core that stalls *mid-activity* keeps its body's stack, so a
/// stall-heavy window at this scale would hold ~262k mapped stacks at once
/// — past the host's mapping limit (`SimError::HostResources`).
/// Mid-activity stalling is covered at 4k above;
/// this point covers floor-key maintenance and pick-order identity at
/// scale. Expensive, so ignored by default; run with
/// `cargo test --release --test scale_identity -- --ignored`.
#[test]
#[ignore = "262k-core runs take minutes in debug builds"]
fn chiplet_bit_identity_262k() {
    check(8, 64, 128, GOLDEN_262K);
}

/// Recorded on the engine whose ready queue was a plain 8-ary heap and
/// whose activity table hashed with SipHash: one row per policy in
/// [`policies`]' order, fields in [`fingerprint`]'s order. The spatial
/// rows' last two fields (shadow evaluations, publish sweeps) were
/// re-recorded when publish windows folded each stall-free step's
/// publishes into one per core; the schedule columns did not move.
const GOLDEN_4K: [Fingerprint; 2] = [
    [112, 10649, 4096, 2457, 58983, 0, 31720, 19653],
    [112, 10649, 4096, 2457, 0, 0, 0, 65536],
];

const GOLDEN_262K: [Fingerprint; 2] = [
    [112, 524288, 262144, 0, 3932160, 0, 1828930, 524288],
    [112, 524288, 262144, 0, 0, 0, 0, 4194304],
];
