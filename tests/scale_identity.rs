//! Bit-identity at scale: the pick-loop optimizations (incremental global
//! floor, bucketed stall wakes, 8-ary ready heap, O(1) parallelism
//! sampling) change per-event *cost*, never event *order*. These tests
//! repeat big chiplet-mesh runs and demand identical observable behavior.
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

fn chiplet_run(chips: u32, side: u32, sync: SyncPolicy) -> SimStats {
    let topo = simany::topology::chiplet_mesh(
        chips,
        chips,
        side,
        side,
        simany::topology::ChipletParams::default(),
    );
    let n = topo.n_cores();
    let mut config = EngineConfig::default().with_seed(7).with_drift_cycles(64);
    config.sync = sync;
    chiplet_run_config(topo, n, config)
}

fn chiplet_run_config(topo: simany::topology::Topology, n: u32, config: EngineConfig) -> SimStats {
    simany::core::simulate(topo, config, std::sync::Arc::new(OneShot), move |ops| {
        for c in 0..n {
            ops.queue_hint_add(CoreId(c), 1);
        }
    })
    .expect("chiplet run failed")
}

/// The counters any schedule divergence would show up in.
fn fingerprint(s: &SimStats) -> (u64, u64, u64, u64, u64, u64) {
    (
        s.final_vtime.cycles(),
        s.scheduler_picks,
        s.activities_started,
        s.stall_events,
        s.fast_path_advances,
        s.ready_stale_skipped,
    )
}

fn policies() -> Vec<(&'static str, SyncPolicy)> {
    vec![
        (
            "spatial",
            SyncPolicy::Spatial {
                t: VDuration::from_cycles(64),
            },
        ),
        (
            "bounded_slack",
            SyncPolicy::BoundedSlack {
                window: VDuration::from_cycles(64),
            },
        ),
    ]
}

/// 4,096-core chiplet mesh (2×2 chiplets of 32×32), both policies, two
/// runs each: identical fingerprints, and every core ran its task.
#[test]
fn chiplet_bit_identity_4k() {
    for (name, sync) in policies() {
        let a = chiplet_run(2, 32, sync);
        let b = chiplet_run(2, 32, sync);
        assert_eq!(a.busy.active, 4096, "{name}: a core never ran");
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{name}: repeated 4k-core runs diverged"
        );
    }
}

/// The 262,144-core point from the scale benchmark (8×8 chiplets of
/// 64×64), both policies, two runs each.
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
    let run = |sync: SyncPolicy| {
        let topo = simany::topology::chiplet_mesh(
            8,
            8,
            64,
            64,
            simany::topology::ChipletParams::default(),
        );
        let n = topo.n_cores();
        let mut config = EngineConfig::default().with_seed(7).with_drift_cycles(128);
        config.sync = sync;
        chiplet_run_config(topo, n, config)
    };
    let policies = vec![
        (
            "spatial",
            SyncPolicy::Spatial {
                t: VDuration::from_cycles(128),
            },
        ),
        (
            "bounded_slack",
            SyncPolicy::BoundedSlack {
                window: VDuration::from_cycles(128),
            },
        ),
    ];
    for (name, sync) in policies {
        let a = run(sync);
        let b = run(sync);
        assert_eq!(a.busy.active, 262_144, "{name}: a core never ran");
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{name}: repeated 262k-core runs diverged"
        );
    }
}
