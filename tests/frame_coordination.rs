//! Frame-coordinator edge shapes.
//!
//! The parallel engine's lock-free frame protocol (see
//! `crates/core/src/frame.rs`) must be a pure function of (program,
//! config, seed) in every degenerate geometry: more worker threads than
//! tiles, tiles far wider than the worker pool, a single tile holding the
//! whole machine, and park/wake storms that pin workers mid-epoch. Each
//! shape is exercised as a repeated-run bit-identity test per
//! synchronization policy, plus a property test that phase-B sharding —
//! the destination-bucketed parallel replay of publishes and deliveries —
//! is transparent: delivery order, and therefore every observable
//! counter, is independent of worker interleaving. The serial phase-B walk
//! it is compared against is the one a sanitized run takes (the
//! sanitizer's delivery hooks are serial-only, and it observes without
//! changing anything).

use proptest::prelude::*;
use simany::core::{
    simulate, CoreId, EngineConfig, Envelope, ExecCtx, Ops, Payload, RuntimeHooks, SimStats,
    SyncPolicy, VDuration,
};
use simany::kernels::{kernel_by_name, Scale};
use simany::presets;
use simany::topology::{mesh_2d, ring, Topology};
use std::sync::Arc;

/// The counters a behavioral divergence would show up in. (Wall-clock
/// timers and the frame spin/park diagnostics are deliberately excluded:
/// they are racy by design and documented as such in `SimStats`.)
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    final_vtime_cycles: u64,
    stall_events: u64,
    late_messages: u64,
    on_time_messages: u64,
    scheduler_picks: u64,
    activities_started: u64,
    net_messages: u64,
    net_bytes: u64,
    parallel_epochs: u64,
    epoch_grants: u64,
    sharded_replays: u64,
}

impl Fingerprint {
    fn of(stats: &SimStats) -> Self {
        Fingerprint {
            final_vtime_cycles: stats.final_vtime.cycles(),
            stall_events: stats.stall_events,
            late_messages: stats.late_messages,
            on_time_messages: stats.on_time_messages,
            scheduler_picks: stats.scheduler_picks,
            activities_started: stats.activities_started,
            net_messages: stats.net.messages,
            net_bytes: stats.net.bytes,
            parallel_epochs: stats.parallel_epochs,
            epoch_grants: stats.epoch_grants,
            sharded_replays: stats.sharded_replays,
        }
    }
}

/// Every policy, windowed ones at `window` cycles.
fn policies(window: u64) -> Vec<(&'static str, SyncPolicy)> {
    let w = VDuration::from_cycles(window);
    vec![
        ("spatial", SyncPolicy::Spatial { t: w }),
        ("bounded_slack", SyncPolicy::BoundedSlack { window: w }),
        ("conservative", SyncPolicy::Conservative),
        ("unbounded", SyncPolicy::Unbounded),
    ]
}

/// Run Quicksort on an `n`-core mesh with the given policy and tweak.
fn run_kernel(
    n: u32,
    policy: SyncPolicy,
    tweak: impl FnOnce(&mut EngineConfig),
) -> (Fingerprint, SimStats) {
    let mut spec = presets::uniform_mesh_sm(n);
    spec.engine.sync = policy;
    tweak(&mut spec.engine);
    let kernel = kernel_by_name("Quicksort").unwrap();
    let res = kernel
        .run_sim(spec, Scale(0.1), 42)
        .expect("simulation failed");
    assert!(res.verified, "kernel output verification failed");
    let stats = res.out.stats;
    (Fingerprint::of(&stats), stats)
}

struct NoHooks;
impl RuntimeHooks for NoHooks {
    fn on_message(&self, _: &mut Ops<'_>, _: Envelope) {}
    fn on_idle(&self, _: &mut Ops<'_>, _: CoreId) {}
    fn on_activity_end(&self, _: &mut Ops<'_>, _: CoreId, _: Box<dyn std::any::Any + Send>) {}
}

/// Raw-engine run: each core's plan is (advance, destination, send?) —
/// cross-tile destinations exercise the outbox/replay machinery.
fn run_plans(topo: Topology, config: EngineConfig, plans: Vec<Vec<(u64, u32, bool)>>) -> SimStats {
    let n = topo.n_cores();
    simulate(topo, config, Arc::new(NoHooks), move |ops| {
        for (i, plan) in plans.into_iter().enumerate() {
            if plan.is_empty() {
                continue;
            }
            ops.start_activity(
                CoreId(i as u32),
                "plan",
                Box::new(()),
                Box::new(move |ctx: &mut ExecCtx| {
                    for (step, dst, do_send) in plan {
                        ctx.advance_cycles(step);
                        let dst = dst % n;
                        if do_send && dst != i as u32 {
                            ctx.send(CoreId(dst), 64, Payload::none());
                        }
                    }
                }),
            );
        }
    })
    .expect("simulation must complete")
}

/// More worker threads than tiles: an 8-thread run on a 4-core machine
/// clamps to 4 tiles, leaving spare workers parked on the frame gate for
/// the whole run. Repeated runs must be bit-identical per policy, and the
/// epoch machinery must actually engage.
#[test]
fn threads_exceed_tiles_is_deterministic() {
    for (name, policy) in policies(100) {
        let (a, stats) = run_kernel(4, policy, |cfg| cfg.threads = 8);
        let (b, _) = run_kernel(4, policy, |cfg| cfg.threads = 8);
        assert_eq!(a, b, "policy {name}: threads>tiles runs diverged");
        assert!(
            stats.parallel_epochs > 0,
            "policy {name}: 8-thread run on 4 cores never launched an epoch"
        );
    }
}

/// Tiles far wider than the worker pool: two 32-core tiles serviced by
/// two workers. Every frame's claimable set saturates the pool, and a
/// single park pins a worker — forcing the coordinator down the
/// spawn-to-cover path mid-run.
#[test]
fn wide_tiles_thin_pool_is_deterministic() {
    for (name, policy) in policies(100) {
        let (a, stats) = run_kernel(64, policy, |cfg| cfg.threads = 2);
        let (b, _) = run_kernel(64, policy, |cfg| cfg.threads = 2);
        assert_eq!(a, b, "policy {name}: wide-tile runs diverged");
        assert!(
            stats.parallel_epochs > 0,
            "policy {name}: 2-thread run on 64 cores never launched an epoch"
        );
    }
}

/// A single giant tile: a 1-core machine clamps any thread count to one
/// tile, so every frame is a solo grant and the cursor never has a second
/// entry to race on.
#[test]
fn single_giant_tile_is_deterministic() {
    for (name, policy) in policies(100) {
        let (a, _) = run_kernel(1, policy, |cfg| cfg.threads = 4);
        let (b, _) = run_kernel(1, policy, |cfg| cfg.threads = 4);
        assert_eq!(a, b, "policy {name}: single-tile runs diverged");
        // One tile admits no concurrency, so the outcome must also match
        // the sequential engine bit for bit.
        let (seq, _) = run_kernel(1, policy, |_| {});
        assert_eq!(
            Fingerprint {
                parallel_epochs: a.parallel_epochs,
                epoch_grants: a.epoch_grants,
                sharded_replays: a.sharded_replays,
                ..seq
            },
            a,
            "policy {name}: single-tile run diverged from sequential"
        );
    }
}

/// Cross-tile park/wake storm: dense cross-tile message traffic under a
/// tight drift window (10 cycles: activities park mid-epoch, pinning their
/// workers, and are woken by other tiles' publishes) and a looser one (100
/// cycles: epochs grow large enough for phase B to replay as a parallel
/// frame). Repeated runs must be bit-identical per policy, the sharded
/// replay must match the serial walk, and the storm must actually stall
/// something and shard something.
#[test]
fn cross_tile_park_wake_storm_is_deterministic() {
    // Every core hammers its antipodal core on a 16-core mesh — all
    // traffic crosses the 4-tile partition.
    let plans: Vec<Vec<(u64, u32, bool)>> = (0..16u32)
        .map(|c| {
            (0..24)
                .map(|k| (3 + u64::from(c % 5), (c + 8) % 16, k % 2 == 0))
                .collect()
        })
        .collect();
    let mut any_stalled = false;
    for window in [10, 100] {
        for (name, policy) in policies(window) {
            let mut config = EngineConfig::default().with_seed(7).with_threads(4);
            config.sync = policy;
            let a = run_plans(mesh_2d(16), config.clone(), plans.clone());
            let b = run_plans(mesh_2d(16), config.clone(), plans.clone());
            assert_eq!(
                Fingerprint::of(&a),
                Fingerprint::of(&b),
                "policy {name}, window {window}: park/wake storm runs diverged"
            );
            assert!(a.parallel_epochs > 0, "policy {name}: storm ran no epochs");
            // A sanitized run replays phase B on the serial walk;
            // everything but the count of sharded replays must match.
            let serial = run_plans(mesh_2d(16), config.with_sanitize(true), plans.clone());
            assert_eq!(
                Fingerprint {
                    sharded_replays: 0,
                    ..Fingerprint::of(&a)
                },
                Fingerprint::of(&serial),
                "policy {name}, window {window}: sharded and serial phase B diverged"
            );
            assert_eq!(serial.sanitizer_violations, 0, "policy {name}: sanitizer");
            any_stalled |= a.stall_events > 0;
            // Without this the sharded-vs-serial comparisons here and in
            // `determinism.rs::parallel_sanitizer_is_quiet` could pass
            // vacuously.
            if window == 100 && name == "spatial" {
                assert!(
                    a.sharded_replays > 0,
                    "storm never launched a sharded replay"
                );
            }
        }
    }
    assert!(any_stalled, "storm never stalled under any policy");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Phase-B delivery order is independent of worker interleaving:
    /// across random topologies, thread counts, policies and message
    /// plans, the sharded replay (destination-bucketed, replayed with a
    /// stable (source-tile, sequence) order) and the serial walk (taken by
    /// a sanitized run) produce bit-identical outcomes — and so do
    /// repeated sharded runs, whose worker schedules genuinely differ
    /// between runs.
    #[test]
    fn phase_b_order_is_interleaving_independent(
        n in 4u32..14,
        use_ring in any::<bool>(),
        threads in 2u32..6,
        which_policy in 0usize..4,
        seed in 0u64..1000,
        plans in prop::collection::vec(
            prop::collection::vec((1u64..30, 0u32..14, any::<bool>()), 1..16), 2..14),
    ) {
        let topo = if use_ring { ring(n) } else { mesh_2d(n) };
        let w = VDuration::from_cycles(40);
        let policy = [
            SyncPolicy::Spatial { t: w },
            SyncPolicy::BoundedSlack { window: w },
            SyncPolicy::Conservative,
            SyncPolicy::Unbounded,
        ][which_policy];
        let mut plans = plans;
        plans.truncate(n as usize);

        let mut config = EngineConfig::default().with_seed(seed).with_threads(threads);
        config.sync = policy;
        let sharded_a = run_plans(topo.clone(), config.clone(), plans.clone());
        let sharded_b = run_plans(topo.clone(), config.clone(), plans.clone());
        let serial = run_plans(topo, config.with_sanitize(true), plans);

        let fa = Fingerprint::of(&sharded_a);
        let fb = Fingerprint::of(&sharded_b);
        prop_assert_eq!(&fa, &fb, "repeated sharded runs diverged");
        prop_assert_eq!(
            Fingerprint { sharded_replays: 0, ..fa },
            Fingerprint::of(&serial),
            "sharded and serial phase B diverged"
        );
    }
}
