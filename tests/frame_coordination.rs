//! Frame-coordinator edge shapes.
//!
//! The parallel engine's lock-free frame protocol (see
//! `crates/core/src/frame.rs`) must be a pure function of (program,
//! config, seed) in every degenerate geometry: more worker threads than
//! tiles, tiles far wider than the worker pool, a single tile holding the
//! whole machine, and park/wake storms that pin workers mid-epoch. Each
//! shape is exercised as a repeated-run bit-identity test per
//! synchronization policy, plus a property test that phase B's delivery
//! order, and therefore every observable counter, is independent of worker
//! interleaving. Each run is also compared against a sanitized run: the
//! sanitizer observes phase B without changing anything, so the two must
//! agree.

use proptest::prelude::*;
use simany::core::{
    simulate, CoreId, EngineConfig, Envelope, ExecCtx, Ops, Payload, RuntimeHooks, SimStats,
    SyncPolicy, VDuration,
};
use simany::kernels::{kernel_by_name, Scale};
use simany::presets;
use simany::topology::{mesh_2d, partition_bfs, ring, Topology};
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
/// cross-tile destinations exercise the lane outbox and phase-B routing.
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
/// cycles: larger epochs). Repeated runs must be bit-identical per policy,
/// a sanitized run must match, every send must cross tiles and reach the
/// network, and the storm must actually stall something.
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
    // Every planned send crosses the 4-tile partition. Sends issued under
    // an epoch only reach the network, and their receivers, through phase
    // B's routing walk, so a run that routes and delivers all of them has
    // exercised it.
    let part = partition_bfs(&mesh_2d(16), 4);
    let mut cross_tile = 0u64;
    for (c, plan) in plans.iter().enumerate() {
        for &(_, dst, send) in plan {
            let src = CoreId(c as u32);
            cross_tile += u64::from(send && part.tile_of(src) != part.tile_of(CoreId(dst)));
        }
    }
    assert_eq!(cross_tile, 16 * 12, "storm plan must be all cross-tile");
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
            // The sanitizer only observes: a sanitized run must match.
            let sanitized = run_plans(mesh_2d(16), config.with_sanitize(true), plans.clone());
            assert_eq!(
                Fingerprint::of(&a),
                Fingerprint::of(&sanitized),
                "policy {name}, window {window}: plain and sanitized runs diverged"
            );
            assert_eq!(
                sanitized.sanitizer_violations, 0,
                "policy {name}: sanitizer"
            );
            // Without this the comparisons here and in
            // `determinism.rs::parallel_sanitizer_is_quiet` could pass
            // without phase B ever routing a cross-tile message.
            assert_eq!(
                (a.net.messages, a.late_messages + a.on_time_messages),
                (cross_tile, cross_tile),
                "policy {name}, window {window}: storm lost cross-tile messages"
            );
            any_stalled |= a.stall_events > 0;
        }
    }
    assert!(any_stalled, "storm never stalled under any policy");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Phase-B delivery order is independent of worker interleaving:
    /// across random topologies, thread counts, policies and message
    /// plans, repeated runs — whose worker schedules genuinely differ —
    /// and a sanitized run produce bit-identical outcomes.
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
        let a = run_plans(topo.clone(), config.clone(), plans.clone());
        let b = run_plans(topo.clone(), config.clone(), plans.clone());
        let sanitized = run_plans(topo, config.with_sanitize(true), plans);

        let fa = Fingerprint::of(&a);
        prop_assert_eq!(&fa, &Fingerprint::of(&b), "repeated runs diverged");
        prop_assert_eq!(
            fa,
            Fingerprint::of(&sanitized),
            "plain and sanitized runs diverged"
        );
    }
}
