//! The paper's mechanism illustrations (Figs. 1–4) as executable tests.

use simany::core::hooks::NullHooks;
use simany::core::{simulate, CoreId, EngineConfig, ExecCtx, VDuration};
use simany::prelude::*;
use simany::topology::graph::{DEFAULT_LINK_BANDWIDTH, DEFAULT_LINK_LATENCY};
use simany::topology::Topology;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A path topology 0 - 1 - ... - (n-1).
fn path(n: u32) -> Topology {
    Topology::generate(n, |links| {
        for i in 1..n {
            links.connect(
                CoreId(i - 1),
                CoreId(i),
                DEFAULT_LINK_LATENCY,
                DEFAULT_LINK_BANDWIDTH,
            );
        }
    })
}

/// Fig. 1 — "an active core that is making progress gradually wakes up the
/// two cores that were waiting for it": a slow leftmost core throttles a
/// chain of fast ones; everyone finishes, and fast cores stall while the
/// slow one never does.
#[test]
fn fig1_wakeup_chain() {
    let stats = simulate(
        path(3),
        EngineConfig::default().with_drift_cycles(20),
        Arc::new(NullHooks),
        |ops| {
            // Left core: slow, fine-grained.
            ops.start_activity(
                CoreId(0),
                "slow",
                Box::new(()),
                Box::new(|ctx: &mut ExecCtx| {
                    for _ in 0..200 {
                        ctx.advance_cycles(5);
                    }
                }),
            );
            // The two to its right: fast.
            for c in [1u32, 2] {
                ops.start_activity(
                    CoreId(c),
                    "fast",
                    Box::new(()),
                    Box::new(|ctx: &mut ExecCtx| {
                        for _ in 0..100 {
                            ctx.advance_cycles(10);
                        }
                    }),
                );
            }
        },
    )
    .unwrap();
    assert_eq!(stats.final_vtime.cycles(), 1000);
    assert!(stats.stall_events > 10, "fast cores must repeatedly wait");
    // Local drift bounded by T + one step.
    assert!(stats.max_neighbor_drift <= VDuration::from_cycles(30));
}

/// Fig. 2 — "non-connected sets of active cores": two workers at the far
/// ends of a path of idle cores. Shadow virtual times relay the drift
/// window through the idle middle, so the ends throttle each other to
/// within `diameter × T` (checked while running).
#[test]
fn fig2_non_connected_sets_stay_coupled() {
    let n = 6u32;
    let t_cycles = 50u64;
    let max_seen = Arc::new(AtomicU64::new(0));
    let max_seen2 = Arc::clone(&max_seen);
    let worker = |other: u32, max_seen: Arc<AtomicU64>| {
        move |ctx: &mut ExecCtx| {
            let my_core = ctx.core();
            for _ in 0..300 {
                ctx.advance_cycles(7);
                let (me, them) = ctx.with_ops(|ops| (ops.now(my_core), ops.now(CoreId(other))));
                let drift = me.ticks().abs_diff(them.ticks());
                max_seen.fetch_max(drift, Ordering::SeqCst);
            }
        }
    };
    simulate(
        path(n),
        EngineConfig::default().with_drift_cycles(t_cycles),
        Arc::new(NullHooks),
        |ops| {
            ops.start_activity(
                CoreId(0),
                "left",
                Box::new(()),
                Box::new(worker(n - 1, max_seen2.clone())),
            );
            ops.start_activity(
                CoreId(n - 1),
                "right",
                Box::new(()),
                Box::new(worker(0, max_seen2)),
            );
        },
    )
    .unwrap();
    // Global bound: diameter × T (+ one step of slack per the check
    // granularity). Diameter of the 6-path = 5 hops.
    let bound = VDuration::from_cycles(u64::from(n - 1) * t_cycles + 7).ticks();
    let seen = max_seen.load(Ordering::SeqCst);
    assert!(
        seen <= bound,
        "end-to-end drift {seen} ticks exceeds diameter×T bound {bound}"
    );
    // And the coupling is real: without it the drift could reach the whole
    // runtime (~2100 cycles = 4200 ticks).
    assert!(seen > 0);
}

/// Fig. 3 — "time drift of dynamically created tasks": a parent spawns a
/// task and keeps running; the birth-time ledger must keep the parent from
/// running more than T ahead of the unborn task (checked at the runtime
/// level: the spawned task's start time stays near the parent's clock at
/// spawn).
#[test]
fn fig3_spawned_task_birth_bounds_parent() {
    let child_start = Arc::new(AtomicU64::new(0));
    let parent_at_spawn = Arc::new(AtomicU64::new(0));
    let cs = child_start.clone();
    let ps = parent_at_spawn.clone();
    run_program(simany::presets::uniform_mesh_sm(4), move |tc| {
        let g = tc.make_group();
        tc.work(20);
        ps.store(tc.now().cycles(), Ordering::SeqCst);
        let cs2 = cs.clone();
        tc.spawn_or_run(g, move |tc: &mut TaskCtx<'_>| {
            cs2.store(tc.now().cycles(), Ordering::SeqCst);
            tc.work(10);
        });
        // Parent rushes ahead.
        for _ in 0..100 {
            tc.work(20);
        }
        tc.join(g);
    })
    .unwrap();
    let spawn_t = parent_at_spawn.load(Ordering::SeqCst);
    let start_t = child_start.load(Ordering::SeqCst);
    assert!(
        start_t >= spawn_t,
        "child started before it was spawned: {start_t} < {spawn_t}"
    );
    // The child lands within roughly T (100) + protocol costs of its
    // birth; without the ledger the parent could have dragged the whole
    // neighborhood 2000 cycles ahead first.
    assert!(
        start_t <= spawn_t + 200,
        "child start {start_t} drifted too far from spawn time {spawn_t}"
    );
}

/// Fig. 4 — "deadlock between two tasks competing for a lock": the holder
/// is suspended by spatial synchronization beyond T while a far-behind
/// task wants the same lock. The waiver lets the holder run to its release
/// and both finish.
#[test]
fn fig4_lock_holder_waiver_prevents_deadlock() {
    let finished = Arc::new(AtomicU64::new(0));
    let f2 = finished.clone();
    run_program(simany::presets::uniform_mesh_sm(4), move |tc| {
        let lock = tc.make_lock();
        let g = tc.make_group();
        // Holder: grabs the lock and runs far past T inside the critical
        // section (fine-grained, so only the waiver can let it proceed).
        let fa = f2.clone();
        tc.spawn_or_run(g, move |tc: &mut TaskCtx<'_>| {
            tc.lock(lock);
            for _ in 0..100 {
                tc.work(10); // 1000 cycles >> T=100
            }
            tc.unlock(lock);
            fa.fetch_add(1, Ordering::SeqCst);
        });
        // Late competitor: dawdles, then wants the lock.
        let fb = f2.clone();
        tc.spawn_or_run(g, move |tc: &mut TaskCtx<'_>| {
            tc.work(22);
            tc.lock(lock);
            tc.work(10);
            tc.unlock(lock);
            fb.fetch_add(1, Ordering::SeqCst);
        });
        tc.join(g);
    })
    .unwrap();
    assert_eq!(finished.load(Ordering::SeqCst), 2);
}
