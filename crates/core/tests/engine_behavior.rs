#![allow(clippy::field_reassign_with_default)]

//! Engine-level behavioral tests: run-token protocol, spatial
//! synchronization (stall/wake, shadow time, birth ledger, lock waiver),
//! blocking/waking, message timing, failure paths and determinism.

use simany_core::{
    simulate, BlockCost, CoreId, EngineConfig, Envelope, ExecCtx, Ops, Payload, RuntimeHooks,
    SyncPolicy, VDuration, VirtualTime,
};
use simany_topology::{mesh_2d, ring, Topology};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Hooks that understand two message payloads:
/// * `WakeOrder(aid)` — wake the given activity at the message arrival
///   time;
/// * any `u64` — advance the receiving core by that many cycles.
struct TestHooks;

struct WakeOrder(simany_core::ActivityId);

impl RuntimeHooks for TestHooks {
    fn on_message(&self, ops: &mut Ops<'_>, mut env: Envelope) {
        if env.payload.downcast_ref::<WakeOrder>().is_some() {
            let WakeOrder(aid) = env.payload.take::<WakeOrder>();
            let at = ops.now(env.dst);
            ops.wake(aid, at);
        } else if env.payload.downcast_ref::<u64>().is_some() {
            let cycles = env.payload.take::<u64>();
            ops.advance_core(env.dst, cycles);
        }
    }
    fn on_idle(&self, _ops: &mut Ops<'_>, _core: CoreId) {}
    fn on_activity_end(
        &self,
        _ops: &mut Ops<'_>,
        _core: CoreId,
        _meta: Box<dyn std::any::Any + Send>,
    ) {
    }
}

/// Two cores and the one connection between them.
fn pair() -> Topology {
    ring(2)
}

type TestTasks = Vec<(u32, Box<dyn FnOnce(&mut ExecCtx)>)>;

fn run_with(topo: Topology, config: EngineConfig, tasks: TestTasks) -> simany_core::SimStats {
    simulate(topo, config, Arc::new(TestHooks), move |ops| {
        for (core, job) in tasks {
            ops.start_activity(CoreId(core), "test", Box::new(()), job);
        }
    })
    .expect("simulation failed")
}

#[test]
fn single_core_advance() {
    let topo = Topology::new(1);
    let stats = run_with(
        topo,
        EngineConfig::default(),
        vec![(0, Box::new(|ctx: &mut ExecCtx| ctx.advance_cycles(123)))],
    );
    assert_eq!(stats.final_vtime, VirtualTime::from_cycles(123));
    assert_eq!(stats.activities_started, 1);
    assert_eq!(stats.stall_events, 0);
}

#[test]
fn lone_worker_never_stalls_thanks_to_shadow_time() {
    // Only core 0 works; all the others are idle. Shadow virtual time must
    // relay the drift window through the idle region so core 0 free-runs.
    let stats = run_with(
        mesh_2d(16),
        EngineConfig::default().with_drift_cycles(100),
        vec![(
            0,
            Box::new(|ctx: &mut ExecCtx| {
                for _ in 0..100 {
                    ctx.advance_cycles(50);
                }
            }),
        )],
    );
    assert_eq!(stats.final_vtime, VirtualTime::from_cycles(5000));
    assert_eq!(stats.stall_events, 0);
}

#[test]
fn two_workers_respect_drift_bound() {
    // Core 0 advances in large steps, core 1 in small steps; spatial sync
    // must interleave them so neither runs away.
    let t = 100u64;
    let step0 = 40u64;
    let stats = run_with(
        pair(),
        EngineConfig::default().with_drift_cycles(t),
        vec![
            (
                0,
                Box::new(move |ctx: &mut ExecCtx| {
                    for _ in 0..250 {
                        ctx.advance_cycles(step0);
                    }
                }),
            ),
            (
                1,
                Box::new(|ctx: &mut ExecCtx| {
                    for _ in 0..1000 {
                        ctx.advance_cycles(10);
                    }
                }),
            ),
        ],
    );
    assert_eq!(stats.final_vtime, VirtualTime::from_cycles(10_000));
    assert!(
        stats.stall_events > 0,
        "drift control should have stalled someone"
    );
    // Instantaneous drift can overshoot by at most one advance step.
    assert!(
        stats.max_neighbor_drift <= VDuration::from_cycles(t + step0),
        "observed drift {} exceeds T + step",
        stats.max_neighbor_drift
    );
}

#[test]
fn unbounded_policy_never_stalls() {
    let mut config = EngineConfig::default();
    config.sync = SyncPolicy::Unbounded;
    let stats = run_with(
        pair(),
        config,
        vec![
            (
                0,
                Box::new(|ctx: &mut ExecCtx| {
                    for _ in 0..100 {
                        ctx.advance_cycles(100);
                    }
                }),
            ),
            (1, Box::new(|ctx: &mut ExecCtx| ctx.advance_cycles(1))),
        ],
    );
    assert_eq!(stats.stall_events, 0);
}

#[test]
fn conservative_policy_interleaves_exactly() {
    let mut config = EngineConfig::default();
    config.sync = SyncPolicy::Conservative;
    let stats = run_with(
        pair(),
        config,
        vec![
            (
                0,
                Box::new(|ctx: &mut ExecCtx| {
                    for _ in 0..50 {
                        ctx.advance_cycles(10);
                    }
                }),
            ),
            (
                1,
                Box::new(|ctx: &mut ExecCtx| {
                    for _ in 0..50 {
                        ctx.advance_cycles(10);
                    }
                }),
            ),
        ],
    );
    assert_eq!(stats.final_vtime, VirtualTime::from_cycles(500));
    assert!(stats.stall_events > 0);
    // Two bodies suspended at once need two stacks, and every grant is
    // one switch to its body and one back.
    assert_eq!(stats.peak_stacks, 2);
    assert!(stats.activity_resumes > 2, "the bodies did suspend");
    assert_eq!(stats.ctx_switches, 2 * stats.activity_resumes);
}

#[test]
fn bounded_slack_policy_runs_to_completion() {
    let mut config = EngineConfig::default();
    config.sync = SyncPolicy::BoundedSlack {
        window: VDuration::from_cycles(50),
    };
    let stats = run_with(
        ring(4),
        config,
        vec![
            (
                0,
                Box::new(|ctx: &mut ExecCtx| {
                    for _ in 0..100 {
                        ctx.advance_cycles(20);
                    }
                }),
            ),
            (
                2,
                Box::new(|ctx: &mut ExecCtx| {
                    for _ in 0..100 {
                        ctx.advance_cycles(5);
                    }
                }),
            ),
        ],
    );
    assert_eq!(stats.final_vtime, VirtualTime::from_cycles(2000));
    assert!(stats.stall_events > 0);
}

#[test]
fn lock_waiver_lets_holder_run_ahead() {
    // Core 0 enters a critical section and then advances far beyond T
    // without ever stalling; core 1 plods along slowly.
    let stats = run_with(
        pair(),
        EngineConfig::default().with_drift_cycles(100),
        vec![
            (
                0,
                Box::new(|ctx: &mut ExecCtx| {
                    ctx.critical_enter();
                    for _ in 0..100 {
                        ctx.advance_cycles(50); // 5000 cycles >> T
                    }
                    ctx.critical_exit();
                }),
            ),
            (
                1,
                Box::new(|ctx: &mut ExecCtx| {
                    for _ in 0..10 {
                        ctx.advance_cycles(1);
                    }
                }),
            ),
        ],
    );
    assert_eq!(stats.final_vtime, VirtualTime::from_cycles(5000));
}

#[test]
fn message_arrival_sets_receiver_clock() {
    // Core 0 sends "advance by 7" to core 1 after computing 100 cycles.
    // 64-byte message over one default link: 1 cy latency + 1 cy
    // serialization => arrival 102; handler advances 7 => 109.
    let stats = run_with(
        pair(),
        EngineConfig::default(),
        vec![(
            0,
            Box::new(|ctx: &mut ExecCtx| {
                ctx.advance_cycles(100);
                ctx.send(CoreId(1), 64, Payload::new(7u64)).unwrap();
            }),
        )],
    );
    assert_eq!(stats.final_vtime, VirtualTime::from_cycles(109));
    assert_eq!(stats.on_time_messages, 1);
    assert_eq!(stats.late_messages, 0);
}

#[test]
fn block_and_wake_across_cores() {
    // The activity on core 1 blocks; core 0 computes 500 cycles then sends
    // a wake order. Core 1 resumes at the arrival time + context switch.
    let resumed_at = Arc::new(AtomicU64::new(0));
    let resumed_at2 = resumed_at.clone();

    struct Hooks;
    impl RuntimeHooks for Hooks {
        fn on_message(&self, ops: &mut Ops<'_>, mut env: Envelope) {
            let aid = env.payload.take::<simany_core::ActivityId>();
            let at = ops.now(env.dst);
            ops.wake(aid, at);
        }
        fn on_idle(&self, _: &mut Ops<'_>, _: CoreId) {}
        fn on_activity_end(&self, _: &mut Ops<'_>, _: CoreId, _: Box<dyn std::any::Any + Send>) {}
    }

    let stats = simulate(
        pair(),
        EngineConfig::default(),
        Arc::new(Hooks),
        move |ops| {
            // Waiter on core 1: blocks immediately and records its resume time.
            let waiter = ops.start_activity(
                CoreId(1),
                "waiter",
                Box::new(()),
                Box::new(move |ctx: &mut ExecCtx| {
                    // Full suspension semantics: charge the context switch.
                    ctx.block_with("test-wake", true);
                    // Woken at the order's arrival, 502.
                    assert!(ctx.now() >= VirtualTime::from_cycles(502));
                    resumed_at2.store(ctx.now().ticks(), Ordering::SeqCst);
                }),
            );
            // Sender on core 0.
            ops.start_activity(
                CoreId(0),
                "sender",
                Box::new(()),
                Box::new(move |ctx: &mut ExecCtx| {
                    ctx.advance_cycles(500);
                    ctx.send(CoreId(1), 8, Payload::new(waiter)).unwrap();
                }),
            );
        },
    )
    .unwrap();

    // Arrival: 500 + 1 latency + 1 serialization = 502; resume adds the
    // 15-cycle context switch.
    let resumed = VirtualTime(resumed_at.load(Ordering::SeqCst));
    assert_eq!(resumed, VirtualTime::from_cycles(517));
    assert_eq!(stats.final_vtime, VirtualTime::from_cycles(517));
    // The waiter is suspended while the sender runs: two stacks.
    assert_eq!(stats.ctx_switches, 2 * stats.activity_resumes);
    assert_eq!(stats.peak_stacks, 2);
}

#[test]
fn stall_cleared_by_a_message_resumes_the_suspended_body() {
    // Core 0 records a birth, mails its discard order to core 1 and runs
    // past birth + T: it stalls with nobody else to run. The driver
    // processes the message (the handler discards the birth, which
    // rechecks the stall) and then picks core 0 again — the activity
    // continues where it suspended, on the one stack the run ever needs.
    struct LandHooks;
    impl RuntimeHooks for LandHooks {
        fn on_message(&self, ops: &mut Ops<'_>, mut env: Envelope) {
            let (core, id) = env.payload.take::<(CoreId, simany_core::BirthId)>();
            ops.discard_birth(core, id);
        }
        fn on_idle(&self, _: &mut Ops<'_>, _: CoreId) {}
        fn on_activity_end(&self, _: &mut Ops<'_>, _: CoreId, _: Box<dyn std::any::Any + Send>) {}
    }
    let stats = simulate(
        pair(),
        EngineConfig::default().with_drift_cycles(100),
        Arc::new(LandHooks),
        |ops| {
            ops.start_activity(
                CoreId(0),
                "parent",
                Box::new(()),
                Box::new(|ctx: &mut ExecCtx| {
                    ctx.advance_cycles(10);
                    let born = ctx.now();
                    let id = ctx.with_ops(|ops| ops.record_birth(CoreId(0), born));
                    ctx.send(CoreId(1), 8, Payload::new((CoreId(0), id)))
                        .unwrap();
                    ctx.advance_cycles(500);
                }),
            );
        },
    )
    .unwrap();
    assert_eq!(stats.final_vtime, VirtualTime::from_cycles(510));
    assert_eq!(stats.stall_events, 1);
    assert_eq!(stats.net.messages, 1);
    // First grant plus the resume after the stall.
    assert_eq!(stats.activity_resumes, 2);
    assert_eq!((stats.ctx_switches, stats.peak_stacks), (4, 1));
}

#[test]
fn deadlock_is_detected_and_reported() {
    let err = simulate(
        pair(),
        EngineConfig::default(),
        Arc::new(TestHooks),
        |ops| {
            ops.start_activity(
                CoreId(0),
                "forever",
                Box::new(()),
                Box::new(|ctx: &mut ExecCtx| {
                    ctx.block("never-woken");
                }),
            );
        },
    )
    .unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("deadlock"), "unexpected error: {msg}");
    assert!(
        msg.contains("never-woken"),
        "report should name the wait: {msg}"
    );
}

/// Counts its drops: held by a task body across a `block`, it proves the
/// body's stack was unwound — not just unmapped — when a run ends early.
struct DropCounter(Arc<AtomicU64>);

impl Drop for DropCounter {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn deadlock_unwinds_every_suspended_body() {
    // "first" blocks, then "second" does, then the driver finds the machine
    // stuck with both bodies suspended mid-closure on their own stacks.
    // `simulate` must come back with both unwound: each raises the shutdown
    // signal where it is parked and drops its locals.
    let drops = Arc::new(AtomicU64::new(0));
    let err = simulate(
        pair(),
        EngineConfig::default(),
        Arc::new(TestHooks),
        |ops| {
            for (core, name) in [(0, "first"), (1, "second")] {
                let guard = DropCounter(drops.clone());
                ops.start_activity(
                    CoreId(core),
                    name,
                    Box::new(()),
                    Box::new(move |ctx: &mut ExecCtx| {
                        let _held = guard;
                        ctx.block("never-woken");
                    }),
                );
            }
        },
    )
    .unwrap_err();
    assert_eq!(err.exit_code(), 14);
    let simany_core::SimError::Deadlock(report) = err else {
        panic!("expected a deadlock, got: {err}");
    };
    for name in ["first", "second"] {
        assert!(
            report.contains(&format!("({name}) on never-woken")),
            "{name} should have started and blocked: {report}"
        );
    }
    assert_eq!(drops.load(Ordering::SeqCst), 2, "both bodies unwound");
}

#[test]
fn deadlock_report_lists_blocked_activities_in_id_order() {
    // Eight cores each block one activity. The report's `blocked` lines
    // must come out the same in every run, in ascending activity id.
    let report = || {
        let err = simulate(
            ring(8),
            EngineConfig::default(),
            Arc::new(TestHooks),
            |ops| {
                for core in 0..8 {
                    ops.start_activity(
                        CoreId(core),
                        "stuck",
                        Box::new(()),
                        Box::new(|ctx: &mut ExecCtx| {
                            ctx.block("never-woken");
                        }),
                    );
                }
            },
        )
        .unwrap_err();
        let simany_core::SimError::Deadlock(report) = err else {
            panic!("expected a deadlock, got: {err}");
        };
        report
    };
    let first = report();
    assert_eq!(first, report(), "two runs' deadlock reports differ");
    let ids: Vec<u64> = first
        .lines()
        .filter_map(|l| l.trim().strip_prefix("blocked act"))
        .map(|rest| rest.split('(').next().unwrap().parse().unwrap())
        .collect();
    assert_eq!(ids.len(), 8, "every activity blocked: {first}");
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "blocked activities out of id order: {ids:?}"
    );
}

#[test]
fn task_panic_unwinds_the_bodies_it_leaves_suspended() {
    // "sleeper" blocks holding a guard; "boom" then panics holding another.
    // The panicking body unwinds at once (caught at its trampoline), the
    // suspended one at teardown.
    let drops = Arc::new(AtomicU64::new(0));
    let (g0, g1) = (DropCounter(drops.clone()), DropCounter(drops.clone()));
    let err = simulate(
        pair(),
        EngineConfig::default(),
        Arc::new(TestHooks),
        |ops| {
            ops.start_activity(
                CoreId(0),
                "sleeper",
                Box::new(()),
                Box::new(move |ctx: &mut ExecCtx| {
                    let _held = g0;
                    ctx.block("never-woken");
                }),
            );
            ops.start_activity(
                CoreId(1),
                "boom",
                Box::new(()),
                Box::new(move |ctx: &mut ExecCtx| {
                    let _held = g1;
                    ctx.advance_cycles(3);
                    panic!("kaboom-after-a-block")
                }),
            );
        },
    )
    .unwrap_err();
    assert_eq!(err.exit_code(), 13);
    match err {
        simany_core::SimError::TaskPanic { name, message, .. } => {
            assert_eq!(name, "boom");
            assert!(message.contains("kaboom-after-a-block"), "{message}");
        }
        other => panic!("expected a task panic, got: {other}"),
    }
    assert_eq!(drops.load(Ordering::SeqCst), 2, "both bodies unwound");
}

#[test]
fn a_refused_stack_mapping_is_a_typed_error() {
    // No host maps a 2^60-byte stack. The run must end with the typed
    // error (exit 16) on the first grant — not panic, not abort.
    let mut config = EngineConfig::default();
    config.worker_stack_bytes = 1 << 60;
    let err = simulate(pair(), config, Arc::new(TestHooks), |ops| {
        ops.start_activity(
            CoreId(0),
            "never-runs",
            Box::new(()),
            Box::new(|_: &mut ExecCtx| unreachable!("there is no stack to run on")),
        );
    })
    .unwrap_err();
    assert_eq!(err.exit_code(), 16, "{err}");
    let simany_core::SimError::HostResources { what, errno } = err else {
        panic!("expected a host-resource error, got: {err}");
    };
    assert_eq!((what, errno), ("map a task stack", 12), "ENOMEM");
}

#[test]
fn task_panic_is_reported() {
    // The panic is caught at the trampoline of the body's own stack and
    // handed to the driver as a value, attributed to the task.
    let err = simulate(
        pair(),
        EngineConfig::default(),
        Arc::new(TestHooks),
        |ops| {
            ops.start_activity(
                CoreId(1),
                "boom",
                Box::new(()),
                Box::new(|ctx: &mut ExecCtx| {
                    ctx.advance_cycles(7);
                    panic!("kaboom-12345")
                }),
            );
        },
    )
    .unwrap_err();
    match err {
        simany_core::SimError::TaskPanic {
            core,
            at,
            name,
            message,
        } => {
            assert_eq!((core, name), (CoreId(1), "boom"));
            assert_eq!(at, VirtualTime::from_cycles(7));
            assert!(message.contains("kaboom-12345"), "{message}");
        }
        other => panic!("expected a task panic, got: {other}"),
    }
}

#[test]
fn task_panic_inside_an_exec_ctx_call_is_reported() {
    // The tracer panics on a stall, which only `ExecCtx`'s policy check
    // records — so "boom" panics in the middle of `advance_cycles`, with
    // the simulator state borrowed. The unwind must release that borrow on
    // the body's stack: the driver borrows again to record the panic and
    // then unwinds "sleeper", parked in `block` before "boom" ran.
    struct PanicOnStall;
    impl simany_core::Tracer for PanicOnStall {
        fn record(&self, event: simany_core::TraceEvent) {
            if let simany_core::TraceEvent::Stall { core, .. } = event {
                panic!("tracer refused a stall on {core}");
            }
        }
    }
    let drops = Arc::new(AtomicU64::new(0));
    let parked = Arc::new(AtomicBool::new(false));
    let guard = DropCounter(drops.clone());
    let parked_in_body = parked.clone();
    let mut cfg = EngineConfig::default().with_drift_cycles(100);
    cfg.tracer = Some(std::rc::Rc::new(PanicOnStall));
    let err = simulate(pair(), cfg, Arc::new(TestHooks), |ops| {
        ops.start_activity(
            CoreId(0),
            "sleeper",
            Box::new(()),
            Box::new(move |ctx: &mut ExecCtx| {
                let _held = guard;
                parked_in_body.store(true, Ordering::SeqCst);
                ctx.block("never-woken");
            }),
        );
        ops.start_activity(
            CoreId(1),
            "boom",
            Box::new(()),
            Box::new(|ctx: &mut ExecCtx| {
                // Its own birth ledger stalls it once it runs past T.
                let born = ctx.now();
                ctx.with_ops(|ops| ops.record_birth(CoreId(1), born));
                ctx.advance_cycles(500);
                unreachable!("the stall's trace record panics");
            }),
        );
    })
    .unwrap_err();
    assert_eq!(err.exit_code(), 13);
    match err {
        simany_core::SimError::TaskPanic {
            core,
            name,
            message,
            ..
        } => {
            assert_eq!((core, name), (CoreId(1), "boom"));
            assert!(message.contains("tracer refused a stall"), "{message}");
        }
        other => panic!("expected a task panic, got: {other}"),
    }
    assert!(parked.load(Ordering::SeqCst), "sleeper blocked first");
    assert_eq!(drops.load(Ordering::SeqCst), 1, "sleeper unwound");
}

#[test]
fn birth_ledger_limits_parent_drift() {
    // Core 0 records a birth at its current time and then tries to run far
    // ahead; the ledger must stall it even though core 1 (its only
    // neighbor) is idle with a rising shadow time. After discarding the
    // birth the core free-runs again.
    let stats = run_with(
        pair(),
        EngineConfig::default().with_drift_cycles(100),
        vec![(
            0,
            Box::new(|ctx: &mut ExecCtx| {
                ctx.advance_cycles(10);
                let birth_time = ctx.now();
                let id = ctx.with_ops(|ops| ops.record_birth(CoreId(0), birth_time));
                // Advance up to the bound: fine.
                ctx.advance_cycles(100);
                // Drop the birth from a helper closure later; first verify the
                // drift machinery sees the ledger: one more step would stall us
                // forever (deadlock) if we didn't discard. Discard, then run.
                ctx.with_ops(|ops| ops.discard_birth(CoreId(0), id));
                ctx.advance_cycles(1000);
            }),
        )],
    );
    assert_eq!(stats.final_vtime, VirtualTime::from_cycles(1110));
}

#[test]
fn deterministic_across_runs_and_pick_policies_vary() {
    let build_tasks = || -> TestTasks {
        vec![
            (
                0,
                Box::new(|ctx: &mut ExecCtx| {
                    for i in 0..100 {
                        ctx.compute(&BlockCost::new().int_alu(10).cond_branches(i % 5));
                    }
                }),
            ),
            (
                1,
                Box::new(|ctx: &mut ExecCtx| {
                    for _ in 0..100 {
                        ctx.compute(&BlockCost::new().fp_mul(3).cond_branches(2));
                    }
                }),
            ),
        ]
    };
    let a = run_with(pair(), EngineConfig::default().with_seed(11), build_tasks());
    let b = run_with(pair(), EngineConfig::default().with_seed(11), build_tasks());
    assert_eq!(a.final_vtime, b.final_vtime);
    assert_eq!(a.stall_events, b.stall_events);
    assert_eq!(a.scheduler_picks, b.scheduler_picks);

    // A different seed changes branch outcomes and hence the exact clock.
    let c = run_with(pair(), EngineConfig::default().with_seed(12), build_tasks());
    assert_ne!(a.final_vtime, c.final_vtime);
}

#[test]
fn polymorphic_speeds_scale_elapsed_time() {
    let mut config = EngineConfig::default();
    config.speeds = Some(EngineConfig::polymorphic_speeds(2));
    let stats = run_with(
        pair(),
        config,
        vec![
            // Core 0 is half speed: 100 base cycles take 200.
            (0, Box::new(|ctx: &mut ExecCtx| ctx.advance_cycles(100))),
        ],
    );
    assert_eq!(stats.final_vtime, VirtualTime::from_cycles(200));
}

#[test]
fn queue_hint_drives_on_idle() {
    // A runtime whose on_idle starts tasks from a shared countdown.
    struct QueueHooks {
        remaining: AtomicU32,
        started: AtomicU64,
    }
    impl RuntimeHooks for QueueHooks {
        fn on_message(&self, _: &mut Ops<'_>, _: Envelope) {}
        fn on_idle(&self, ops: &mut Ops<'_>, core: CoreId) {
            let rem = self.remaining.fetch_sub(1, Ordering::SeqCst);
            assert!(rem > 0);
            ops.queue_hint_sub(core, 1);
            self.started.fetch_add(1, Ordering::SeqCst);
            ops.start_activity(
                core,
                "queued",
                Box::new(()),
                Box::new(|ctx: &mut ExecCtx| ctx.advance_cycles(10)),
            );
        }
        fn on_activity_end(&self, _: &mut Ops<'_>, _: CoreId, _: Box<dyn std::any::Any + Send>) {}
    }
    let hooks = Arc::new(QueueHooks {
        remaining: AtomicU32::new(5),
        started: AtomicU64::new(0),
    });
    let hooks2 = hooks.clone();
    let stats = simulate(Topology::new(1), EngineConfig::default(), hooks2, |ops| {
        ops.queue_hint_add(CoreId(0), 5);
    })
    .unwrap();
    assert_eq!(hooks.started.load(Ordering::SeqCst), 5);
    assert_eq!(stats.activities_started, 5);
    // Tasks ran sequentially on the single core.
    assert_eq!(stats.final_vtime, VirtualTime::from_cycles(50));
    // Run-to-completion tasks take turns on one stack.
    assert_eq!(stats.activity_resumes, 5);
    assert_eq!((stats.ctx_switches, stats.peak_stacks), (10, 1));
}

#[test]
fn late_messages_are_counted() {
    // Core 1 runs ahead within the drift bound; core 0 sends it a message
    // stamped in core 1's past.
    let stats = run_with(
        pair(),
        EngineConfig::default().with_drift_cycles(1000),
        vec![
            (1, Box::new(|ctx: &mut ExecCtx| ctx.advance_cycles(900))),
            (
                0,
                Box::new(|ctx: &mut ExecCtx| {
                    ctx.advance_cycles(1);
                    ctx.send(CoreId(1), 8, Payload::new(1u64)).unwrap();
                    ctx.advance_cycles(1);
                }),
            ),
        ],
    );
    // Depending on interleaving the message may or may not be late, but the
    // counters must account for exactly one message.
    assert_eq!(stats.late_messages + stats.on_time_messages, 1);
    assert_eq!(stats.net.messages, 1);
}
