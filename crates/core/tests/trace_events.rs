#![allow(clippy::field_reassign_with_default)]

//! End-to-end tracing: the engine reports the events a real run produces.

use simany_core::{
    simulate, CoreId, EngineConfig, Envelope, ExecCtx, FaultPlanBuilder, MemoryTracer, Ops,
    Payload, RuntimeHooks, TraceEvent, VirtualTime,
};
use simany_topology::{mesh_2d, LinkId};
use std::sync::Arc;

struct WakeHooks;
impl RuntimeHooks for WakeHooks {
    fn on_message(&self, ops: &mut Ops<'_>, mut env: Envelope) {
        let aid = env.payload.take::<simany_core::ActivityId>();
        let at = ops.now(env.dst);
        ops.wake(aid, at);
    }
    fn on_idle(&self, _: &mut Ops<'_>, _: CoreId) {}
    fn on_activity_end(&self, _: &mut Ops<'_>, _: CoreId, _: Box<dyn std::any::Any + Send>) {}
}

#[test]
fn trace_covers_the_event_vocabulary() {
    let tracer = MemoryTracer::new();
    let mut config = EngineConfig::default().with_drift_cycles(50);
    config.tracer = Some(tracer.clone());
    simulate(mesh_2d(4), config, Arc::new(WakeHooks), |ops| {
        // A waiter that blocks until woken by a message.
        let waiter = ops.start_activity(
            CoreId(1),
            "waiter",
            Box::new(()),
            Box::new(|ctx: &mut ExecCtx| {
                ctx.block("demo-wait");
                ctx.advance_cycles(10);
            }),
        );
        // A runner that outruns the drift bound (stall + resume) and then
        // wakes the waiter.
        ops.start_activity(
            CoreId(0),
            "runner",
            Box::new(()),
            Box::new(move |ctx: &mut ExecCtx| {
                for _ in 0..50 {
                    ctx.advance_cycles(10);
                }
                ctx.send(CoreId(1), 8, Payload::new(waiter)).unwrap();
            }),
        );
        // A third worker so someone lags behind the runner.
        ops.start_activity(
            CoreId(2),
            "slow",
            Box::new(()),
            Box::new(|ctx: &mut ExecCtx| {
                for _ in 0..100 {
                    ctx.advance_cycles(3);
                }
            }),
        );
    })
    .unwrap();

    let events = tracer.events();
    assert!(!tracer.is_empty());
    let has = |pred: &dyn Fn(&TraceEvent) -> bool| events.iter().any(pred);
    assert!(has(&|e| matches!(
        e,
        TraceEvent::ActivityStart { name: "runner", .. }
    )));
    assert!(has(&|e| matches!(
        e,
        TraceEvent::ActivityEnd { name: "waiter", .. }
    )));
    assert!(
        has(&|e| matches!(e, TraceEvent::Stall { .. })),
        "no stall traced"
    );
    assert!(
        has(&|e| matches!(e, TraceEvent::Resume { .. })),
        "no resume traced"
    );
    assert!(has(&|e| matches!(e, TraceEvent::Send { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::Process { .. })));
    assert!(has(&|e| matches!(
        e,
        TraceEvent::Block {
            reason: "demo-wait",
            ..
        }
    )));
    assert!(has(&|e| matches!(e, TraceEvent::Wake { .. })));

    // Renderers produce something sensible.
    let dump = tracer.dump();
    assert!(dump.contains("START runner"));
    let tl = tracer.timeline(4, 40);
    assert_eq!(tl.lines().count(), 4);
    let (starts, stalls, _, _) = tracer.core_summary(CoreId(0));
    assert_eq!(starts, 1);
    assert!(stalls >= 1);
}

/// Each activity's start event pairs with exactly one end event, on its
/// own core, as far apart in virtual time as the body advanced.
#[test]
fn activity_spans_pair_up() {
    let tracer = MemoryTracer::new();
    let mut config = EngineConfig::default();
    config.tracer = Some(tracer.clone());
    simulate(mesh_2d(2), config, Arc::new(WakeHooks), |ops| {
        ops.start_activity(
            CoreId(0),
            "short",
            Box::new(()),
            Box::new(|ctx: &mut ExecCtx| ctx.advance_cycles(10)),
        );
        ops.start_activity(
            CoreId(1),
            "long",
            Box::new(()),
            Box::new(|ctx: &mut ExecCtx| {
                for _ in 0..10 {
                    ctx.advance_cycles(10);
                }
            }),
        );
    })
    .unwrap();
    let events = tracer.events();
    let mut spans: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::ActivityStart { t, core, aid, name } => Some((*name, *core, *aid, *t)),
            _ => None,
        })
        .map(|(name, core, aid, start)| {
            let ends: Vec<_> = events
                .iter()
                .filter_map(|e| match *e {
                    TraceEvent::ActivityEnd {
                        t, core, aid: a, ..
                    } if a == aid => Some((core, t)),
                    _ => None,
                })
                .collect();
            assert_eq!(ends.len(), 1, "{name} ended {} times", ends.len());
            let (end_core, end) = ends[0];
            assert_eq!(end_core, core, "{name} ended on another core");
            (name, core, (end - start).cycles())
        })
        .collect();
    spans.sort_unstable();
    assert_eq!(
        spans,
        [("long", CoreId(1), 100), ("short", CoreId(0), 10)],
        "one span per activity"
    );
}

#[test]
fn no_tracer_means_no_overhead_path() {
    // Smoke: identical run without a tracer still works (the engine's
    // trace calls are no-ops).
    let stats = simulate(
        mesh_2d(2),
        EngineConfig::default(),
        Arc::new(WakeHooks),
        |ops| {
            ops.start_activity(
                CoreId(0),
                "t",
                Box::new(()),
                Box::new(|ctx: &mut ExecCtx| ctx.advance_cycles(5)),
            );
        },
    )
    .unwrap();
    assert_eq!(stats.final_vtime.cycles(), 5);
}

/// Task code's send is the hooks' send: under a plan that drops every
/// message, a send from `ExecCtx` and one from `Ops` are both lost without
/// a panic, each traced as the same `MsgDropped` and counted in
/// `msgs_dropped`.
#[test]
fn a_task_send_is_dropped_like_a_hook_send() {
    let topo = mesh_2d(2);
    let lossy =
        (0..topo.n_links()).fold(FaultPlanBuilder::new(), |b, l| b.drop_prob(LinkId(l), 1.0));
    let tracer = MemoryTracer::new();
    let mut config = EngineConfig::default().with_fault_plan(Arc::new(lossy.build(&topo)));
    config.tracer = Some(tracer.clone());
    let stats = simulate(topo, config, Arc::new(WakeHooks), |ops| {
        ops.start_activity(
            CoreId(0),
            "sender",
            Box::new(()),
            Box::new(|ctx: &mut ExecCtx| {
                ctx.advance_cycles(10);
                assert!(ctx.send(CoreId(1), 8, Payload::none()).is_err());
                let by_ops = ctx.with_ops(|ops| {
                    let at = ops.now(CoreId(0));
                    ops.send(CoreId(0), CoreId(1), 8, at, Payload::none())
                });
                assert!(by_ops.is_err());
            }),
        );
    })
    .unwrap();
    assert_eq!(stats.msgs_dropped, 2);
    let lost = TraceEvent::MsgDropped {
        t: VirtualTime::from_cycles(10),
        src: CoreId(0),
        dst: CoreId(1),
        bytes: 8,
    };
    let dropped: Vec<_> = tracer
        .events()
        .into_iter()
        .filter(|e| matches!(e, TraceEvent::MsgDropped { .. }))
        .collect();
    assert_eq!(dropped, [lost.clone(), lost]);
}

struct Quiet;
impl RuntimeHooks for Quiet {
    fn on_message(&self, _: &mut Ops<'_>, _: Envelope) {}
    fn on_idle(&self, _: &mut Ops<'_>, _: CoreId) {}
    fn on_activity_end(&self, _: &mut Ops<'_>, _: CoreId, _: Box<dyn std::any::Any + Send>) {}
}

/// Each `LinkDown` and `LinkUp` trace names its link's ends, which the
/// topology keeps only in its adjacency rows: a pair and a one-way link
/// fail at t = 20, the pair recovers at t = 40, and sends at every tenth
/// cycle announce both boundaries.
#[test]
fn link_traces_name_the_ends_of_each_link() {
    let topo = mesh_2d(4);
    let ends = |a: u32, b: u32| (topo.link_between(CoreId(a), CoreId(b)).unwrap(), a, b);
    let (down, up) = (
        [ends(0, 1), ends(1, 0), ends(2, 3)],
        [ends(0, 1), ends(1, 0)],
    );
    let t = VirtualTime::from_cycles;
    let plan = down
        .iter()
        .fold(FaultPlanBuilder::new(), |b, &(l, ..)| b.fail_link(l, t(20)));
    let plan = up.iter().fold(plan, |b, &(l, ..)| b.recover_link(l, t(40)));
    let tracer = MemoryTracer::new();
    let mut config = EngineConfig::default().with_fault_plan(Arc::new(plan.build(&topo)));
    config.tracer = Some(tracer.clone());
    simulate(topo, config, Arc::new(Quiet), |ops| {
        ops.start_activity(
            CoreId(0),
            "sender",
            Box::new(()),
            Box::new(|ctx: &mut ExecCtx| {
                for _ in 0..6 {
                    ctx.advance_cycles(10);
                    let _ = ctx.send(CoreId(3), 8, Payload::none());
                }
            }),
        );
    })
    .unwrap();
    let mut want: Vec<TraceEvent> = Vec::new();
    for (at, set, is_down) in [(t(20), &down[..], true), (t(40), &up[..], false)] {
        let mut set = set.to_vec();
        set.sort_by_key(|&(l, ..)| l);
        want.extend(set.into_iter().map(|(link, a, b)| {
            let (src, dst) = (CoreId(a), CoreId(b));
            match is_down {
                true => TraceEvent::LinkDown {
                    t: at,
                    link,
                    src,
                    dst,
                },
                false => TraceEvent::LinkUp {
                    t: at,
                    link,
                    src,
                    dst,
                },
            }
        }));
    }
    let got: Vec<TraceEvent> = tracer
        .events()
        .into_iter()
        .filter(|e| matches!(e, TraceEvent::LinkDown { .. } | TraceEvent::LinkUp { .. }))
        .collect();
    assert_eq!(got, want);
}
