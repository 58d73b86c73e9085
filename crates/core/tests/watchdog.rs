//! Stall-watchdog regression: a seeded livelock must surface as a typed
//! [`SimError::Stalled`] with a diagnostic report — never a hang.
//!
//! The trap: a message handler that re-sends the message to its own core
//! stamped at the same arrival instant. Local messages arrive immediately
//! (zero network cost), so virtual time never advances, yet a message is
//! always due — the quiet-state deadlock detector never fires because the
//! machine is never quiet. Only the watchdog's "no virtual-time progress
//! in N scheduler picks" budget can catch it.

use simany_core::{simulate, CoreId, EngineConfig, Envelope, Ops, Payload, RuntimeHooks, SimError};
use simany_topology::mesh_2d;
use std::sync::Arc;

struct PingSelfForever;

impl RuntimeHooks for PingSelfForever {
    fn on_message(&self, ops: &mut Ops<'_>, env: Envelope) {
        // Re-send to self at the same instant: arrival == sent for a local
        // message, so max_vtime is frozen while the scheduler spins.
        let _ = ops.send(env.dst, env.dst, 0, env.arrival, Payload::none());
    }
    fn on_idle(&self, _: &mut Ops<'_>, _: CoreId) {}
    fn on_activity_end(&self, _: &mut Ops<'_>, _: CoreId, _: Box<dyn std::any::Any + Send>) {}
}

fn livelocked_run(config: EngineConfig) -> Result<simany_core::SimStats, SimError> {
    simulate(mesh_2d(2), config, Arc::new(PingSelfForever), |ops| {
        // No fault plan here, so the send cannot be dropped.
        let _ = ops.send(
            CoreId(0),
            CoreId(0),
            0,
            simany_core::VirtualTime::ZERO,
            Payload::none(),
        );
    })
}

#[test]
fn watchdog_catches_livelock_as_typed_error() {
    // A tight pick budget keeps the test fast; any budget terminates.
    let err = livelocked_run(EngineConfig::default().with_watchdog_picks(Some(10_000)))
        .expect_err("livelocked run must not complete");
    match err {
        SimError::Stalled { at, picks, report } => {
            assert_eq!(picks, 10_000, "reported budget should match the config");
            assert_eq!(at.cycles(), 0, "no virtual time should have passed");
            // The diagnostic snapshot names the machine state.
            assert!(
                report.contains("max_vtime="),
                "report lacks header: {report}"
            );
            assert!(
                report.contains("core0:"),
                "report lacks core dump: {report}"
            );
        }
        other => panic!("expected Stalled, got: {other}"),
    }
}

/// The watchdog can fire with bodies suspended: "a" blocks, "b" blocks, and
/// the driver spins on the self-pinging core until the budget runs out.
/// `simulate` must return the typed error with both bodies unwound on
/// their own stacks — each holds a guard that counts its drop — never hang.
#[test]
fn watchdog_unwinds_every_suspended_body() {
    use simany_core::ExecCtx;
    use std::sync::atomic::{AtomicU64, Ordering};
    struct DropCounter(Arc<AtomicU64>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    let drops = Arc::new(AtomicU64::new(0));
    let config = EngineConfig::default().with_watchdog_picks(Some(2_000));
    let err = simulate(mesh_2d(4), config, Arc::new(PingSelfForever), |ops| {
        // Equal-time picks go in core order, so the two blockers start
        // before the pinging core (the highest id) monopolises the queue.
        for (core, name) in [(0, "a"), (1, "b")] {
            let guard = DropCounter(drops.clone());
            ops.start_activity(
                CoreId(core),
                name,
                Box::new(()),
                Box::new(move |ctx: &mut ExecCtx| {
                    let _held = guard;
                    ctx.block("forever");
                }),
            );
        }
        let _ = ops.send(
            CoreId(3),
            CoreId(3),
            0,
            simany_core::VirtualTime::ZERO,
            Payload::none(),
        );
    })
    .expect_err("livelocked run must not complete");
    assert_eq!(err.exit_code(), 10);
    let SimError::Stalled { report, .. } = err else {
        panic!("expected Stalled, got: {err}");
    };
    for name in ["a", "b"] {
        assert!(
            report.contains(&format!("({name}) on forever")),
            "{name} should have started and blocked: {report}"
        );
    }
    assert_eq!(drops.load(Ordering::SeqCst), 2, "both bodies unwound");
}

#[test]
fn watchdog_message_is_actionable() {
    let err = livelocked_run(EngineConfig::default().with_watchdog_picks(Some(5_000)))
        .expect_err("livelocked run must not complete");
    let msg = format!("{err}");
    assert!(
        msg.contains("stalled") || msg.contains("Stalled") || msg.contains("progress"),
        "error display should say what happened: {msg}"
    );
}

/// The watchdog never fires on a healthy run, even with a small budget:
/// progress resets the counter.
#[test]
fn watchdog_is_quiet_on_progress() {
    use simany_core::ExecCtx;
    let stats = simulate(
        mesh_2d(4),
        EngineConfig::default().with_watchdog_picks(Some(16)),
        Arc::new(PingSelfForever),
        |ops| {
            for i in 0..4u32 {
                ops.start_activity(
                    CoreId(i),
                    "walk",
                    Box::new(()),
                    Box::new(|ctx: &mut ExecCtx| {
                        for _ in 0..1_000 {
                            ctx.advance_cycles(5);
                        }
                    }),
                );
            }
        },
    )
    .expect("healthy run must complete");
    assert_eq!(stats.final_vtime.cycles(), 5_000);
}
