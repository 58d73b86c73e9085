//! External preemption must be invisible in virtual time: a run preempted
//! after a budget of fresh checkpoints and resumed round after round ends
//! bit-identical to an uninterrupted one (a check of the shared harness,
//! `tests/common`). A preempted run unwinds every suspended body and
//! resumes verified, bad preemption configs are refused before anything
//! runs, and the exit codes the sweep service relies on are stable.

mod common;

use common::*;
use simany::core::{SimError, VDuration};
use simany::kernels::{kernel_by_name, Scale};
use simany::presets;

/// Quicksort checkpointing every 2,000 cycles, preempted after `budget`
/// fresh checkpoints and resumed round after round from a resumed
/// checkpoint.
fn sliced(budget: u64) -> Case {
    let every = Some(2_000);
    quicksort(Sm, SPATIAL, NoPlan, Preempt { budget, every })
}

/// Quicksort preempted after every second fresh checkpoint, resumed until
/// it completes, ends as the uninterrupted run did.
#[test]
fn preempt_resume_is_bit_identical_sequential() {
    assert_checks([sliced(2)], &[Check::Cut]);
}

/// A budget of one fresh checkpoint is the tightest slicing the contract
/// allows; every round still advances at least one checkpoint interval.
#[test]
fn single_checkpoint_budget_still_makes_progress() {
    assert_checks([sliced(1)], &[Check::Cut]);
}

/// Preemption must unwind every suspended body, and the run must still
/// resume verified.
///
/// "a" and "b" block; "c" computes across the first checkpoint boundary,
/// mails itself a wake order and blocks — so when the driver observes the
/// boundary, writes the checkpoint and records the preemption, all three
/// bodies are suspended mid-closure on their own stacks, each holding a
/// guard that counts its drop. `simulate` must return `Preempted` (exit 15)
/// with all three unwound, not hang; a fresh engine resuming from the file
/// then verifies at the watermark, lets "c" wake the other two and ends
/// exactly like a run that was never interrupted.
#[test]
fn preemption_unwinds_every_suspended_body_and_resumes_verified() {
    use simany::core::{
        simulate, ActivityId, CoreId, EngineConfig, Envelope, ExecCtx, Ops, Payload, RuntimeHooks,
    };
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    struct WakeHooks;
    impl RuntimeHooks for WakeHooks {
        fn on_message(&self, ops: &mut Ops<'_>, mut env: Envelope) {
            let aid = env.payload.take::<ActivityId>();
            let at = ops.now(env.dst);
            ops.wake(aid, at);
        }
        fn on_idle(&self, _: &mut Ops<'_>, _: CoreId) {}
        fn on_activity_end(&self, _: &mut Ops<'_>, _: CoreId, _: Box<dyn std::any::Any + Send>) {}
    }

    struct DropCounter(Arc<AtomicU64>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    let drops = Arc::new(AtomicU64::new(0));

    let dir = ScratchDir::new();
    let path = dir.0.join("scenario.checkpoint");
    let run = |config: EngineConfig| {
        simulate(
            simany::topology::mesh_2d(4),
            config.with_checkpoint(VDuration::from_cycles(2_000), &path),
            Arc::new(WakeHooks),
            |ops| {
                let sleeper = || {
                    let guard = DropCounter(drops.clone());
                    move |ctx: &mut ExecCtx| {
                        let _held = guard;
                        ctx.block("until-c-is-done");
                        ctx.advance_cycles(100);
                    }
                };
                let a = ops.start_activity(CoreId(0), "a", Box::new(()), Box::new(sleeper()));
                let b = ops.start_activity(CoreId(1), "b", Box::new(()), Box::new(sleeper()));
                let guard = DropCounter(drops.clone());
                ops.start_activity(
                    CoreId(2),
                    "c",
                    Box::new(()),
                    Box::new(move |ctx: &mut ExecCtx| {
                        let _held = guard;
                        ctx.advance_cycles(3_000);
                        ctx.send(CoreId(2), 8, Payload::new(ctx.id())).unwrap();
                        ctx.block("own-wake-order");
                        ctx.advance_cycles(3_000);
                        ctx.send(CoreId(0), 8, Payload::new(a)).unwrap();
                        ctx.send(CoreId(1), 8, Payload::new(b)).unwrap();
                    }),
                );
            },
        )
    };

    let base = run(EngineConfig::default()).expect("uninterrupted run failed");
    // Three bodies suspended at once: three stacks, two switches a grant.
    assert_eq!(base.peak_stacks, 3);
    assert_eq!(base.ctx_switches, 2 * base.activity_resumes);
    assert_eq!(
        drops.swap(0, Ordering::SeqCst),
        3,
        "bodies ran to their end"
    );

    let err = run(EngineConfig::default().with_preempt_after_checkpoints(Some(1)))
        .expect_err("the first slice must be preempted");
    assert_eq!(err.exit_code(), 15, "{err}");
    assert_eq!(
        drops.swap(0, Ordering::SeqCst),
        3,
        "all three suspended bodies unwound"
    );
    let SimError::Preempted { at, checkpoints: 1 } = err else {
        panic!("expected preemption after one checkpoint, got {err}");
    };
    assert_eq!(
        at.cycles(),
        3_000,
        "c was suspended when the boundary was seen"
    );

    let resumed = run(EngineConfig::default().with_resume(&path)).expect("resume failed");
    assert_eq!(resumed.checkpoint_verifications, 1, "checkpoint verified");
    assert_eq!(
        deterministic(&base),
        deterministic(&resumed),
        "resume changed the run"
    );
}

/// Preemption without checkpointing configured is a config error, caught
/// before anything runs.
#[test]
fn preempt_without_checkpointing_is_rejected() {
    let mut spec = presets::uniform_mesh_sm(16);
    spec.engine = spec
        .engine
        .with_seed(42)
        .with_preempt_after_checkpoints(Some(2));
    let kernel = kernel_by_name("Quicksort").unwrap();
    match kernel.run_sim(spec, Scale(0.1), 42) {
        Err(SimError::Checkpoint(msg)) => {
            assert!(msg.contains("preempt_after_checkpoints"), "{msg}")
        }
        other => panic!("expected config error, got {other:?}"),
    }
}

/// A zero checkpoint interval would never move the next checkpoint past
/// the front; it is a config error, caught before anything runs or is
/// written.
#[test]
fn a_zero_checkpoint_interval_is_rejected() {
    let dir = ScratchDir::new();
    let path = dir.0.join("scenario.checkpoint");
    let mut spec = presets::uniform_mesh_sm(16);
    spec.engine = spec
        .engine
        .with_seed(42)
        .with_checkpoint(VDuration::ZERO, &path);
    let kernel = kernel_by_name("Quicksort").unwrap();
    match kernel.run_sim(spec, Scale(0.1), 42) {
        Err(SimError::Checkpoint(msg)) => {
            assert!(msg.contains("checkpoint_every"), "{msg}")
        }
        other => panic!("expected config error, got {other:?}"),
    }
    assert!(!path.exists(), "a checkpoint was written");
}

/// The typed exit codes the sweep service relies on are stable.
#[test]
fn exit_codes_are_stable() {
    use simany::core::VirtualTime;
    let preempted = SimError::Preempted {
        at: VirtualTime::from_cycles(1),
        checkpoints: 2,
    };
    assert_eq!(preempted.exit_code(), 15);
    assert_eq!(SimError::Checkpoint(String::new()).exit_code(), 12);
    assert_eq!(SimError::CheckpointMismatch(String::new()).exit_code(), 11);
}
