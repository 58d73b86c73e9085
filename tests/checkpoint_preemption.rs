//! External preemption must be invisible in virtual time: a scenario
//! preempted mid-run (engine stops after a budget of fresh checkpoints),
//! dropped, and resumed from its checkpoint must end bit-identical to an
//! uninterrupted run — under the sequential engine and under parallel host
//! execution, including across several chained preempt/resume rounds.

use simany::core::{SimError, SimStats, VDuration};
use simany::kernels::{kernel_by_name, Scale};
use simany::presets;

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
        }
    }
}

fn ckpt_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("simany-preempt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("scenario.checkpoint")
}

fn spec(threads: u32, path: &std::path::Path) -> simany::runtime::ProgramSpec {
    let mut spec = presets::uniform_mesh_sm(16);
    spec.engine = spec
        .engine
        .with_seed(42)
        .with_threads(threads)
        .with_checkpoint(VDuration::from_cycles(2_000), path);
    spec
}

/// Run to completion with checkpointing but no interruptions.
fn uninterrupted(threads: u32, tag: &str) -> Fingerprint {
    let path = ckpt_path(tag);
    let kernel = kernel_by_name("Quicksort").unwrap();
    let res = kernel
        .run_sim(spec(threads, &path), Scale(0.1), 42)
        .expect("uninterrupted run failed");
    assert!(res.verified);
    Fingerprint::of(&res.out.stats)
}

/// Preempt after `budget` fresh checkpoints, drop the engine, resume from
/// the waypoint — repeatedly, until the run completes. Each round is a
/// brand-new engine (the old one is gone); resume replays from the start
/// and bit-verifies at the watermark before continuing.
fn preempted_then_resumed(threads: u32, budget: u64, tag: &str) -> Fingerprint {
    let path = ckpt_path(tag);
    let kernel = kernel_by_name("Quicksort").unwrap();

    // First slice: must hit the preemption budget, not finish.
    let mut s = spec(threads, &path);
    s.engine = s.engine.with_preempt_after_checkpoints(Some(budget));
    let first = kernel.run_sim(s, Scale(0.1), 42);
    let at0 = match first {
        Err(SimError::Preempted { at, checkpoints }) => {
            assert_eq!(checkpoints, budget);
            at
        }
        other => panic!("expected preemption, got {other:?}"),
    };
    assert!(path.is_file(), "preemption must leave a checkpoint behind");

    // Keep resuming with the same budget; every round must make progress
    // (the budget counts only checkpoints *beyond* the resume watermark),
    // so this terminates. Cap the rounds to catch a livelock regression.
    let mut last_at = at0;
    for _round in 0..200 {
        let mut s = spec(threads, &path);
        s.engine = s
            .engine
            .with_resume(&path)
            .with_preempt_after_checkpoints(Some(budget));
        match kernel.run_sim(s, Scale(0.1), 42) {
            Err(SimError::Preempted { at, .. }) => {
                assert!(
                    at > last_at,
                    "preempt/resume round made no progress: {at:?} <= {last_at:?}"
                );
                last_at = at;
            }
            Ok(res) => {
                assert!(res.verified);
                return Fingerprint::of(&res.out.stats);
            }
            Err(other) => panic!("resume failed: {other}"),
        }
    }
    panic!("run did not complete within 200 preempt/resume rounds");
}

#[test]
fn preempt_resume_is_bit_identical_sequential() {
    let base = uninterrupted(1, "seq-base");
    let resumed = preempted_then_resumed(1, 2, "seq-preempt");
    assert_eq!(base, resumed, "sequential preempt/resume changed the run");
}

#[test]
fn preempt_resume_is_bit_identical_threads4() {
    let base = uninterrupted(4, "par-base");
    let resumed = preempted_then_resumed(4, 2, "par-preempt");
    assert_eq!(base, resumed, "threads=4 preempt/resume changed the run");
}

/// A budget of one fresh checkpoint is the tightest slicing the contract
/// allows; every round still advances at least one checkpoint interval.
#[test]
fn single_checkpoint_budget_still_makes_progress() {
    let base = uninterrupted(1, "tight-base");
    let resumed = preempted_then_resumed(1, 1, "tight-preempt");
    assert_eq!(base, resumed);
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
            ops.wake(aid, Box::new(()), at);
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

    let path = ckpt_path("nested");
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
                        let _ = ctx.block("until-c-is-done");
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
                        ctx.send(CoreId(2), 8, Payload::new(ctx.id()));
                        let _ = ctx.block("own-wake-order");
                        ctx.advance_cycles(3_000);
                        ctx.send(CoreId(0), 8, Payload::new(a));
                        ctx.send(CoreId(1), 8, Payload::new(b));
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
    assert_eq!(Fingerprint::of(&base), Fingerprint::of(&resumed));
    assert_eq!(
        (base.ctx_switches, base.peak_stacks),
        (resumed.ctx_switches, resumed.peak_stacks)
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
