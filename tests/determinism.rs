//! Determinism regression tests: the engine must be a pure function of
//! (program, configuration, seed). Two runs of the same seeded workload
//! must agree on every observable counter, for every synchronization
//! policy. (The drift-headroom fast path's equality with the always-full
//! path is pinned by a unit test inside `simany-core`, next to the
//! test-only override it needs, and by `golden_timings.rs`, whose values
//! predate the fast path.)

use simany::core::{EngineConfig, SimStats, SyncPolicy, VDuration};
use simany::kernels::{kernel_by_name, Scale};
use simany::presets;

/// The counters a behavioral divergence would show up in.
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

fn run_with(policy: SyncPolicy, tweak: impl FnOnce(&mut EngineConfig)) -> (Fingerprint, SimStats) {
    let mut spec = presets::uniform_mesh_sm(16);
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

fn all_policies() -> Vec<(&'static str, SyncPolicy)> {
    vec![
        (
            "spatial",
            SyncPolicy::Spatial {
                t: VDuration::from_cycles(100),
            },
        ),
        (
            "bounded_slack",
            SyncPolicy::BoundedSlack {
                window: VDuration::from_cycles(100),
            },
        ),
        ("conservative", SyncPolicy::Conservative),
        ("unbounded", SyncPolicy::Unbounded),
    ]
}

/// Same seed, same config — identical counters, under every policy.
#[test]
fn repeated_runs_are_identical_per_policy() {
    for (name, policy) in all_policies() {
        let (a, _) = run_with(policy, |_| {});
        let (b, _) = run_with(policy, |_| {});
        assert_eq!(a, b, "policy {name}: two identical runs diverged");
    }
}

/// The fast path actually fires on an annotation-dense spatial workload.
#[test]
fn fast_path_fires() {
    let mut spec = presets::uniform_mesh_sm(16);
    spec.engine.sync = SyncPolicy::Spatial {
        t: VDuration::from_cycles(1000),
    };
    let kernel = kernel_by_name("Quicksort").unwrap();
    let on = kernel.run_sim(spec, Scale(0.1), 42).unwrap();
    assert!(
        on.out.stats.fast_path_advances > 0,
        "fast path never fired on an annotation-dense workload"
    );
}

/// The sanitizer is observation-only: enabling it changes no observable
/// counter under any policy — and on a correct engine it finds nothing
/// while actually checking something.
#[test]
fn sanitizer_is_observation_only_and_quiet() {
    for (name, policy) in all_policies() {
        let (plain, _) = run_with(policy, |_| {});
        let (sanitized, stats) = run_with(policy, |cfg| cfg.sanitize = true);
        assert_eq!(
            plain, sanitized,
            "policy {name}: sanitizer changed observable behavior"
        );
        assert_eq!(
            stats.sanitizer_violations, 0,
            "policy {name}: sanitizer reported violations on a clean run"
        );
        assert!(
            stats.sanitizer_checks > 0,
            "policy {name}: sanitizer ran no checks while enabled"
        );
    }
}

/// Parallel host execution is deterministic: fixed `threads = 4` plus a
/// fixed seed reproduces every observable counter bit-identically, under
/// every policy — and the epoch machinery actually engages.
#[test]
fn parallel_runs_are_identical_per_policy() {
    for (name, policy) in all_policies() {
        let (a, stats) = run_with(policy, |cfg| cfg.threads = 4);
        let (b, _) = run_with(policy, |cfg| cfg.threads = 4);
        assert_eq!(a, b, "policy {name}: two identical 4-thread runs diverged");
        assert!(
            stats.parallel_epochs > 0,
            "policy {name}: 4-thread run never launched an epoch"
        );
        assert!(
            stats.epoch_grants >= stats.parallel_epochs,
            "policy {name}: fewer epoch grants than epochs"
        );
    }
}

/// `threads = 1` (and the `0` alias) never constructs a partition: both
/// must be bit-identical to the sequential engine, under every policy.
#[test]
fn single_thread_matches_sequential() {
    for (name, policy) in all_policies() {
        let (seq, _) = run_with(policy, |_| {});
        let (one, s1) = run_with(policy, |cfg| cfg.threads = 1);
        let (zero, s0) = run_with(policy, |cfg| cfg.threads = 0);
        assert_eq!(
            seq, one,
            "policy {name}: threads=1 diverged from sequential"
        );
        assert_eq!(
            seq, zero,
            "policy {name}: threads=0 diverged from sequential"
        );
        assert_eq!(s1.parallel_epochs, 0, "policy {name}: threads=1 ran epochs");
        assert_eq!(s0.parallel_epochs, 0, "policy {name}: threads=0 ran epochs");
    }
}

/// The online sanitizer stays quiet in parallel mode: the drift bounds,
/// per-sender FIFO, causality and birth-floor invariants all survive
/// concurrent tile execution — and observing them changes nothing.
#[test]
fn parallel_sanitizer_is_quiet() {
    for (name, policy) in all_policies() {
        let (plain, _) = run_with(policy, |cfg| cfg.threads = 4);
        let (sanitized, stats) = run_with(policy, |cfg| {
            cfg.threads = 4;
            cfg.sanitize = true;
        });
        assert_eq!(
            plain, sanitized,
            "policy {name}: sanitizer changed 4-thread observable behavior"
        );
        assert_eq!(
            stats.sanitizer_violations, 0,
            "policy {name}: sanitizer found violations in a 4-thread run"
        );
        assert!(
            stats.sanitizer_checks > 0,
            "policy {name}: sanitizer ran no checks in a 4-thread run"
        );
    }
}

/// Checkpoint/resume works in parallel mode too: a 4-thread run that
/// writes checkpoints matches the plain 4-thread run, and a 4-thread
/// resume verifies against the checkpoint without diverging.
#[test]
fn parallel_resume_matches_uninterrupted() {
    let dir = std::env::temp_dir().join("simany-determinism-par-resume");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, policy) in all_policies() {
        let cp = dir.join(format!("{name}.checkpoint"));
        let (baseline, stats) = run_with(policy, |cfg| cfg.threads = 4);
        let every = VDuration::from_cycles((stats.final_vtime.cycles() / 4).max(1));

        let cp2 = cp.clone();
        let (written, wstats) = run_with(policy, move |cfg| {
            cfg.threads = 4;
            cfg.checkpoint_every = Some(every);
            cfg.checkpoint_path = Some(cp2);
        });
        assert_eq!(
            baseline, written,
            "policy {name}: checkpointing changed 4-thread observable behavior"
        );
        assert!(
            wstats.checkpoints_written > 0,
            "policy {name}: no checkpoint was written at threads=4"
        );

        let cp3 = cp.clone();
        let (resumed, rstats) = run_with(policy, move |cfg| {
            cfg.threads = 4;
            cfg.resume_from = Some(cp3);
        });
        assert_eq!(
            baseline, resumed,
            "policy {name}: 4-thread resumed run diverged"
        );
        assert_eq!(
            rstats.checkpoint_verifications, 1,
            "policy {name}: 4-thread resume did not verify against the checkpoint"
        );
    }
}

/// Checkpoint/resume is bit-exact: a run that writes checkpoints, and a
/// run that resumes from (replays and verifies against) one, both match
/// the uninterrupted run counter-for-counter, under every policy.
#[test]
fn resumed_run_matches_uninterrupted() {
    let dir = std::env::temp_dir().join("simany-determinism-resume");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, policy) in all_policies() {
        let cp = dir.join(format!("{name}.checkpoint"));
        let (baseline, stats) = run_with(policy, |_| {});
        // Checkpoint roughly a quarter of the way through the run, so the
        // watermark lands strictly inside it.
        let every = VDuration::from_cycles((stats.final_vtime.cycles() / 4).max(1));

        let cp2 = cp.clone();
        let (written, wstats) = run_with(policy, move |cfg| {
            cfg.checkpoint_every = Some(every);
            cfg.checkpoint_path = Some(cp2);
        });
        assert_eq!(
            baseline, written,
            "policy {name}: checkpointing changed observable behavior"
        );
        assert!(
            wstats.checkpoints_written > 0,
            "policy {name}: no checkpoint was written"
        );

        let cp3 = cp.clone();
        let (resumed, rstats) = run_with(policy, move |cfg| cfg.resume_from = Some(cp3));
        assert_eq!(
            baseline, resumed,
            "policy {name}: resumed run diverged from the uninterrupted run"
        );
        assert_eq!(
            rstats.checkpoint_verifications, 1,
            "policy {name}: resume did not verify against the checkpoint"
        );
    }
}
