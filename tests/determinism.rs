//! Determinism: the engine is a pure function of (program, configuration,
//! seed). Quicksort (seed 42) on the 16-core `sm` mesh, under every
//! synchronization policy, is held to the shared harness's repeat,
//! sanitizer and resume checks (`tests/common`). (The drift-headroom fast
//! path's equality with the always-full path is pinned by a unit test
//! inside `simany-core`, next to the test-only override it needs.)

mod common;

use common::*;
use simany::core::{SyncPolicy, VDuration};
use simany::kernels::{kernel_by_name, Scale};
use simany::presets;

/// Same seed, same config: every deterministic output agrees, under every
/// policy.
#[test]
fn repeated_runs_are_identical_per_policy() {
    let cases = POLICIES.map(|p| quicksort(Sm, p, NoPlan, Whole));
    assert_checks(cases, &[Check::Repeat]);
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

/// The sanitizer is observation-only: enabling it changes no output under
/// any policy, and on a correct engine it finds nothing while checking
/// something.
#[test]
fn sanitizer_is_observation_only_and_quiet() {
    let cases = POLICIES.map(|p| quicksort(Sm, p, NoPlan, Whole));
    assert_checks(cases, &[Check::Sanitizer]);
}

/// Checkpoint/resume is bit-exact: a run that writes checkpoints, and a
/// run that resumes from (replays and verifies against) one, both match
/// the uninterrupted run, under every policy.
#[test]
fn resumed_run_matches_uninterrupted() {
    let cases = POLICIES.map(|p| quicksort(Sm, p, NoPlan, Resume));
    assert_checks(cases, &[Check::Cut]);
}
