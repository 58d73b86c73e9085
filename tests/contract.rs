//! The engine's run contracts, checked over a drawn grid of scenarios.
//!
//! Every case drawn here is held to all the checks of the shared harness
//! (`tests/common`): repeat, empty plan, sanitizer, resume and preempt
//! identity, and a verified output. The fixed cases live with the suites
//! that name them: quicksort (seed 42) on the 16-core `sm` mesh under each
//! policy in `determinism.rs` (no plan, resumed) and `fault_determinism.rs`
//! (empty and sampled plans; the sampled plan on the chiplet machine, whole
//! and resumed, under the spatial policy), its two preemption budgets in
//! `checkpoint_preemption.rs`, the same run on the chiplet machine in
//! `hierarchical.rs`, each protocol partitioned then healed in
//! `protocols.rs`, and Dijkstra in `end_to_end.rs`. The `proptest` shim
//! draws a constant number of cases per run.

mod common;

use common::*;
use proptest::prelude::*;
use simany::core::SyncPolicy;

/// Drawn cases per run, on the 16-core machines and on the chiplet machine.
/// The shim seeds each draw from the test function's name and the case
/// index, so the same cases are drawn every run; renaming a test or
/// changing a count draws others, which may land on an unpinned break
/// (see the `global-drift` entries below).
const DRAWN: u32 = 12;
const DRAWN_CHIPLET: u32 = 2;

/// Cases that break a check on this engine, one entry per failure they
/// report. They stay in the grid, pinned: a draw that lands on one expects
/// exactly these failures, so a fix shows up as a case that stops failing.
/// A sanitizer failure is pinned by the invariants violated, not by counts
/// of violations or checks, which follow the sanitizer's cadence.
///
/// All three are the sanitizer's `global-drift` invariant: the spread
/// between the fastest working core and the global floor exceeds the bound
/// the policy is held to (BoundedSlack: the window; spatial: diameter × T),
/// overshoot allowance included. The first needs no fault plan; the third
/// exceeds it by ~2,000 cycles while the machine is partitioned.
const KNOWN_BREAKS: [(Case, &str); 3] = [
    (
        Case(Dm, Kernel("SpMxV"), SLACK, NoPlan, Whole, 78),
        "sanitizer: violated global-drift",
    ),
    (
        Case(Dm, Kernel("SpMxV"), SLACK, Partition, preempt(2), 78),
        "sanitizer: violated global-drift",
    ),
    (
        Case(
            Dm,
            Kernel("Connected Components"),
            SPATIAL,
            Partition,
            Resume,
            205,
        ),
        "sanitizer: violated global-drift",
    ),
];

/// `Err` saying how `case`'s failures differ from the ones pinned for it.
fn check_as_pinned(case: Case) -> Result<(), String> {
    let failed = case.check(&ALL_CHECKS);
    let pinned: Vec<&str> = KNOWN_BREAKS
        .iter()
        .filter(|(c, _)| *c == case)
        .map(|b| b.1)
        .collect();
    match failed == pinned {
        true => Ok(()),
        false => Err(format!(
            "{case:?}\n  failed: {failed:?}\n  pinned: {pinned:?}"
        )),
    }
}

/// Expected failures: see [`KNOWN_BREAKS`].
#[test]
fn known_breaks_still_break() {
    let wrong: Vec<String> = KNOWN_BREAKS
        .iter()
        .filter_map(|(case, _)| check_as_pinned(*case).err())
        .collect();
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// Cases drawn uniformly from the grid these axis values span, with every
/// cut and seeds below 1,000.
fn cases(
    machines: &[Machine],
    workloads: &[Workload],
    policies: &[SyncPolicy],
    faults: &[Fault],
) -> impl Strategy<Value = Case> {
    use prop::sample::select;
    // Two nested tuples: the shim's tuple strategies stop at five.
    let cuts = select(vec![Whole, Resume, preempt(1), preempt(2)]);
    let axes = (select(machines.to_vec()), select(workloads.to_vec()));
    let more = (
        select(policies.to_vec()),
        select(faults.to_vec()),
        cuts,
        0u64..1_000,
    );
    (axes, more).prop_map(|((m, w), (p, f, c, seed))| Case(m, w, p, f, c, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(DRAWN))]

    /// The whole grid on the 16-core machines.
    #[test]
    fn drawn_cases_keep_every_contract(
        case in cases(&[Sm, Dm, Smc], &[kernels(), protocols()].concat(), &POLICIES,
            &[NoPlan, EmptyPlan, Sampled, Partition])
    ) {
        let checked = check_as_pinned(case);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(DRAWN_CHIPLET))]

    /// The chiplet machine where one debug-build run of it takes a fraction
    /// of a second. Left out, with what one debug run took there on a 2-CPU
    /// x86_64 host (0.1-0.3 s otherwise): the protocols, which run a node on
    /// every core (3.5 s and 200k picks for gossip, spatial policy); the
    /// global policies, whose floor tree debug builds check against an
    /// O(cores) sweep on every query (1-3.4 s); the sampled plan (0.3-1.2 s
    /// per kernel with the sanitizer on), which `fault_determinism.rs` runs
    /// as a named quicksort case so that this draw stays as it is.
    #[test]
    fn drawn_chiplet_cases_keep_every_contract(
        case in cases(&[Chiplet], &kernels(), &[SPATIAL, SyncPolicy::Unbounded],
            &[NoPlan, EmptyPlan, Partition])
    ) {
        let checked = check_as_pinned(case);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}
