//! Fault-injection determinism and resilience: the same seed and fault plan
//! give the same run, an empty plan gives the run no plan gives (both
//! checks of the shared harness, `tests/common`), a sampled plan bites
//! without breaking the output, a partitioned topology terminates
//! gracefully (no deadlock, partition reported), and a transient-failure
//! run completes with retries and correct join semantics.

mod common;

use common::*;
use simany::core::VirtualTime;
use simany::fault::FaultPlanBuilder;
use simany::kernels::{kernel_by_name, Scale};
use simany::prelude::{run_program, CoreId, TaskCtx};
use simany::presets;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Same seed and same sampled fault plan: two runs agree on every
/// deterministic output, fault counters included, under every policy, and
/// the sanitizer watching changes nothing.
#[test]
fn faulty_runs_are_reproducible_per_policy() {
    let cases = POLICIES.map(|p| quicksort(Sm, p, Sampled, Whole));
    assert_checks(cases, &ALL_CHECKS);
}

/// The 1,024-core chiplet under the sampled plan, run whole and resumed
/// from a checkpoint: links fail and repair over hundreds of epochs, and
/// only the messages whose base route crosses a dead link take an epoch's
/// rows. Every contract holds.
#[test]
fn sampled_chiplet_runs_keep_every_contract() {
    let cases = [Whole, Resume].map(|c| quicksort(Chiplet, SPATIAL, Sampled, c));
    assert_checks(cases, &ALL_CHECKS);
}

/// An empty fault plan is bit-identical to no fault plan at all: the
/// no-fault path makes no extra PRNG draw and no behavioral change, under
/// every policy.
#[test]
fn empty_plan_is_bit_exact_with_no_plan() {
    let cases = POLICIES.map(|p| quicksort(Sm, p, NoPlan, Whole));
    assert_checks(cases, &[Check::EmptyPlan]);
}

/// A sampled plan is not silently ignored: links fail and messages drop,
/// the run differs from the clean one, and its output still verifies.
#[test]
fn sampled_faults_change_behavior_but_not_correctness() {
    let run = |fault| {
        let spec = quicksort(Sm, SPATIAL, fault, Whole).spec();
        let kernel = kernel_by_name("Quicksort").unwrap();
        let res = kernel
            .run_sim(spec, Scale(0.1), 42)
            .expect("simulation failed");
        assert!(res.verified, "kernel output verification failed");
        res.out.stats
    };
    let (clean, faulty) = (run(NoPlan), run(Sampled));
    assert!(faulty.link_faults > 0, "plan sampled no link faults");
    assert!(faulty.msgs_dropped > 0, "plan dropped no messages");
    assert_ne!(
        (clean.final_vtime, clean.scheduler_picks, clean.net.messages),
        (
            faulty.final_vtime,
            faulty.scheduler_picks,
            faulty.net.messages
        ),
        "fault plan had no observable effect"
    );
}

/// A topology partitioned by the fault plan terminates gracefully:
/// no deadlock, the partition is reported, and tasks that could not cross
/// the cut ran locally instead.
#[test]
fn partitioned_run_terminates_and_reports() {
    // 2x2 mesh: cores 0-1 / 2-3 in one column each. Cutting both vertical
    // link pairs (0<->2, 1<->3) splits the chip in half.
    let mut spec = presets::uniform_mesh_sm(4);
    let topo = spec.topo.clone();
    let mut b = FaultPlanBuilder::new();
    for (a, z) in [(0u32, 2u32), (2, 0), (1, 3), (3, 1)] {
        let l = topo
            .link_between(CoreId(a), CoreId(z))
            .expect("mesh link present");
        b = b.fail_link(l, VirtualTime::from_cycles(50));
    }
    let plan = b.build(&topo);
    spec.engine = spec.engine.with_fault_plan(Arc::new(plan));

    let done = Arc::new(AtomicU64::new(0));
    let done2 = Arc::clone(&done);
    let out = run_program(spec, move |tc| {
        let group = tc.make_group();
        for _ in 0..16 {
            let d = Arc::clone(&done2);
            tc.spawn_or_run(group, move |tc: &mut TaskCtx<'_>| {
                tc.work(5_000);
                d.fetch_add(1, Ordering::SeqCst);
            });
        }
        tc.join(group);
        done2.fetch_add(100, Ordering::SeqCst);
    })
    .expect("partitioned run failed to terminate");
    // All 16 tasks ran and the join completed (the +100 marker).
    assert_eq!(done.load(Ordering::SeqCst), 116);
    assert!(
        out.stats.partitions_observed > 0,
        "partition was not reported"
    );
    assert!(out.stats.link_faults >= 4);
}

/// Transient failures: messages are dropped and retried, the run
/// completes with retries > 0 and every task still joins exactly once.
#[test]
fn transient_faults_retry_and_join_correctly() {
    let mut spec = presets::uniform_mesh_sm(16);
    let topo = spec.topo.clone();
    // Make every link lossy enough that retries must happen somewhere.
    let mut b = FaultPlanBuilder::new();
    for i in 0..topo.n_links() {
        b = b.drop_prob(simany::topology::LinkId(i), 0.25);
    }
    let plan = b.build(&topo);
    spec.engine = spec.engine.with_fault_plan(Arc::new(plan));

    let done = Arc::new(AtomicU64::new(0));
    let done2 = Arc::clone(&done);
    let out = run_program(spec, move |tc| {
        let group = tc.make_group();
        for _ in 0..32 {
            let d = Arc::clone(&done2);
            tc.spawn_or_run(group, move |tc: &mut TaskCtx<'_>| {
                tc.work(2_000);
                d.fetch_add(1, Ordering::SeqCst);
            });
        }
        tc.join(group);
    })
    .expect("lossy run failed to terminate");
    assert_eq!(
        done.load(Ordering::SeqCst),
        32,
        "every task must run exactly once despite drops"
    );
    assert!(out.stats.msgs_dropped > 0, "no messages were dropped");
    assert!(out.stats.msg_retries > 0, "no retries happened");
    // Retried sends show up in the runtime's counters too.
    assert!(out.rt.send_retries > 0);
}
