//! Fault-injection determinism and resilience suite (PR 2 acceptance):
//!
//! (a) same seed + same fault plan → identical results across runs;
//! (b) an *empty* fault plan is bit-identical to *no* fault plan, for
//!     every synchronization policy (the no-fault path is untouched);
//! (c) a partitioned topology terminates gracefully (no deadlock,
//!     partition reported), and a transient-failure run completes with
//!     retries > 0 and correct join semantics.

use simany::core::{SimStats, SyncPolicy, VDuration, VirtualTime};
use simany::fault::{FaultConfig, FaultPlan, FaultPlanBuilder};
use simany::kernels::{kernel_by_name, Scale};
use simany::prelude::{run_program, CoreId, TaskCtx};
use simany::presets;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The counters a behavioral divergence would show up in, fault counters
/// included.
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
    msgs_dropped: u64,
    msgs_corrupted: u64,
    msg_retries: u64,
    reroutes: u64,
    core_failures: u64,
    link_faults: u64,
    partitions_observed: u64,
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
            msgs_dropped: stats.msgs_dropped,
            msgs_corrupted: stats.msgs_corrupted,
            msg_retries: stats.msg_retries,
            reroutes: stats.reroutes,
            core_failures: stats.core_failures,
            link_faults: stats.link_faults,
            partitions_observed: stats.partitions_observed,
        }
    }
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

fn run_kernel(policy: SyncPolicy, plan: Option<FaultPlan>) -> Fingerprint {
    let mut spec = presets::uniform_mesh_sm(16);
    spec.engine.sync = policy;
    if let Some(plan) = plan {
        spec.engine = spec.engine.with_fault_plan(Arc::new(plan));
    }
    let kernel = kernel_by_name("Quicksort").unwrap();
    let res = kernel
        .run_sim(spec, Scale(0.1), 42)
        .expect("simulation failed");
    assert!(res.verified, "kernel output verification failed");
    Fingerprint::of(&res.out.stats)
}

fn sampled_plan(seed: u64) -> FaultPlan {
    let topo = presets::uniform_mesh_sm(16).topo;
    let cfg = FaultConfig {
        link_fail_prob: 0.15,
        repair_after: Some(VDuration::from_cycles(5_000)),
        drop_prob: 0.05,
        core_fail_prob: 0.05,
        horizon: VirtualTime::from_cycles(20_000),
        ..FaultConfig::default()
    };
    FaultPlan::sample(&topo, &cfg, seed)
}

/// (a) Same seed + same fault plan: two runs are identical, under every
/// policy, fault counters included.
#[test]
fn faulty_runs_are_reproducible_per_policy() {
    for (name, policy) in all_policies() {
        let a = run_kernel(policy, Some(sampled_plan(7)));
        let b = run_kernel(policy, Some(sampled_plan(7)));
        assert_eq!(a, b, "policy {name}: two identical faulty runs diverged");
    }
}

/// (b) An empty fault plan must be bit-identical to no fault plan at all:
/// the no-fault path makes zero extra PRNG draws and zero behavioral
/// changes, under every policy.
#[test]
fn empty_plan_is_bit_exact_with_no_plan() {
    let topo = presets::uniform_mesh_sm(16).topo;
    for (name, policy) in all_policies() {
        let without = run_kernel(policy, None);
        let with_empty = run_kernel(policy, Some(FaultPlan::empty(&topo)));
        assert_eq!(
            without, with_empty,
            "policy {name}: an empty fault plan changed observable behavior"
        );
    }
}

/// A faulty run actually exercises the fault machinery (drops happen) yet
/// still verifies — and differs from the clean run, proving the plan was
/// not silently ignored.
#[test]
fn sampled_faults_change_behavior_but_not_correctness() {
    let policy = SyncPolicy::Spatial {
        t: VDuration::from_cycles(100),
    };
    let clean = run_kernel(policy, None);
    let faulty = run_kernel(policy, Some(sampled_plan(7)));
    assert!(faulty.link_faults > 0, "plan sampled no link faults");
    assert!(faulty.msgs_dropped > 0, "plan dropped no messages");
    assert_ne!(clean, faulty, "fault plan had no observable effect");
}

/// (c.1) A topology partitioned by the fault plan terminates gracefully:
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

/// (c.2) Transient failures: messages are dropped and retried, the run
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
