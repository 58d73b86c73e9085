//! Fault injection: the same program on a healthy and on a faulty mesh.
//!
//! ```sh
//! cargo run --release --example faulty_mesh
//! ```
//!
//! Three configurations of a 64-core mesh running the same fan-out
//! workload:
//!
//! 1. **clean** — no fault plan; bit-identical to a run with an *empty*
//!    plan (the determinism suite asserts this).
//! 2. **scripted** — a hand-built [`FaultPlanBuilder`] plan: one link pair
//!    dies early and recovers later (traffic reroutes around it), one
//!    core fails outright (probes are denied, spawns fall back to running
//!    locally), and one link drops a fraction of its messages (the
//!    runtime retries with exponential backoff).
//! 3. **sampled** — the same fault classes sampled from a seed via
//!    [`FaultPlan::sample`]; same seed, same plan, same results.

use simany::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn fan_out(tc: &mut TaskCtx<'_>, lo: u64, hi: u64, group: simany::runtime::GroupId) {
    if hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        tc.spawn_or_run(group, move |tc: &mut TaskCtx<'_>| {
            fan_out(tc, mid, hi, group);
        });
        fan_out(tc, lo, mid, group);
        return;
    }
    for _ in 0..20 {
        tc.compute(&BlockCost::new().int_alu(80).cond_branches(20));
    }
}

fn run_with(plan: Option<FaultPlan>) -> (u64, RunOutput) {
    let done = Arc::new(AtomicU64::new(0));
    let done2 = Arc::clone(&done);
    let mut spec = simany::presets::uniform_mesh_sm(64);
    if let Some(plan) = plan {
        spec.engine = spec.engine.with_fault_plan(Arc::new(plan));
    }
    let out = run_program(spec, move |tc| {
        let group = tc.make_group();
        fan_out(tc, 0, 128, group);
        tc.join(group);
        done2.fetch_add(1, Ordering::SeqCst);
    })
    .expect("simulation failed");
    (done.load(Ordering::SeqCst), out)
}

fn report(name: &str, done: u64, out: &RunOutput) {
    let s = &out.stats;
    println!("--- {name}");
    println!("  completed       : {} (joined {done} root task)", done > 0);
    println!("  virtual time    : {} cycles", out.vtime_cycles());
    println!(
        "  spawns/fallbacks: {} / {}",
        out.rt.spawns, out.rt.sequential_fallbacks
    );
    println!(
        "  faults          : {} link faults, {} core failures, {} partitions",
        s.link_faults, s.core_failures, s.partitions_observed
    );
    println!(
        "  drops/retries   : {} / {}  (reroutes {}, local fallbacks {})",
        s.msgs_dropped, s.msg_retries, s.net.rerouted, out.rt.fault_local_runs
    );
}

fn main() {
    let topo = simany::presets::uniform_mesh_sm(64).topo;

    // 1. Clean baseline.
    let (done, clean) = run_with(None);
    report("clean 64-core mesh", done, &clean);

    // 2. Scripted plan: cut the 27<->28 link pair from cycle 2_000 to
    //    30_000, fail core 9 at cycle 5_000, and make the 0->1 link lossy.
    let cut_a = topo
        .link_between(CoreId(27), CoreId(28))
        .expect("mesh link");
    let cut_b = topo
        .link_between(CoreId(28), CoreId(27))
        .expect("mesh link");
    let lossy = topo.link_between(CoreId(0), CoreId(1)).expect("mesh link");
    let plan = FaultPlanBuilder::new()
        .fail_link(cut_a, VirtualTime::from_cycles(2_000))
        .fail_link(cut_b, VirtualTime::from_cycles(2_000))
        .recover_link(cut_a, VirtualTime::from_cycles(30_000))
        .recover_link(cut_b, VirtualTime::from_cycles(30_000))
        .fail_core(CoreId(9), VirtualTime::from_cycles(5_000))
        .drop_prob(lossy, 0.3)
        .build(&topo);
    let (done, scripted) = run_with(Some(plan));
    report(
        "scripted faults (link cut + dead core + lossy link)",
        done,
        &scripted,
    );

    // 3. Sampled plan: the same classes of faults drawn from a seed. Same
    //    seed => same plan => bit-identical results, run after run.
    let cfg = FaultConfig {
        link_fail_prob: 0.10,
        repair_after: Some(VDuration::from_cycles(25_000)),
        drop_prob: 0.02,
        core_fail_prob: 0.03,
        horizon: VirtualTime::from_cycles(50_000),
        ..FaultConfig::default()
    };
    let (done, sampled) = run_with(Some(FaultPlan::sample(&topo, &cfg, 42)));
    report("sampled faults (seed 42)", done, &sampled);
    let (_, again) = run_with(Some(FaultPlan::sample(&topo, &cfg, 42)));
    assert_eq!(sampled.vtime_cycles(), again.vtime_cycles());
    assert_eq!(sampled.stats.msgs_dropped, again.stats.msgs_dropped);
    println!("\nsampled run repeated with the same seed: bit-identical.");
}
