//! End-to-end integration: every kernel on every architecture class, with
//! output verification against sequential references.

mod common;

use common::{assert_checks, Case, ALL_CHECKS, SPATIAL};
use common::{Kernel, NoPlan, Sm, Whole};
use simany::prelude::*;
use simany::presets;

const SMALL: Scale = Scale(0.05);

#[test]
fn all_kernels_verify_on_shared_memory_mesh() {
    for kernel in all_kernels() {
        let r = kernel
            .run_sim(presets::uniform_mesh_sm(8), SMALL, 1)
            .unwrap_or_else(|e| panic!("{} failed: {e}", kernel.name()));
        assert!(r.verified, "{} output mismatch", kernel.name());
        assert!(r.cycles() > 0, "{} did no work", kernel.name());
    }
}

#[test]
fn all_kernels_verify_on_distributed_memory_mesh() {
    for kernel in all_kernels() {
        let r = kernel
            .run_sim(presets::uniform_mesh_dm(8), SMALL, 1)
            .unwrap_or_else(|e| panic!("{} failed: {e}", kernel.name()));
        assert!(r.verified, "{} output mismatch (DM)", kernel.name());
    }
}

#[test]
fn all_kernels_verify_with_coherence_timings() {
    for kernel in all_kernels() {
        let r = kernel
            .run_sim(presets::uniform_mesh_sm_coherent(8), SMALL, 1)
            .unwrap_or_else(|e| panic!("{} failed: {e}", kernel.name()));
        assert!(r.verified, "{} output mismatch (coherent)", kernel.name());
    }
}

#[test]
fn all_kernels_verify_on_clustered_and_polymorphic_machines() {
    for kernel in all_kernels() {
        let r = kernel
            .run_sim(presets::clustered_dm(16, 4), SMALL, 2)
            .unwrap_or_else(|e| panic!("{} clustered failed: {e}", kernel.name()));
        assert!(r.verified, "{} clustered mismatch", kernel.name());
        let r = kernel
            .run_sim(presets::polymorphic_sm(16), SMALL, 2)
            .unwrap_or_else(|e| panic!("{} polymorphic failed: {e}", kernel.name()));
        assert!(r.verified, "{} polymorphic mismatch", kernel.name());
    }
}

#[test]
fn all_kernels_verify_on_cycle_level_reference() {
    for kernel in all_kernels() {
        let r = kernel
            .run_sim(presets::cycle_level(4), SMALL, 3)
            .unwrap_or_else(|e| panic!("{} CL failed: {e}", kernel.name()));
        assert!(r.verified, "{} CL output mismatch", kernel.name());
    }
}

#[test]
fn polymorphic_machine_matches_uniform_aggregate_roughly() {
    // Equal aggregate computing power: a compute-bound kernel should land
    // within ~2x of the uniform machine's completion time.
    let k = simany::kernels::kernel_by_name("SpMxV").unwrap();
    let uni = k
        .run_sim(presets::uniform_mesh_sm(16), Scale(0.2), 5)
        .unwrap();
    let poly = k
        .run_sim(presets::polymorphic_sm(16), Scale(0.2), 5)
        .unwrap();
    let ratio = poly.cycles() as f64 / uni.cycles() as f64;
    assert!(
        (0.5..2.5).contains(&ratio),
        "polymorphic/uniform ratio {ratio:.2}"
    );
}

#[test]
fn custom_topology_from_config_runs_program() {
    // Exercise the adjacency-matrix config path end to end.
    let cfg = "\
cores 4
default latency=1 bandwidth=128
matrix
0 1 1 0
1 0 0 1
1 0 0 1
0 1 1 0
link 0 1 latency=0.5
";
    let topo = simany::topology::parse_topology(cfg).unwrap();
    let mut spec = ProgramSpec::new(topo);
    spec.runtime = RuntimeParams::shared_memory();
    let out = run_program(spec, |tc| {
        let g = tc.make_group();
        for _ in 0..4 {
            tc.spawn_or_run(g, |tc: &mut TaskCtx<'_>| tc.work(500));
        }
        tc.join(g);
    })
    .unwrap();
    assert!(
        out.vtime_cycles() < 2000,
        "no parallelism on custom topology"
    );
}

/// Dijkstra (seed 7) on the 16-core `sm` mesh is held to every check of
/// the shared harness (`tests/common`).
#[test]
fn deterministic_end_to_end() {
    let dijkstra = Case(Sm, Kernel("Dijkstra"), SPATIAL, NoPlan, Whole, 7);
    assert_checks([dijkstra], &ALL_CHECKS);
}

#[test]
fn drift_parameter_trades_stalls_for_speed() {
    // Larger T => fewer synchronization stalls (the Fig. 10/11 mechanism).
    let k = simany::kernels::kernel_by_name("Quicksort").unwrap();
    let tight = k
        .run_sim(
            presets::with_drift(presets::uniform_mesh_sm(16), 50),
            SMALL,
            3,
        )
        .unwrap();
    let loose = k
        .run_sim(
            presets::with_drift(presets::uniform_mesh_sm(16), 1000),
            SMALL,
            3,
        )
        .unwrap();
    assert!(tight.verified && loose.verified);
    assert!(
        loose.out.stats.stall_events <= tight.out.stats.stall_events,
        "stalls: loose {} > tight {}",
        loose.out.stats.stall_events,
        tight.out.stats.stall_events
    );
}

#[test]
fn many_core_machine_smoke() {
    // A 256-core machine end to end: routes messages, spreads work,
    // verifies output. (The 1024-core sweeps are the figure specs in
    // examples/sweeps/.)
    let k = simany::kernels::kernel_by_name("Octree").unwrap();
    let r = k
        .run_sim(simany::presets::uniform_mesh_sm(256), Scale(1.0), 5)
        .unwrap();
    assert!(r.verified);
    assert!(r.out.stats.activities_started > 50);
    let active = r.out.stats.busy.active;
    assert!(active > 16, "work never spread: {active} active cores");
}

#[test]
fn task_panic_surfaces_as_error() {
    let err = run_program(simany::presets::uniform_mesh_sm(4), |tc| {
        let g = tc.make_group();
        tc.spawn_or_run(g, |_tc: &mut TaskCtx<'_>| {
            panic!("intentional-kernel-bug");
        });
        tc.join(g);
    })
    .unwrap_err();
    assert!(format!("{err}").contains("intentional-kernel-bug"));
}
