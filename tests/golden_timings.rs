//! Golden virtual-time regression tests.
//!
//! Simulations are fully deterministic: a fixed (kernel, machine, scale,
//! seed) tuple must produce the exact same virtual completion time on
//! every run, platform and toolchain. These pins guard the whole timing
//! stack — cost model, branch predictor streams, memory models, network
//! contention, protocol costs and scheduler order — against accidental
//! drift. If a timing model changes *intentionally*, regenerate the
//! values and say so in the commit.

use simany::core::{SyncPolicy, VDuration};
use simany::kernels::{kernel_by_name, Scale};
use simany::presets;

const GOLDEN: &[(&str, u64, u64)] = &[
    // (kernel, shared-memory cycles, distributed-memory cycles)
    // 16-core mesh, Scale(0.1), seed 42.
    ("Barnes-Hut", 11533, 13321),
    ("Connected Components", 3930, 6933),
    ("Dijkstra", 4638, 7088),
    ("Quicksort", 73655, 41667),
    ("SpMxV", 11277, 12634),
    ("Octree", 1537, 1379),
];

#[test]
fn golden_virtual_times_shared_memory() {
    for &(name, sm, _) in GOLDEN {
        let k = kernel_by_name(name).unwrap();
        let r = k
            .run_sim(presets::uniform_mesh_sm(16), Scale(0.1), 42)
            .unwrap();
        assert!(r.verified);
        assert_eq!(
            r.cycles(),
            sm,
            "{name} SM timing drifted (got {}, pinned {sm})",
            r.cycles()
        );
    }
}

#[test]
fn golden_virtual_times_distributed_memory() {
    for &(name, _, dm) in GOLDEN {
        let k = kernel_by_name(name).unwrap();
        let r = k
            .run_sim(presets::uniform_mesh_dm(16), Scale(0.1), 42)
            .unwrap();
        assert!(r.verified);
        assert_eq!(
            r.cycles(),
            dm,
            "{name} DM timing drifted (got {}, pinned {dm})",
            r.cycles()
        );
    }
}

// ---------------------------------------------------------------------
// Sequential schedule pins for the global policies.
//
// The tables above run the paper's spatial policy only. These rows pin
// BoundedSlack and Conservative — the order `simany-cyclelevel`, hence
// every accuracy number, runs on — on the `simulate --cores 256 --arch dm
// --seed 7` machine. Captured at a19362e; they move if
// `sync::publish_global` stops rechecking the publishing core's
// neighbors, which looks redundant beside the floor-threshold wake and is
// not (DESIGN.md §14).

#[test]
fn golden_global_policy_schedules() {
    let bounded_slack = SyncPolicy::BoundedSlack {
        window: VDuration::from_cycles(100),
    };
    let conservative = SyncPolicy::Conservative;
    // (kernel, policy, (final_vtime cycles, scheduler_picks,
    // activity_resumes, stall_events))
    let rows = [
        ("Quicksort", bounded_slack, (324290, 13317, 5297, 3445)),
        ("Quicksort", conservative, (316992, 15250, 7413, 5571)),
        ("SpMxV", bounded_slack, (48908, 48129, 16296, 5496)),
        ("SpMxV", conservative, (44587, 54770, 39353, 29033)),
        (
            "Connected Components",
            bounded_slack,
            (22918, 47589, 14533, 3120),
        ),
    ];
    let drifted: Vec<String> = rows
        .iter()
        .filter_map(|&(kernel, policy, pinned)| {
            let mut spec = presets::uniform_mesh_dm(256);
            spec.engine = spec.engine.with_seed(7);
            spec.engine.sync = policy;
            let res = kernel_by_name(kernel)
                .unwrap()
                .run_sim(spec, Scale(0.5), 7)
                .expect("pinned kernel run failed");
            assert!(res.verified);
            let s = &res.out.stats;
            let got = (
                s.final_vtime.cycles(),
                s.scheduler_picks,
                s.activity_resumes,
                s.stall_events,
            );
            (got != pinned).then(|| format!("{kernel} {policy:?}: got {got:?}, pinned {pinned:?}"))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "sequential global-policy schedule changed:\n{}",
        drifted.join("\n")
    );
}

// ---------------------------------------------------------------------
// Shadow relaxation host work under a lagging core.
//
// Quicksort keeps a few cores far behind the front; when one of them goes
// idle under the idle region its clock supported, a first-in-first-out
// relaxation counts that region up `2T` a round until the cap stops it
// (59 evaluations per publish sweep on the 256-core run below, 178 on the
// 1024-core one). `sync::settle_region` computes the region's words
// directly, and in debug builds asserts that each one it stores is the
// shadow of its neighbors' final words. The schedules are pinned beside
// the bounds: settling changes the host work of a sweep, never its fixed
// point.

#[test]
fn a_lagging_core_going_idle_does_not_count_its_region_up() {
    // (cores, seed, scheduler picks, final vtime cycles, bound on shadow
    // evaluations per publish sweep)
    let runs = [(256, 2, 11906, 177369, 20), (1024, 7, 12019, 321525, 60)];
    for (cores, seed, picks, vtime, per_sweep) in runs {
        let mut spec = presets::uniform_mesh_dm(cores);
        spec.engine = spec.engine.with_seed(seed);
        spec.engine.sanitize = true;
        let res = kernel_by_name("Quicksort")
            .unwrap()
            .run_sim(spec, Scale(0.5), seed)
            .expect("quicksort run failed");
        assert!(res.verified);
        let s = &res.out.stats;
        let run = format!("quicksort-{cores}-dm seed {seed}");
        assert_eq!(s.sanitizer_violations, 0, "{run}: sanitizer violations");
        assert!(s.sanitizer_checks > 0, "{run}: the sanitizer ran no checks");
        assert_eq!(
            (s.scheduler_picks, s.final_vtime.cycles()),
            (picks, vtime),
            "{run}: schedule moved"
        );
        assert!(
            s.shadow_evals < per_sweep * s.publish_sweeps,
            "{run}: {} shadow evaluations over {} publish sweeps",
            s.shadow_evals,
            s.publish_sweeps
        );
    }
}

// ---------------------------------------------------------------------
// Shared-memory accesses are annotations.
//
// A load or store on a machine without a detailed timing plug-in charges
// a latency known up front, so it takes the drift-headroom fast path like
// any timing annotation: inside the cached headroom with no message due,
// its publish is deferred to the next flush point. The schedules below
// are those of the engine that published and checked the policy after
// every access; the bound on publish sweeps is what the deferral saves
// (84,852 and 111,322 sweeps without it).

#[test]
fn shared_memory_accesses_take_the_annotation_fast_path() {
    // (machine, scheduler picks, final vtime cycles)
    let runs = [
        ("sm", presets::uniform_mesh_sm(64), 9111, 497525),
        ("smc", presets::uniform_mesh_sm_coherent(64), 11525, 838249),
    ];
    for (arch, mut spec, picks, vtime) in runs {
        spec.engine = spec.engine.with_seed(7);
        spec.engine.sanitize = true;
        let res = kernel_by_name("Quicksort")
            .unwrap()
            .run_sim(spec, Scale(0.5), 7)
            .expect("quicksort run failed");
        assert!(res.verified);
        let s = &res.out.stats;
        let run = format!("quicksort-64-{arch} seed 7");
        assert_eq!(s.sanitizer_violations, 0, "{run}: sanitizer violations");
        assert!(s.sanitizer_checks > 0, "{run}: the sanitizer ran no checks");
        assert_eq!(
            (s.scheduler_picks, s.final_vtime.cycles()),
            (picks, vtime),
            "{run}: schedule moved"
        );
        assert!(
            s.publish_sweeps < 20_000,
            "{run}: {} publish sweeps",
            s.publish_sweeps
        );
    }
}
