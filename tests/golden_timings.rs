//! Golden virtual-time regression tests.
//!
//! Simulations are fully deterministic: a fixed (kernel, machine, scale,
//! seed) tuple must produce the exact same virtual completion time on
//! every run, platform and toolchain. These pins guard the whole timing
//! stack — cost model, branch predictor streams, memory models, network
//! contention, protocol costs and scheduler order — against accidental
//! drift. If a timing model changes *intentionally*, regenerate the
//! values and say so in the commit.

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
// Threaded schedule pins (`threads > 1`).
//
// Every other `threads > 1` test asserts run A == run B, so a change that
// alters the threaded schedule *deterministically* passes them all. These
// rows pin the schedule itself: the epoch coordinator's pick order, which
// activities each epoch grants and how often a body is resumed. Captured
// at 2a1463f (before epoch members moved onto `coro` contexts); a change
// of mechanism must leave them alone, a change of scheduling policy must
// regenerate them and say so. (The digest column alone was regenerated
// with checkpoint format v2, which digests exposed values and no host-work
// counters; the five schedule columns are the 2a1463f ones.)

use simany::core::{Checkpoint, EngineConfig, SimStats, SyncPolicy, VDuration, VirtualTime};
use simany::fault::FaultPlanBuilder;
use simany::kernels::protocols::protocol_by_name;
use std::sync::Arc;

/// `(final_vtime cycles, scheduler_picks, activity_resumes,
/// parallel_epochs, epoch_grants, state digest of the last checkpoint)`.
type ThreadedPin = (u64, u64, u64, u64, u64, u64);

/// Checkpoint cadence of the pinned runs: coarse enough to stay cheap,
/// fine enough that the last waypoint sits in the second half of each run.
const PIN_CHECKPOINT_CYCLES: u64 = 5_000;

fn pin_of(stats: &SimStats, checkpoint: &std::path::Path) -> ThreadedPin {
    let cp = Checkpoint::load(checkpoint).expect("pinned run left no checkpoint");
    let _ = std::fs::remove_dir_all(checkpoint.parent().unwrap());
    (
        stats.final_vtime.cycles(),
        stats.scheduler_picks,
        stats.activity_resumes,
        stats.parallel_epochs,
        stats.epoch_grants,
        cp.state_digest,
    )
}

fn pin_config(engine: EngineConfig, threads: u32, tag: &str) -> (EngineConfig, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("simany-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pin.checkpoint");
    let engine = engine
        .with_seed(7)
        .with_threads(threads)
        .with_checkpoint(VDuration::from_cycles(PIN_CHECKPOINT_CYCLES), &path);
    (engine, path)
}

/// A dwarf kernel on a 256-core distributed-memory mesh (the `simulate
/// --kernel K --cores 256 --arch dm --seed 7` machine).
fn kernel_pin(kernel: &str, scale: f64, threads: u32, policy: Option<SyncPolicy>) -> ThreadedPin {
    let mut spec = presets::uniform_mesh_dm(256);
    if let Some(policy) = policy {
        spec.engine.sync = policy;
    }
    let (engine, path) = pin_config(spec.engine, threads, &format!("{kernel}-{threads}"));
    spec.engine = engine;
    let res = kernel_by_name(kernel)
        .unwrap()
        .run_sim(spec, Scale(scale), 7)
        .expect("pinned kernel run failed");
    assert!(res.verified);
    pin_of(&res.out.stats, &path)
}

/// Gossip on 64 cores with the mesh cut in halves from cycle 5,000 to
/// cycle 30,000.
fn gossip_pin(threads: u32) -> ThreadedPin {
    let mut spec = presets::uniform_mesh_sm(64);
    let plan = FaultPlanBuilder::new()
        .partition_halves(
            &spec.topo,
            VirtualTime::from_cycles(5_000),
            Some(VirtualTime::from_cycles(30_000)),
        )
        .build(&spec.topo);
    let (engine, path) = pin_config(
        spec.engine.with_fault_plan(Arc::new(plan)),
        threads,
        &format!("gossip-{threads}"),
    );
    spec.engine = engine;
    let o = protocol_by_name("Gossip")
        .unwrap()
        .run_sim(spec, Scale(1.0), 7)
        .expect("pinned protocol run failed");
    assert!(o.verified);
    pin_of(&o.out.stats, &path)
}

#[test]
fn golden_threaded_schedules() {
    let rows: Vec<(&str, ThreadedPin, ThreadedPin)> = vec![
        (
            "quicksort-256-dm threads=2",
            kernel_pin("Quicksort", 1.0, 2, None),
            (370622, 85600, 9331, 9331, 10320, 5520254283343639118),
        ),
        (
            "quicksort-256-dm threads=4",
            kernel_pin("Quicksort", 1.0, 4, None),
            (370622, 85600, 9331, 9331, 10320, 5520254283343639118),
        ),
        (
            "dijkstra-256-dm threads=2",
            kernel_pin("Dijkstra", 1.0, 2, None),
            (42365, 2810613, 37607, 34332, 67102, 6774630703209172130),
        ),
        // (No dijkstra row at threads=4: its task bodies share the
        // tentative-distance array natively, so when members of two tiles
        // relax the same vertex in one epoch the outcome is a host race —
        // at 2a1463f this run already alternates between two schedules
        // on a 2-CPU host, and a single claiming worker makes it repeat.
        // The threads=2 row above has repeated in every run made, 70 of
        // them, with and without a competing busy loop. SpMxV's bodies
        // share nothing.)
        (
            "spmxv-256-dm threads=4",
            kernel_pin("SpMxV", 1.0, 4, None),
            (124058, 721228, 31017, 31017, 31434, 13247565790110552347),
        ),
        (
            "gossip-64 partitioned threads=2",
            gossip_pin(2),
            (64935, 76097, 2623, 1466, 3008, 10787818897933690125),
        ),
        (
            "gossip-64 partitioned threads=4",
            gossip_pin(4),
            (65242, 35631, 2450, 781, 2779, 15303064807458022807),
        ),
        (
            "dijkstra-256-dm bounded-slack threads=2",
            kernel_pin(
                "Dijkstra",
                0.5,
                2,
                Some(SyncPolicy::BoundedSlack {
                    window: VDuration::from_cycles(100),
                }),
            ),
            (20180, 1194308, 19361, 19230, 36393, 12817043790475425861),
        ),
    ];
    // Report every drifted row at once, in the table's own syntax.
    let drifted: Vec<String> = rows
        .iter()
        .filter(|(_, got, pinned)| got != pinned)
        .map(|(name, got, pinned)| format!("{name}: got {got:?}, pinned {pinned:?}"))
        .collect();
    assert!(
        drifted.is_empty(),
        "threaded schedule changed:\n{}",
        drifted.join("\n")
    );
}

// ---------------------------------------------------------------------
// Sequential schedule pins for the global policies.
//
// `golden_threaded_schedules` sees BoundedSlack through one `threads=2`
// row and Conservative — the order `simany-cyclelevel`, hence every
// accuracy number, runs on — not at all. These rows pin both at
// `threads=1` on `kernel_pin`'s machine. Captured at a19362e; they move
// if `sync::publish_global` stops rechecking the publishing core's
// neighbors, which looks redundant beside the floor-threshold wake and
// is not (DESIGN.md §14).

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
