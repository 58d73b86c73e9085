//! Runtime counter golden: every `RtStats` counter plus the final virtual
//! time, pinned per scenario.
//!
//! The run-time system's counters appear neither in `simulate --json` nor
//! in the sim digest, and `l1_hits`/`l1_misses` are not even folded into
//! the checkpoint state digest, so these rows are what pins the protocol
//! paths of `simany-runtime` (probe/spawn/join, occupancy proxies,
//! migration, cells, locks, retries and their direct-wake fallbacks, the
//! detailed-timing memory path). A refactor of the run-time system must
//! leave every row unchanged; an intentional model change regenerates them
//! from the failure message and says so in the commit.

use simany::core::VirtualTime;
use simany::fault::{FaultConfig, FaultPlan};
use simany::kernels::protocols::protocol_by_name;
use simany::kernels::{kernel_by_name, Scale};
use simany::presets;
use simany::runtime::{run_program, CoreId, ProgramSpec, RtStats, RunOutput, SimError, TaskCtx};
use std::sync::Arc;

const SEED: u64 = 7;

/// `RtStats` field names, in the order of [`counters`].
const FIELDS: [&str; 34] = [
    "probes",
    "probe_acks",
    "probe_nacks",
    "probe_skips",
    "spawns",
    "sequential_fallbacks",
    "task_migrations",
    "occupancy_msgs",
    "joiner_notifies",
    "joins_immediate",
    "joins_suspended",
    "sm_loads",
    "sm_stores",
    "l1_hits",
    "l1_misses",
    "coherence_legs",
    "cell_local",
    "cell_remote",
    "cell_forwards",
    "lock_fast",
    "lock_waits",
    "send_retries",
    "send_failures",
    "probe_unavailable",
    "fault_local_runs",
    "cell_access_failures",
    "app_sends",
    "app_deliveries",
    "app_send_failures",
    "timers_set",
    "timer_fires",
    "timers_stale",
    "pinned_spawns",
    "pinned_spawn_drops",
];

fn counters(s: &RtStats) -> [u64; 34] {
    [
        s.probes,
        s.probe_acks,
        s.probe_nacks,
        s.probe_skips,
        s.spawns,
        s.sequential_fallbacks,
        s.task_migrations,
        s.occupancy_msgs,
        s.joiner_notifies,
        s.joins_immediate,
        s.joins_suspended,
        s.sm_loads,
        s.sm_stores,
        s.l1_hits,
        s.l1_misses,
        s.coherence_legs,
        s.cell_local,
        s.cell_remote,
        s.cell_forwards,
        s.lock_fast,
        s.lock_waits,
        s.send_retries,
        s.send_failures,
        s.probe_unavailable,
        s.fault_local_runs,
        s.cell_access_failures,
        s.app_sends,
        s.app_deliveries,
        s.app_send_failures,
        s.timers_set,
        s.timer_fires,
        s.timers_stale,
        s.pinned_spawns,
        s.pinned_spawn_drops,
    ]
}

/// Seed the spec and, when `faults` asks for any, sample its fault plan
/// the way `simulate` does (same config, same seed).
fn seeded(mut spec: ProgramSpec, faults: Option<FaultConfig>) -> ProgramSpec {
    spec.engine = spec.engine.with_seed(SEED);
    if let Some(cfg) = faults {
        let plan = FaultPlan::sample(&spec.topo, &cfg, SEED);
        spec.engine = spec.engine.with_fault_plan(Arc::new(plan));
    }
    spec
}

/// `simulate --kernel <name> --cores <n> --arch <sm|dm> --seed 7 --scale 0.5`.
fn kernel(name: &str, spec: ProgramSpec, faults: Option<FaultConfig>) -> RunOutput {
    let r = kernel_by_name(name)
        .expect("kernel")
        .run_sim(seeded(spec, faults), Scale(0.5), SEED)
        .expect("kernel run");
    assert!(r.verified, "{name}: result did not verify");
    r.out
}

fn protocol(name: &str) -> RunOutput {
    let faults = FaultConfig {
        partition_at: Some(VirtualTime::from_cycles(5_000)),
        partition_heal: Some(VirtualTime::from_cycles(30_000)),
        churn_cores: 2,
        ..FaultConfig::default()
    };
    let spec = seeded(presets::uniform_mesh_sm(16), Some(faults));
    protocol_by_name(name)
        .expect("protocol")
        .run_sim(spec, Scale(0.5), SEED)
        .expect("protocol run")
        .out
}

fn link_faults() -> FaultConfig {
    FaultConfig {
        link_fail_prob: 0.05,
        repair_after: Some(simany::core::VDuration::from_cycles(3_000)),
        drop_prob: 0.01,
        ..FaultConfig::default()
    }
}

/// Contended locks with local and remote homes: lock `a` lives on core 0
/// (the root's core), each hub task makes a lock on its own core, and the
/// workers pinned around the hubs (the hub's own core included, so some
/// requests are local) alternate between the two.
fn locks(drop_prob: f64) -> Result<RunOutput, SimError> {
    let faults = (drop_prob > 0.0).then(|| FaultConfig {
        drop_prob,
        ..FaultConfig::default()
    });
    let spec = seeded(presets::uniform_mesh_sm(16), faults);
    let worker = |a, b| {
        Box::new(move |tc: &mut TaskCtx<'_>| {
            for i in 0..8 {
                tc.lock(a);
                tc.work(30);
                tc.unlock(a);
                tc.lock(b);
                tc.work(20 + i);
                tc.unlock(b);
                tc.work(10);
            }
        })
    };
    run_program(spec, move |tc| {
        let a = tc.make_lock();
        let root = tc.make_group();
        for (hub, workers) in [(5u32, [5u32, 4, 6, 1, 9]), (10, [10, 9, 11, 6, 14])] {
            tc.spawn_pinned(
                CoreId(hub),
                Some(root),
                "hub",
                Box::new(move |tc: &mut TaskCtx<'_>| {
                    let b = tc.make_lock();
                    let g = tc.make_group();
                    for w in workers {
                        tc.spawn_pinned(CoreId(w), Some(g), "worker", worker(a, b));
                    }
                    tc.join(g);
                }),
            );
        }
        // The root contends on its own (local) lock meanwhile.
        for _ in 0..8 {
            tc.lock(a);
            tc.work(25);
            tc.unlock(a);
            tc.work(15);
        }
        tc.join(root);
    })
}

fn cycle_level() -> RunOutput {
    kernel("spmxv", presets::cycle_level(16), None)
}

/// (scenario, final virtual time in cycles, counters in [`FIELDS`] order).
/// Recorded at the commit before the run-time system's single-borrow
/// rewrite.
const GOLDEN: &[(&str, u64, [u64; 34])] = &[
    (
        "barnes-sm-64",
        83150,
        [
            78, 75, 3, 1, 75, 4, 41, 550, 1, 0, 1, 5045, 0, 0, 5045, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "barnes-dm-64",
        96242,
        [
            79, 79, 0, 0, 79, 0, 46, 558, 1, 0, 1, 0, 0, 0, 0, 0, 349, 4696, 40207, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "connected-sm-64",
        10427,
        [
            1568, 1149, 419, 795, 1149, 36, 308, 8744, 1, 0, 1, 7396, 1223, 2218, 6401, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "connected-dm-64",
        29456,
        [
            2285, 1706, 579, 613, 1706, 19, 909, 15152, 1, 0, 1, 0, 0, 0, 0, 0, 2177, 9197, 1340,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "dijkstra-sm-64",
        12833,
        [
            2936, 2223, 713, 1356, 2223, 0, 1088, 19096, 1, 0, 1, 15492, 3727, 4464, 14755, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "dijkstra-dm-64",
        26024,
        [
            2558, 2071, 487, 602, 2071, 0, 1435, 19802, 1, 0, 1, 0, 0, 0, 0, 0, 4092, 10044, 416,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "quicksort-sm-64",
        497525,
        [
            312, 312, 0, 0, 312, 0, 178, 2080, 1, 0, 1, 33459, 15190, 0, 48649, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "quicksort-dm-64",
        321471,
        [
            621, 620, 1, 0, 620, 1, 345, 4136, 1, 0, 1, 0, 0, 0, 0, 0, 23, 599, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "spmxv-sm-64",
        42599,
        [
            125, 121, 4, 2, 121, 6, 101, 1012, 1, 0, 1, 28462, 1000, 6412, 23050, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "spmxv-dm-64",
        61748,
        [
            127, 123, 4, 0, 123, 4, 121, 1058, 1, 0, 1, 8391, 1000, 1409, 7982, 0, 734, 10513,
            30172, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "octree-sm-64",
        3476,
        [
            160, 153, 7, 0, 153, 7, 82, 1166, 1, 0, 1, 419, 419, 198, 640, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "octree-dm-64",
        4085,
        [
            159, 155, 4, 1, 155, 5, 120, 1352, 1, 0, 1, 0, 0, 0, 0, 0, 76, 343, 347, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "quicksort-dm-64-link-faults",
        323894,
        [
            621, 621, 0, 0, 621, 0, 313, 4284, 1, 0, 1, 0, 0, 0, 0, 0, 26, 596, 0, 0, 0, 38, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "dijkstra-dm-64-link-faults",
        47964,
        [
            2517, 1959, 558, 566, 1959, 0, 1337, 18968, 1, 0, 1, 0, 0, 0, 0, 0, 3904, 9692, 429, 0,
            0, 838, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "connected-dm-64-drop",
        971215,
        [
            2672, 2099, 565, 667, 2088, 36, 652, 16980, 1, 0, 1, 0, 0, 0, 0, 0, 1894, 12161, 427,
            0, 0, 44944, 6357, 0, 9, 6328, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        "gossip-16-partition-churn",
        32083,
        [
            0, 0, 0, 0, 15, 0, 0, 92, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 511, 67, 0, 0, 0, 284,
            217, 67, 196, 143, 53, 15, 0,
        ],
    ),
    (
        "dht-16-partition-churn",
        33832,
        [
            0, 0, 0, 0, 15, 0, 0, 92, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 305, 44, 0, 0, 0, 875,
            831, 44, 186, 140, 46, 15, 0,
        ],
    ),
    (
        "quorum-16-partition-churn",
        32454,
        [
            0, 0, 0, 0, 15, 0, 0, 92, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 895, 83, 0, 0, 0, 450,
            367, 83, 258, 225, 33, 15, 0,
        ],
    ),
    (
        "locks-16",
        4038,
        [
            0, 0, 0, 0, 12, 0, 0, 88, 3, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 85, 83, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 12, 0,
        ],
    ),
    (
        "locks-16-drop",
        42319,
        [
            0, 0, 0, 0, 12, 0, 0, 88, 3, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 77, 91, 181, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 12, 0,
        ],
    ),
    (
        "spmxv-cycle-level-16",
        40510,
        [
            126, 115, 11, 1, 115, 12, 43, 772, 1, 0, 1, 28462, 1000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
];

type Run = Box<dyn Fn() -> RunOutput>;

fn scenarios() -> Vec<(String, Run)> {
    let mut v: Vec<(String, Run)> = Vec::new();
    for name in [
        "barnes",
        "connected",
        "dijkstra",
        "quicksort",
        "spmxv",
        "octree",
    ] {
        v.push((
            format!("{name}-sm-64"),
            Box::new(move || kernel(name, presets::uniform_mesh_sm(64), None)),
        ));
        v.push((
            format!("{name}-dm-64"),
            Box::new(move || kernel(name, presets::uniform_mesh_dm(64), None)),
        ));
    }
    for name in ["quicksort", "dijkstra"] {
        v.push((
            format!("{name}-dm-64-link-faults"),
            Box::new(move || kernel(name, presets::uniform_mesh_dm(64), Some(link_faults()))),
        ));
    }
    // Lossy enough that probe replies are lost for good and their probers
    // are denied directly.
    v.push((
        "connected-dm-64-drop".into(),
        Box::new(|| {
            let faults = FaultConfig {
                drop_prob: 0.3,
                ..FaultConfig::default()
            };
            kernel("connected", presets::uniform_mesh_dm(64), Some(faults))
        }),
    ));
    for name in ["gossip", "dht", "quorum"] {
        v.push((
            format!("{name}-16-partition-churn"),
            Box::new(move || protocol(name)),
        ));
    }
    v.push((
        "locks-16".into(),
        Box::new(|| locks(0.0).expect("lock program")),
    ));
    v.push((
        "locks-16-drop".into(),
        Box::new(|| locks(0.15).expect("lock program")),
    ));
    v.push(("spmxv-cycle-level-16".into(), Box::new(cycle_level)));
    v
}

#[test]
fn runtime_counters_match_golden() {
    let mut drift = Vec::new();
    for (label, run) in scenarios() {
        let out = run();
        let got = counters(&out.rt);
        let vt = out.vtime_cycles();
        match GOLDEN.iter().find(|(l, ..)| *l == label) {
            Some(&(_, want_vt, want)) if (want_vt, want) == (vt, got) => {}
            Some(&(_, want_vt, want)) => {
                let fields: Vec<String> = FIELDS
                    .iter()
                    .zip(want.iter().zip(&got))
                    .filter(|(_, (w, g))| w != g)
                    .map(|(f, (w, g))| format!("{f} {w} -> {g}"))
                    .collect();
                drift.push(format!(
                    "{label}: final_vtime {want_vt} -> {vt}; {}\n    (\"{label}\", {vt}, {got:?}),",
                    fields.join(", ")
                ));
            }
            None => drift.push(format!("unpinned\n    (\"{label}\", {vt}, {got:?}),")),
        }
    }
    assert!(
        drift.is_empty(),
        "runtime counters drifted:\n{}",
        drift.join("\n")
    );
}

/// The deadlock report of the lock program at drop rate 0.3, where lock
/// grants and hand-overs are lost for good (so their waiters are woken
/// directly) and so are releases.
const LOCKS_DROP_DEADLOCK: &str =
    "no runnable core but work remains; live_activities=10 ready_queued=0/0\n  \
     core0: vtime=t=49656cy published=t=49756cy inbox=0 queued=0 lock_depth=0 idle\n  \
     core1: vtime=t=40447cy published=t=49756cy inbox=0 queued=0 lock_depth=0 idle\n  \
     core4: vtime=t=29041cy published=t=49756cy inbox=0 queued=0 lock_depth=0 idle\n  \
     core5: vtime=t=40451cy published=t=49756cy inbox=0 queued=0 lock_depth=0 idle\n  \
     core6: vtime=t=48201cy published=t=49756cy inbox=0 queued=0 lock_depth=0 idle\n  \
     core9: vtime=t=49648cy published=t=49756cy inbox=0 queued=0 lock_depth=0 idle\n  \
     core10: vtime=t=49642cy published=t=49756cy inbox=0 queued=0 lock_depth=0 idle\n  \
     blocked act0(root) on join @core0\n  \
     blocked act1(hub) on join @core5\n  \
     blocked act2(hub) on join @core10\n  \
     blocked act3(worker) on lock @core4\n  \
     blocked act4(worker) on lock @core6\n  \
     blocked act6(worker) on lock @core5\n  \
     blocked act9(worker) on lock @core1\n  \
     blocked act10(worker) on lock @core9\n  \
     blocked act11(worker) on lock @core9\n  \
     blocked act12(worker) on lock @core6";

/// A `LOCK_RELEASE` lost for good never reaches the home core, so the lock
/// stays held and its later requesters wait forever: at drop rate 0.3 the
/// lock program deadlocks. Pinned as it stands, report and all, because
/// the lost-`LOCK_ACK` direct wakes run before it.
#[test]
fn lock_program_deadlocks_when_a_release_is_lost() {
    match locks(0.3) {
        Err(SimError::Deadlock(report)) => assert_eq!(report, LOCKS_DROP_DEADLOCK),
        other => panic!("expected the pinned deadlock, got {other:?}"),
    }
}
