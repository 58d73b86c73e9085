//! Probes: a few public layer functions replayed on the workload's own
//! inputs, in traced reps only and after the timed body. A probe's ns/op
//! times the run's (exactly repeatable) operation count estimates that
//! layer's share of `wall_s` from outside the program; spans inside the
//! program are a later issue.

use crate::workloads::{
    kernels_size, protocol_faults, protocols_cores, refill_size, scale_dims, scale_topology,
    sweep_out_dir, Cx, KERNEL_INSTANCES,
};
use simany::core::checkpoint::Checkpoint;
use simany::experiment::native_time;
use simany::fault::FaultPlan;
use simany::kernels::all_kernels;
use simany::net::{NetworkModel, NetworkParams, Payload};
use simany::prelude::VirtualTime;
use simany::time::prng::Xoshiro256StarStar;
use simany::topology::{mesh_2d, partition_bfs, CoreId, Routes, Topology};
use simany_serve::journal::{self, Journal};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Run the probes that apply to `workload`, adding their metrics to `cx`.
pub fn run(workload: &str, cx: &mut Cx) {
    let span = cx.spans.enter("probes");
    match workload {
        "scale_1m" => {
            // No send probe: the workload sends no message, and a random
            // pair stream would only time lazy route-row construction.
            let topo = scale_topology(scale_dims(workload, cx.quick));
            construction(cx, &topo, 1);
        }
        "kernels_1024" => {
            let (n, scale) = kernels_size(cx.quick);
            let topo = mesh_2d(n);
            construction(cx, &topo, 1);
            sends(cx, topo, None, "net.send_ns");
            // `native_time` is the mean over the same instances the body ran.
            let mean: f64 = all_kernels()
                .iter()
                .map(|k| native_time(k.as_ref(), scale, KERNEL_INSTANCES, cx.seed).as_secs_f64())
                .sum();
            cx.metric("kernels.native_body_s", "s", mean * KERNEL_INSTANCES as f64);
        }
        "protocols_64" => {
            let topo = mesh_2d(protocols_cores(cx.quick));
            construction(cx, &topo, 1);
            let faults = protocol_faults()[2]
                .1
                .expect("partition+drop has a fault config");
            let plan = FaultPlan::sample(&topo, &faults, cx.seed);
            sends(cx, topo, Some(Arc::new(plan)), "net.try_send_faulty_ns");
        }
        "refill_4096_t2" => construction(cx, &mesh_2d(refill_size(cx.quick).0), 2),
        "sweep_drift" => serve(cx),
        // `validate_64`: its layer, `cyclelevel`, is timed by the body.
        _ => {}
    }
    cx.spans.exit(span);
}

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// The construction steps behind `setup_s`, one by one.
fn construction(cx: &mut Cx, topo: &Topology, tiles: usize) {
    let routes = secs(|| drop(black_box(Routes::for_topology(topo))));
    cx.metric("topology.routes_s", "s", routes);
    let partition = secs(|| drop(black_box(partition_bfs(topo, tiles.max(2)))));
    cx.metric("topology.partition_s", "s", partition);
    let copy = topo.clone();
    let net = secs(|| drop(black_box(NetworkModel::new(copy, NetworkParams::default()))));
    cx.metric("net.new_s", "s", net);
}

/// ns per `try_send` over a seeded source/destination stream on the
/// workload's topology, with the workload's fault plan if it has one, and
/// the share of the run that estimate accounts for.
fn sends(cx: &mut Cx, topo: Topology, plan: Option<Arc<FaultPlan>>, name: &str) {
    let n = u64::from(topo.n_cores());
    let count: u64 = if cx.quick { 2_000 } else { 200_000 };
    let mut rng = Xoshiro256StarStar::seeded(cx.seed);
    let pairs: Vec<(CoreId, CoreId)> = (0..count)
        .map(|_| {
            (
                CoreId(rng.next_below(n) as u32),
                CoreId(rng.next_below(n) as u32),
            )
        })
        .collect();
    let mut net = NetworkModel::with_faults(topo, NetworkParams::default(), plan, cx.seed);
    let t = Instant::now();
    for (i, &(src, dst)) in pairs.iter().enumerate() {
        let sent = VirtualTime::from_cycles(10 * i as u64);
        let _ = black_box(net.try_send(src, dst, 64, sent, Payload::none()));
    }
    let ns_per_send = t.elapsed().as_nanos() as f64 / count as f64;
    cx.metric(name, "ns", ns_per_send);
    let share = ns_per_send * cx.engine.messages as f64 / 1e9;
    cx.metric(&name.replace("_ns", "_est_s"), "s", share);
}

/// Checkpoint I/O, worker spawn and journal costs, on the files the sweep
/// just produced.
fn serve(cx: &mut Cx) {
    let out_dir = sweep_out_dir(&cx.work_dir);
    let checkpoint = std::fs::read_dir(out_dir.join("checkpoints"))
        .ok()
        .and_then(|dir| dir.filter_map(|e| Some(e.ok()?.path())).min());
    if let Some(path) = checkpoint {
        let loads = 200;
        let t = Instant::now();
        let mut loaded = None;
        for _ in 0..loads {
            loaded = Checkpoint::load(black_box(&path)).ok();
        }
        cx.metric(
            "core.checkpoint_load_s",
            "s",
            t.elapsed().as_secs_f64() / f64::from(loads),
        );
        if let Some(cp) = loaded {
            let writes = 20;
            let copy = cx.work_dir.join("probe.checkpoint");
            let t = Instant::now();
            for _ in 0..writes {
                cp.write_to(&copy).expect("work dir is writable");
            }
            cx.metric(
                "core.checkpoint_write_s",
                "s",
                t.elapsed().as_secs_f64() / f64::from(writes),
            );
        }
    }

    // Spawn + wait of the worker on the sweep's smallest scenario.
    if let Some(simulate) = simany_serve::scenario::sibling_binary("simulate") {
        let (cores, scale) = if cx.quick {
            ("16", "0.05")
        } else {
            ("64", "0.25")
        };
        let spawns = 5;
        let t = Instant::now();
        for _ in 0..spawns {
            let status = std::process::Command::new(&simulate)
                .args(["--kernel", "octree", "--cores", cores, "--scale", scale])
                .args(["--seed", &cx.seed.to_string()])
                .stdout(std::process::Stdio::null())
                .status();
            assert!(status.is_ok_and(|s| s.success()), "simulate probe failed");
        }
        cx.metric(
            "serve.spawn_s",
            "s",
            t.elapsed().as_secs_f64() / f64::from(spawns),
        );
    }

    let appends = 1_000;
    let mut log = Journal::open(&cx.work_dir.join("probe.journal")).expect("work dir is writable");
    let t = Instant::now();
    for i in 0..appends {
        log.append("started", i, "").expect("journal append");
    }
    cx.metric(
        "serve.journal_append_ns",
        "ns",
        t.elapsed().as_nanos() as f64 / appends as f64,
    );
    let replays = 20;
    let journal_path = out_dir.join("journal.log");
    let t = Instant::now();
    for _ in 0..replays {
        black_box(journal::replay(&journal_path).expect("the sweep's journal replays"));
    }
    cx.metric(
        "serve.journal_replay_s",
        "s",
        t.elapsed().as_secs_f64() / f64::from(replays),
    );
}
