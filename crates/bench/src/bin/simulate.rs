//! `simulate` — run one benchmark on one machine from the command line.
//!
//! ```sh
//! cargo run --release -p simany-bench --bin simulate -- \
//!     --kernel dijkstra --cores 64 --arch sm --scale 1.0
//! cargo run --release -p simany-bench --bin simulate -- \
//!     --kernel spmxv --topology my_chip.cfg --arch dm --drift 500 --trace
//! ```
//!
//! Prints completion virtual time, run-time statistics and (with
//! `--trace`) a per-core activity timeline.

use simany::core::{CoreId, MemoryTracer};
use simany::kernels::protocols::{protocol_by_name, ProtocolKernel, ProtocolMetrics};
use simany::kernels::{kernel_by_name, DwarfKernel, KernelResult, Scale};
use simany::prelude::*;
use simany::stats::json::Json;
use simany::stats::{LatencyDist, ResilienceReport};
use simany_serve::scenario::{field_names, FieldError};
use simany_serve::Scenario;

/// The scenario plus the CLI-only extras layered on top of it.
#[derive(Default)]
struct Args {
    scenario: Scenario,
    topology_file: Option<String>,
    trace: bool,
    sanitize: bool,
    checkpoint_every: Option<u64>,
    checkpoint_file: String,
    resume: Option<String>,
    preempt_after_checkpoints: Option<u64>,
    json: Option<String>,
    profile_picks: bool,
}

const USAGE: &str = "\
usage: simulate [OPTIONS]

options:
  --kernel NAME       quicksort | connected | dijkstra | barnes | spmxv | octree
                      or a protocol workload: gossip | dht | quorum
  --cores N           core count (default 16)
  --machine KIND      mesh | mesh3d | clustered | chiplet | polymorphic |
                      cycle-level (default mesh)
  --arch sm|dm|smc    shared / distributed / shared+coherence (default sm)
  --clusters N        clusters for --machine clustered, chiplets for
                      --machine chiplet (default 4)
  --scale F           workload scale (default 0.5)
  --seed N            workload seed
  --sync POLICY       spatial | bounded-slack | conservative | unbounded
                      (default spatial)
  --drift T           drift bound / slack window in cycles (default 100;
                      at least 1 under spatial sync)
  --topology FILE     adjacency-matrix config file (overrides --machine)
  --trace             collect and print an event timeline
  --sanitize on|off   online invariant sanitizer (default off; observation-only)
  --json FILE         also write wall-clock + counters as JSON to FILE
  --profile-picks     time the pick loop's phases (floor / pop / overhead /
                      action) and sync::publish; observation-only, adds four
                      or five clock reads per pick and two per publish

checkpoint / resume (see crates/core/src/checkpoint.rs for the model):
  --checkpoint-every T  write a verification checkpoint every T virtual cycles
  --checkpoint-file F   checkpoint file path (default simany.checkpoint)
  --resume F            replay and verify against the checkpoint at F
  --preempt-after-checkpoints N
                        stop with exit code 15 after N fresh checkpoints
                        (external preemption; resume later with --resume)

exit codes: 0 success, 2 usage, 10 stalled, 11 checkpoint mismatch,
12 checkpoint error, 13 task panic, 14 deadlock, 15 preempted,
16 host resources (a task stack the host refused).

fault injection (sampled deterministically from --seed; all default off):
  --link-fail-prob F  probability each physical link pair fails
  --repair-after T    repair failed links after T cycles (default: permanent)
  --drop-prob F       per-link message drop probability
  --corrupt-prob F    per-link message corruption probability
  --core-fail-prob F  probability each core (except core 0) fails
  --fault-horizon T   window in cycles for sampled failure instants

scripted faults (deterministic, layered on top of the sampled plan):
  --partition-at T    cut every link between the two index halves at T cycles
  --partition-heal T  heal the scripted partition at T cycles
  --churn-cores N     crash-stop N cores (never core 0), spread over the ids
  --churn-every T     interval between churn failures (default 10000 cycles)
";

/// The value of numeric flag `flag`; exits with the usage code if it
/// does not parse.
fn num<T: std::str::FromStr>(flag: &str, raw: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{}", FieldError::BadValue.message(flag, raw));
        std::process::exit(2)
    })
}

/// The scenario field a `--name` flag sets: its name with `_` for `-`.
fn field_of(flag: &str) -> Option<String> {
    let name = flag.strip_prefix("--").filter(|f| !f.contains('_'))?;
    let name = name.replace('-', "_");
    field_names().any(|f| f == name).then_some(name)
}

fn parse_args() -> Args {
    let mut args = Args {
        checkpoint_file: "simany.checkpoint".into(),
        ..Args::default()
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("missing value for {a}\n{USAGE}");
                    std::process::exit(2);
                })
                .clone()
        };
        match a.as_str() {
            "--topology" => args.topology_file = Some(val()),
            "--trace" => args.trace = true,
            "--sanitize" => {
                args.sanitize = match val().as_str() {
                    "on" => true,
                    "off" => false,
                    other => {
                        eprintln!("--sanitize must be on or off, got '{other}'\n{USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            "--checkpoint-every" => args.checkpoint_every = Some(num(a, &val())),
            "--checkpoint-file" => args.checkpoint_file = val(),
            "--resume" => args.resume = Some(val()),
            "--preempt-after-checkpoints" => args.preempt_after_checkpoints = Some(num(a, &val())),
            "--json" => args.json = Some(val()),
            "--profile-picks" => args.profile_picks = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                let Some(field) = field_of(other) else {
                    eprintln!("unknown option {other}\n{USAGE}");
                    std::process::exit(2);
                };
                let raw = val();
                if let Err(e) = args.scenario.set(&field, &raw) {
                    eprintln!("{}", e.message(a, &raw));
                    std::process::exit(2);
                }
            }
        }
    }
    args
}

fn build_spec(args: &Args) -> ProgramSpec {
    // The shared scenario builder covers everything the sweep service can
    // express; the flags below are CLI-only extras layered on top.
    let scenario = &args.scenario;
    let mut spec = scenario.build_spec().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Some(path) = &args.topology_file {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read topology file {path}: {e}");
            std::process::exit(2);
        });
        spec.topo = simany::topology::parse_topology(&text).unwrap_or_else(|e| {
            eprintln!("bad topology config {path}: {e}");
            std::process::exit(2);
        });
        // The fault plan was sampled on the preset topology; resample it
        // on the one actually being simulated.
        if scenario.faults.any() {
            let plan = simany::fault::FaultPlan::sample(
                &spec.topo,
                &scenario.faults.to_config(),
                scenario.seed,
            );
            spec.engine = spec.engine.with_fault_plan(std::sync::Arc::new(plan));
        }
    }
    spec.engine = spec
        .engine
        .with_sanitize(args.sanitize)
        .with_profile_picks(args.profile_picks);
    if let Some(every) = args.checkpoint_every {
        spec.engine = spec
            .engine
            .with_checkpoint(VDuration::from_cycles(every), args.checkpoint_file.clone());
    }
    if let Some(path) = &args.resume {
        spec.engine = spec.engine.with_resume(path);
    }
    spec.engine = spec
        .engine
        .with_preempt_after_checkpoints(args.preempt_after_checkpoints);
    spec
}

/// JSON dump of the run's wall clock and counters, one key per line.
fn write_json(
    path: &str,
    args: &Args,
    digest: u64,
    n_cores: u32,
    r: &simany::kernels::KernelResult,
    resilience: Option<&ResilienceReport>,
) {
    let s = &r.out.stats;
    let sc = &args.scenario;
    let text = |x: &str| Json::Str(x.to_string());
    let per_sec = |ns: u64| Json::Num((f64::from(n_cores) / (ns.max(1) as f64 / 1e9)).round());
    let mut fields: Vec<(&str, Json)> = vec![
        ("kernel", text(&sc.kernel)),
        ("cores", Json::U64(u64::from(sc.cores))),
        ("machine", text(&sc.machine)),
        ("arch", text(&sc.arch)),
        ("scale", Json::Num(sc.scale)),
        ("seed", Json::U64(sc.seed)),
        ("config_digest", Json::Str(format!("{digest:016x}"))),
        ("wall_ns", Json::U64(s.wall.as_nanos() as u64)),
        ("build_ns", Json::U64(s.build_ns)),
        ("run_ns", Json::U64(s.run_ns)),
        ("peak_rss_bytes", Json::U64(simany_bench::peak_rss_bytes())),
        ("cores_per_sec", per_sec(s.wall.as_nanos() as u64)),
        ("run_cores_per_sec", per_sec(s.run_ns)),
        ("final_vtime_cycles", Json::U64(r.cycles())),
        ("verified", Json::Bool(r.verified)),
        ("work_items", Json::U64(r.work_items)),
        ("tasks_started", Json::U64(s.activities_started)),
        (
            "peak_live_activities",
            Json::U64(s.peak_live_activities as u64),
        ),
        ("scheduler_picks", Json::U64(s.scheduler_picks)),
        ("activity_resumes", Json::U64(s.activity_resumes)),
        ("ctx_switches", Json::U64(s.ctx_switches)),
        ("peak_stacks", Json::U64(s.peak_stacks as u64)),
        ("os_threads", Json::U64(s.os_threads)),
        ("sync_stalls", Json::U64(s.stall_events)),
        ("messages", Json::U64(s.net.messages)),
        ("bytes", Json::U64(s.net.bytes)),
        ("late_messages", Json::U64(s.late_messages)),
        ("on_time_messages", Json::U64(s.on_time_messages)),
        ("fast_path_advances", Json::U64(s.fast_path_advances)),
        ("full_sync_checks", Json::U64(s.full_sync_checks)),
        ("publish_sweeps", Json::U64(s.publish_sweeps)),
        ("shadow_evals", Json::U64(s.shadow_evals)),
        ("shadow_uncaps", Json::U64(s.shadow_uncaps)),
        ("floor_recomputes", Json::U64(s.floor_recomputes)),
        ("floor_key_updates", Json::U64(s.floor_key_updates)),
        ("ready_stale_skipped", Json::U64(s.ready_stale_skipped)),
        ("prof_floor_ns", Json::U64(s.prof_floor_ns)),
        ("prof_pop_ns", Json::U64(s.prof_pop_ns)),
        ("prof_overhead_ns", Json::U64(s.prof_overhead_ns)),
        ("prof_action_ns", Json::U64(s.prof_action_ns)),
        ("prof_publish_ns", Json::U64(s.prof_publish_ns)),
        ("msgs_dropped", Json::U64(s.msgs_dropped)),
        ("msg_retries", Json::U64(s.msg_retries)),
        ("reroutes", Json::U64(s.reroutes)),
        ("link_faults", Json::U64(s.link_faults)),
        ("core_failures", Json::U64(s.core_failures)),
        ("net_dropped", Json::U64(s.net.dropped)),
        ("net_corrupted", Json::U64(s.net.corrupted)),
        ("net_delayed", Json::U64(s.net.delayed)),
        ("net_rerouted", Json::U64(s.net.rerouted)),
        ("net_unreachable", Json::U64(s.net.unreachable)),
        ("sanitizer_checks", Json::U64(s.sanitizer_checks)),
        ("sanitizer_violations", Json::U64(s.sanitizer_violations)),
        ("checkpoints_written", Json::U64(s.checkpoints_written)),
        (
            "checkpoint_verifications",
            Json::U64(s.checkpoint_verifications),
        ),
    ];
    if let Some(rep) = resilience {
        fields.push(("resilience", rep.to_json()));
    }
    let doc = Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    std::fs::write(path, doc.dump_lines()).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
}

fn main() {
    let args = parse_args();
    let sc = &args.scenario;
    // `Scenario::set` refused any other name.
    let kernel: Option<Box<dyn DwarfKernel>> = kernel_by_name(&sc.kernel);
    let protocol = protocol_by_name(&sc.kernel).filter(|_| kernel.is_none());
    let workload_name = kernel
        .as_deref()
        .map(DwarfKernel::name)
        .or_else(|| protocol.as_deref().map(ProtocolKernel::name))
        .unwrap();
    let mut spec = build_spec(&args);
    let cfg_digest = simany::core::config_digest(&spec.engine);
    let tracer = if args.trace {
        let t = MemoryTracer::new();
        spec.engine.tracer = Some(t.clone());
        Some(t)
    } else {
        None
    };
    let n_cores = spec.topo.n_cores();

    println!(
        "running {} on {} cores ({} / {}), scale {}, seed {}, config digest {:016x}",
        workload_name, n_cores, sc.machine, sc.arch, sc.scale, sc.seed, cfg_digest
    );
    // Typed exit codes let a supervising process (the sweep service) tell
    // preemption and failure classes apart.
    fn bail(e: simany::core::SimError) -> ! {
        if let simany::core::SimError::Preempted { at, checkpoints } = &e {
            println!("preempted at {at:?} after {checkpoints} fresh checkpoints");
        } else {
            eprintln!("simulation failed: {e}");
        }
        std::process::exit(e.exit_code());
    }
    let (r, resilience) = if let Some(kernel) = &kernel {
        let r = kernel
            .run_sim(spec, Scale(sc.scale), sc.seed)
            .unwrap_or_else(|e| bail(e));
        (r, None)
    } else {
        let p = protocol.as_deref().unwrap();
        let o = p
            .run_sim(spec, Scale(sc.scale), sc.seed)
            .unwrap_or_else(|e| bail(e));
        let m: &ProtocolMetrics = &o.metrics;
        let report = ResilienceReport {
            protocol: p.name().to_string(),
            expected: m.expected,
            delivered: m.delivered,
            payload_msgs: m.payload_msgs,
            reissues: m.reissues,
            degraded: m.degraded,
            leader_changes: m.leader_changes,
            latency: LatencyDist::from_samples(&m.latencies),
        };
        let r = KernelResult {
            out: o.out,
            verified: o.verified,
            work_items: m.expected,
        };
        (r, Some(report))
    };

    println!("\nvirtual time      : {} cycles", r.cycles());
    println!(
        "verified          : {}",
        if r.verified { "yes" } else { "NO" }
    );
    println!("work items        : {}", r.work_items);
    println!("wall time         : {:?}", r.out.stats.wall);
    println!(
        "build / run       : {:.3}ms / {:.3}ms",
        r.out.stats.build_ns as f64 / 1e6,
        r.out.stats.run_ns as f64 / 1e6
    );
    println!(
        "throughput        : {:.0} cores/sec ({:.0} over the run phase)",
        f64::from(n_cores) / r.out.stats.wall.as_secs_f64().max(1e-9),
        f64::from(n_cores) / (r.out.stats.run_ns.max(1) as f64 / 1e9)
    );
    let peak_rss = simany_bench::peak_rss_bytes();
    if peak_rss > 0 {
        println!(
            "peak RSS          : {:.1} MB ({:.0} bytes/core)",
            peak_rss as f64 / (1024.0 * 1024.0),
            peak_rss as f64 / f64::from(n_cores)
        );
    }
    println!("tasks started     : {}", r.out.stats.activities_started);
    println!(
        "spawns / fallbacks: {} / {}",
        r.out.rt.spawns, r.out.rt.sequential_fallbacks
    );
    println!("task migrations   : {}", r.out.rt.task_migrations);
    println!(
        "messages          : {} ({} bytes)",
        r.out.stats.net.messages, r.out.stats.net.bytes
    );
    println!(
        "late messages     : {} / {}",
        r.out.stats.late_messages,
        r.out.stats.late_messages + r.out.stats.on_time_messages
    );
    println!("sync stalls       : {}", r.out.stats.stall_events);
    println!(
        "fast-path ratio   : {} fast / {} full",
        r.out.stats.fast_path_advances, r.out.stats.full_sync_checks
    );
    println!("core utilization  : {:.2}", r.out.stats.utilization());
    let s = &r.out.stats;
    if s.ready_stale_skipped > 0 {
        println!(
            "ready hygiene     : {} stale pops skipped",
            s.ready_stale_skipped
        );
    }
    if s.prof_floor_ns + s.prof_pop_ns + s.prof_overhead_ns + s.prof_action_ns > 0 {
        println!(
            "pick-loop profile : floor {:.1}ms / pop {:.1}ms / overhead {:.1}ms / action {:.1}ms \
             (of which {:.1}ms in publish: {} shadow evaluations over {} sweeps \
             ({:.1} per sweep), {} uncaps)",
            s.prof_floor_ns as f64 / 1e6,
            s.prof_pop_ns as f64 / 1e6,
            s.prof_overhead_ns as f64 / 1e6,
            s.prof_action_ns as f64 / 1e6,
            s.prof_publish_ns as f64 / 1e6,
            s.shadow_evals,
            s.publish_sweeps,
            s.shadow_evals as f64 / s.publish_sweeps.max(1) as f64,
            s.shadow_uncaps
        );
    }
    if args.sanitize {
        println!(
            "sanitizer         : {} checks, {} violations (max global drift {} cycles)",
            s.sanitizer_checks,
            s.sanitizer_violations,
            s.max_global_drift.cycles()
        );
    }
    if s.checkpoints_written > 0 {
        println!(
            "checkpoints       : {} written to {}",
            s.checkpoints_written, args.checkpoint_file
        );
    }
    if args.resume.is_some() {
        println!(
            "resume            : checkpoint verified ({} verification)",
            s.checkpoint_verifications
        );
    }
    if s.link_faults + s.core_failures + s.msgs_dropped + s.msg_retries + s.reroutes > 0 {
        println!(
            "faults            : {} link faults, {} core failures, {} partitions",
            s.link_faults, s.core_failures, s.partitions_observed
        );
        println!(
            "drops / retries   : {} / {}  (reroutes {})",
            s.msgs_dropped, s.msg_retries, s.reroutes
        );
        println!(
            "in-flight faults  : {} dropped, {} corrupted, {} delayed, {} rerouted, {} unreachable",
            s.net.dropped, s.net.corrupted, s.net.delayed, s.net.rerouted, s.net.unreachable
        );
    }
    if let Some(rep) = &resilience {
        let ratio = |x: Option<f64>, decimals: usize| {
            x.map_or_else(|| "n/a".to_string(), |v| format!("{v:.decimals$}"))
        };
        println!(
            "coverage          : {} ({} / {} delivered)",
            ratio(rep.coverage(), 4),
            rep.delivered,
            rep.expected
        );
        println!(
            "msgs/delivery     : {} ({} payload msgs, {} re-issues, {} degraded)",
            ratio(rep.msgs_per_delivery(), 2),
            rep.payload_msgs,
            rep.reissues,
            rep.degraded
        );
        if rep.leader_changes > 0 {
            println!("leaders observed  : {}", rep.leader_changes);
        }
        println!("latency (cycles)  : {}", rep.latency.summary());
    }

    println!("config digest     : {cfg_digest:016x}");

    if let Some(path) = &args.json {
        write_json(path, &args, cfg_digest, n_cores, &r, resilience.as_ref());
        println!("json dump         : {path}");
    }

    if !r.out.stats.hot_links.is_empty() {
        println!("\nNoC hotspots (busiest links):");
        for (src, dst, busy) in &r.out.stats.hot_links {
            println!("  {src} -> {dst}: {busy} transmitting");
        }
    }

    if let Some(tracer) = tracer {
        println!("\nactivity timeline ({} events):", tracer.len());
        print!("{}", tracer.timeline(n_cores, 72));
        println!("\nbusiest cores:");
        for &(c, d) in &r.out.stats.busy.top {
            let i = c.index();
            let b = d.cycles();
            let (starts, stalls, sends, late) = tracer.core_summary(CoreId(i as u32));
            println!(
                "  core{i:<4} busy {b:>9} cy  tasks {starts:>4}  stalls {stalls:>5}  sends {sends:>5}  late {late:>4}"
            );
        }
    }
}
