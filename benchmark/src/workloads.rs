//! The six workloads (and two auxiliary points). Every size is fixed here;
//! the seed feeds only input generation — kernel data, fault plans, the
//! engine's own PRNG seed — and the simulator never sees a workload name.
//!
//! A body runs inside a pinned child process (see `harness`). In set-up
//! mode it builds every machine of the workload exactly as a full rep
//! does — same topology builder, same engine configuration — but runs
//! nothing on it, so `setup_s` can be sampled several times a run without
//! paying for the run.

use crate::spans::Spans;
use simany::core::{
    config_digest, simulate, CoreId, EngineConfig, Envelope, ExecCtx, Ops, RuntimeHooks, SimError,
    SimStats,
};
use simany::fault::{FaultConfig, FaultPlan};
use simany::kernels::protocols::{all_protocols, ProtocolOutcome};
use simany::kernels::{all_kernels, kernel_by_name, KernelResult, Scale};
use simany::prelude::{VDuration, VirtualTime};
use simany::presets;
use simany::runtime::ProgramSpec;
use simany::topology::{chiplet_mesh, mesh_2d, ChipletParams, Topology};
use simany_serve::json::Json;
use simany_serve::{ServeConfig, Service};
use std::any::Any;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The committed sweep spec `sweep_drift` runs, embedded so the benchmark
/// does not depend on the directory it is started from.
const DRIFT_SPEC: &str = include_str!("../../examples/sweeps/drift.toml");

/// Simulator host threads of a workload, which is also how many CPUs its
/// reps are pinned to.
pub fn threads_of(workload: &str) -> u32 {
    match workload {
        "refill_4096_t2" => 2,
        _ => 1,
    }
}

/// A value a rep reports besides the fixed end-to-end fields.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.into(),
            value,
        }
    }
}

/// What a kernel or protocol run hands back, as the ledger needs it.
trait Outcome {
    fn stats(&self) -> &SimStats;
    fn verified(&self) -> bool;
}

impl Outcome for KernelResult {
    fn stats(&self) -> &SimStats {
        &self.out.stats
    }
    fn verified(&self) -> bool {
        self.verified
    }
}

impl Outcome for ProtocolOutcome {
    fn stats(&self) -> &SimStats {
        &self.out.stats
    }
    fn verified(&self) -> bool {
        self.verified
    }
}

/// FNV-1a over the 64-bit words that define a simulated outcome. Equal
/// digests mean equal simulated statistics; host timings never enter.
pub struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The words of one engine run the issue names: final virtual time,
    /// picks, messages, tasks started and the configuration digest.
    fn stats(&mut self, s: &SimStats, config: u64) {
        for w in [
            s.final_vtime.ticks(),
            s.scheduler_picks,
            s.net.messages,
            s.activities_started,
            config,
        ] {
            self.word(w);
        }
    }
}

/// Engine counters and host times summed over the engine runs of a rep.
#[derive(Default)]
pub struct EngineTotals {
    pub build_ns: u64,
    pub run_ns: u64,
    pub picks: u64,
    pub stalls: u64,
    pub messages: u64,
    pub tasks_started: u64,
    pub fast_path_advances: u64,
    pub msg_retries: u64,
    pub net_dropped: u64,
    pub net_rerouted: u64,
    pub checkpoints_written: u64,
    pub prof_floor_ns: u64,
    pub prof_pop_ns: u64,
    pub prof_overhead_ns: u64,
    pub prof_action_ns: u64,
}

impl EngineTotals {
    fn absorb(&mut self, s: &SimStats) {
        self.build_ns += s.build_ns;
        self.run_ns += s.run_ns;
        self.picks += s.scheduler_picks;
        self.stalls += s.stall_events;
        self.messages += s.net.messages;
        self.tasks_started += s.activities_started;
        self.fast_path_advances += s.fast_path_advances;
        self.msg_retries += s.msg_retries;
        self.net_dropped += s.net.dropped;
        self.net_rerouted += s.net.rerouted;
        self.checkpoints_written += s.checkpoints_written;
        self.prof_floor_ns += s.prof_floor_ns;
        self.prof_pop_ns += s.prof_pop_ns;
        self.prof_overhead_ns += s.prof_overhead_ns;
        self.prof_action_ns += s.prof_action_ns;
    }
}

/// What one rep is asked to do, and what it found.
pub struct Cx {
    pub seed: u64,
    /// Tiny sizes, for `ledger run --quick` and the test.
    pub quick: bool,
    /// Turn on the engine's pick-loop profile (`profile_picks`).
    pub trace: bool,
    /// Build every machine, run nothing.
    pub setup_only: bool,
    pub spans: Spans,
    /// Set-up time: topology builder calls plus `SimStats::build_ns` (for
    /// `sweep_drift`, `Service::new`).
    pub setup_ns: u64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub digest: Digest,
    pub errors: Vec<String>,
    pub engine: EngineTotals,
    pub metrics: Vec<Metric>,
    /// Directory the rep may write scratch files under.
    pub work_dir: PathBuf,
}

impl Cx {
    pub fn new(seed: u64, quick: bool, trace: bool, setup_only: bool, work_dir: PathBuf) -> Cx {
        Cx {
            seed,
            quick,
            trace,
            setup_only,
            spans: Spans::new(),
            setup_ns: 0,
            ops_attempted: 0,
            ops_failed: 0,
            digest: Digest::new(),
            errors: Vec::new(),
            engine: EngineTotals::default(),
            metrics: Vec::new(),
            work_dir,
        }
    }

    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest.0)
    }

    pub fn metric(&mut self, name: &str, unit: &str, value: f64) {
        self.metrics.push(Metric::new(name, unit, value));
    }

    /// Data seeds of `n` input instances: `seed`, `seed + 1`, ...
    fn instance_seeds(&self, n: u64) -> impl Iterator<Item = u64> {
        let seed = self.seed;
        (0..n).map(move |i| seed.wrapping_add(i))
    }

    /// Count `n` failed operations and keep the reason.
    fn fail(&mut self, n: u64, why: String) {
        self.ops_failed += n;
        self.errors.push(why);
    }

    /// Time a topology builder call; it is part of set-up.
    fn build_topology<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let span = self.spans.enter("topology.build");
        let built = build();
        self.setup_ns += self.spans.exit(span);
        built
    }

    /// The engine configuration every run starts from: the machine's own
    /// PRNG seeded like its input, the pick-loop profile on when tracing.
    fn engine_config(&self, base: EngineConfig, seed: u64) -> EngineConfig {
        base.with_seed(seed).with_profile_picks(self.trace)
    }

    /// Set-up mode: build the machine as the engine would for a run, and
    /// start nothing on it.
    fn build_only(&mut self, topo: Topology, config: EngineConfig) -> Option<SimStats> {
        let none = Arc::new(simany::core::hooks::NullHooks);
        self.simulate(topo, config, none, |_| {})
    }

    /// Call the engine directly (`core`).
    fn engine_run(
        &mut self,
        topo: Topology,
        config: EngineConfig,
        hooks: Arc<dyn RuntimeHooks>,
        start: impl FnOnce(&mut Ops<'_>),
    ) -> Option<SimStats> {
        if self.setup_only {
            return self.build_only(topo, config);
        }
        self.simulate(topo, config, hooks, start)
    }

    fn simulate(
        &mut self,
        topo: Topology,
        config: EngineConfig,
        hooks: Arc<dyn RuntimeHooks>,
        start: impl FnOnce(&mut Ops<'_>),
    ) -> Option<SimStats> {
        let config_hash = config_digest(&config);
        let span = self.spans.enter("core.simulate");
        let result = simulate(topo, config, hooks, start);
        self.spans.exit(span);
        match result {
            Ok(stats) => {
                self.absorb(&stats, config_hash);
                Some(stats)
            }
            Err(e) => {
                self.errors.push(format!("simulation failed: {e}"));
                None
            }
        }
    }

    /// One operation: run a kernel or protocol (`what`, for messages)
    /// through its own `run_sim`, which builds the task run-time, generates
    /// data, simulates and self-checks. A simulation error or an output
    /// that does not verify fails the operation. In set-up mode only the
    /// machine is built and `None` comes back.
    fn program_run<R: Outcome>(
        &mut self,
        what: &str,
        spec: ProgramSpec,
        run: impl FnOnce(ProgramSpec) -> Result<R, SimError>,
    ) -> Option<R> {
        self.ops_attempted += 1;
        if self.setup_only {
            self.build_only(spec.topo, spec.engine);
            return None;
        }
        let config_hash = config_digest(&spec.engine);
        let span = self.spans.enter("kernels.run_sim");
        let result = run(spec);
        self.spans.exit(span);
        match result {
            Ok(r) => {
                self.absorb(r.stats(), config_hash);
                self.digest.word(u64::from(r.verified()));
                if !r.verified() {
                    self.fail(1, format!("{what} did not verify"));
                }
                Some(r)
            }
            Err(e) => {
                self.fail(1, format!("{what}: simulation failed: {e}"));
                None
            }
        }
    }

    fn absorb(&mut self, stats: &SimStats, config: u64) {
        self.setup_ns += stats.build_ns;
        self.engine.absorb(stats);
        self.digest.stats(stats, config);
    }
}

/// Run the body of `workload`. Unknown names are the caller's bug.
pub fn run_body(workload: &str, cx: &mut Cx) {
    match workload {
        "scale_1m" | "scale_65k" => scale(cx, scale_dims(workload, cx.quick)),
        "kernels_1024" => kernels(cx),
        "protocols_64" => protocols(cx),
        "sweep_drift" => sweep(cx),
        "refill_4096_t2" => refill(cx, 2),
        // Same shape on the sequential engine, for `core.t2_speedup`.
        "refill_4096_t1" => refill(cx, 1),
        "validate_64" => validate(cx),
        other => panic!("no workload called {other}"),
    }
}

/// `(chiplets per side, cores per chiplet side)` of a scale point.
/// `scale_65k` is the 65,536-core point of `repro scale-check`: the base of
/// the scale ratio guard and of `core.handoff_placement_ratio`.
pub fn scale_dims(workload: &str, quick: bool) -> (u32, u32) {
    match (workload, quick) {
        ("scale_1m", false) => (16, 64),
        ("scale_1m", true) => (2, 16),
        (_, false) => (4, 64),
        (_, true) => (2, 8),
    }
}

pub fn scale_topology((chips, side): (u32, u32)) -> Topology {
    chiplet_mesh(chips, chips, side, side, ChipletParams::default())
}

/// One 16-annotation run-to-completion task on every core of a
/// `chips` x `chips` mesh of `side` x `side` chiplets, materialised lazily
/// through `queue_hint` (BENCH_PR10's shape).
fn scale(cx: &mut Cx, dims: (u32, u32)) {
    struct OneShot;
    impl RuntimeHooks for OneShot {
        fn on_message(&self, _: &mut Ops<'_>, _: Envelope) {}
        fn on_idle(&self, ops: &mut Ops<'_>, c: CoreId) {
            ops.queue_hint_sub(c, 1);
            let step = 3 + u64::from(c.0 % 5);
            ops.start_activity(
                c,
                "scale",
                Box::new(()),
                Box::new(move |ctx: &mut ExecCtx| {
                    for _ in 0..16 {
                        ctx.advance_cycles(step);
                    }
                }),
            );
        }
        fn on_activity_end(&self, _: &mut Ops<'_>, _: CoreId, _: Box<dyn Any + Send>) {}
    }

    let topo = cx.build_topology(|| scale_topology(dims));
    let n = topo.n_cores();
    let config = cx.engine_config(EngineConfig::default().with_drift_cycles(10_000), cx.seed);
    let stats = cx.engine_run(topo, config, Arc::new(OneShot), |ops| {
        for c in 0..n {
            ops.queue_hint_add(CoreId(c), 1);
        }
    });
    // One operation per core: its task ran.
    cx.ops_attempted = u64::from(n);
    match stats {
        Some(s) if cx.setup_only => drop(s),
        Some(s) => {
            let idle = u64::from(n) - s.busy.active;
            if idle > 0 {
                cx.fail(idle, format!("{idle} of {n} cores never ran their task"));
            }
            cx.metric(
                "final_vtime_cycles",
                "cycles",
                s.final_vtime.cycles() as f64,
            );
            cx.metric("cores_per_s", "1/s", f64::from(n) / s.wall.as_secs_f64());
            cx.metric(
                "run_cores_per_s",
                "1/s",
                f64::from(n) / (s.run_ns as f64 / 1e9),
            );
        }
        None => cx.ops_failed = u64::from(n),
    }
}

/// Message-free tasks of `reps` annotations, refilled through `on_idle`
/// until every core has run its share (BENCH_PR6's shape).
struct Refill {
    reps: u64,
}

impl Refill {
    fn launch(&self, ops: &mut Ops<'_>, c: CoreId) {
        let reps = self.reps;
        let step = 3 + u64::from(c.0 % 5);
        ops.start_activity(
            c,
            "refill",
            Box::new(()),
            Box::new(move |ctx: &mut ExecCtx| {
                for _ in 0..reps {
                    ctx.advance_cycles(step);
                }
            }),
        );
    }
}

impl RuntimeHooks for Refill {
    fn on_message(&self, _: &mut Ops<'_>, _: Envelope) {}
    fn on_idle(&self, ops: &mut Ops<'_>, c: CoreId) {
        ops.queue_hint_sub(c, 1);
        self.launch(ops, c);
    }
    fn on_activity_end(&self, _: &mut Ops<'_>, _: CoreId, _: Box<dyn Any + Send>) {}
}

/// `(cores, tasks per core)` of the refill workload.
pub fn refill_size(quick: bool) -> (u32, u32) {
    if quick {
        (256, 8)
    } else {
        (4096, 64)
    }
}

fn refill(cx: &mut Cx, threads: u32) {
    let (n, tasks_per_core) = refill_size(cx.quick);
    let reps = 48;
    let topo = cx.build_topology(|| mesh_2d(n));
    let config = cx
        .engine_config(EngineConfig::default().with_drift_cycles(20_000), cx.seed)
        .with_threads(threads);
    let stats = cx.engine_run(topo, config, Arc::new(Refill { reps }), |ops| {
        for c in 0..n {
            ops.queue_hint_add(CoreId(c), tasks_per_core - 1);
        }
        for c in 0..n {
            Refill { reps }.launch(ops, CoreId(c));
        }
    });
    // One operation per task.
    let tasks = u64::from(n) * u64::from(tasks_per_core);
    cx.ops_attempted = tasks;
    match stats {
        Some(s) if cx.setup_only => drop(s),
        Some(s) => {
            let missing = tasks.saturating_sub(s.activities_started);
            if missing > 0 {
                cx.fail(missing, format!("{missing} of {tasks} tasks never started"));
            }
            cx.metric(
                "final_vtime_cycles",
                "cycles",
                s.final_vtime.cycles() as f64,
            );
            cx.metric("cores_per_s", "1/s", f64::from(n) / s.wall.as_secs_f64());
            cx.metric("core.phase_a_s", "s", s.phase_a_wall_ns as f64 / 1e9);
            cx.metric("core.phase_b_s", "s", s.phase_b_wall_ns as f64 / 1e9);
            cx.metric("core.serial_tail_s", "s", s.serial_tail_ns as f64 / 1e9);
            cx.metric("core.frame_parks", "count", s.frame_parks as f64);
            cx.metric("core.parallel_epochs", "count", s.parallel_epochs as f64);
        }
        None => cx.ops_failed = tasks,
    }
}

/// `(cores, workload scale)` of the kernel workload.
pub fn kernels_size(quick: bool) -> (u32, Scale) {
    if quick {
        (64, Scale(0.1))
    } else {
        (1024, Scale(1.0))
    }
}

/// Input instances per kernel (and per protocol point): data seeds
/// `seed`, `seed + 1`, ... The kernels' cost depends on their data —
/// Quicksort's on pivot luck by 2x — and a rep that sums a few instances
/// moves less from seed to seed than one instance of twice the size.
pub const KERNEL_INSTANCES: u64 = 2;
pub const PROTOCOL_INSTANCES: u64 = 5;

/// The six dwarf kernels on a distributed-memory mesh, Spatial sync
/// T = 100 (the preset's default). One operation per kernel instance.
fn kernels(cx: &mut Cx) {
    let (n, scale) = kernels_size(cx.quick);
    for kernel in all_kernels() {
        for seed in cx.instance_seeds(KERNEL_INSTANCES) {
            let mut spec = cx.build_topology(|| presets::uniform_mesh_dm(n));
            spec.engine = cx.engine_config(spec.engine, seed);
            cx.program_run(kernel.name(), spec, |spec| {
                kernel.run_sim(spec, scale, seed)
            });
        }
    }
}

pub fn protocols_cores(quick: bool) -> u32 {
    if quick {
        16
    } else {
        64
    }
}

/// The four fault intensities of the BENCH_PR9 grid.
pub fn protocol_faults() -> [(&'static str, Option<FaultConfig>); 4] {
    let horizon = VirtualTime::from_cycles(100_000);
    let partitioned = FaultConfig {
        partition_at: Some(VirtualTime::from_cycles(5_000)),
        partition_heal: Some(VirtualTime::from_cycles(30_000)),
        horizon,
        ..FaultConfig::default()
    };
    [
        ("clean", None),
        ("partition", Some(partitioned)),
        (
            "partition+drop",
            Some(FaultConfig {
                drop_prob: 0.05,
                ..partitioned
            }),
        ),
        (
            "drop+churn",
            Some(FaultConfig {
                drop_prob: 0.15,
                churn_cores: 4,
                churn_every: VDuration::from_cycles(8_000),
                horizon,
                ..FaultConfig::default()
            }),
        ),
    ]
}

/// Gossip, DHT lookup and quorum under four fault intensities (the
/// BENCH_PR9 grid). One operation per (point, instance).
fn protocols(cx: &mut Cx) {
    let n = protocols_cores(cx.quick);
    // Protocol horizons are rounds x period: recovery after the 30k-cycle
    // heal needs scale >= 1.
    let scale = Scale(1.0);
    for protocol in all_protocols() {
        for (label, faults) in &protocol_faults() {
            for seed in cx.instance_seeds(PROTOCOL_INSTANCES) {
                let mut spec = cx.build_topology(|| presets::uniform_mesh_sm(n));
                spec.engine = cx.engine_config(spec.engine, seed);
                if let Some(faults) = faults {
                    let span = cx.spans.enter("fault.plan_sample");
                    let plan = FaultPlan::sample(&spec.topo, faults, seed);
                    cx.setup_ns += cx.spans.exit(span);
                    spec.engine = spec.engine.with_fault_plan(Arc::new(plan));
                }
                let what = format!("{} under {label}", protocol.name());
                let outcome =
                    cx.program_run(&what, spec, |spec| protocol.run_sim(spec, scale, seed));
                if let Some(o) = outcome {
                    cx.digest.word(o.metrics.delivered);
                    cx.digest.word(o.metrics.expected);
                }
            }
        }
    }
}

/// The four validation kernels on SiMany's coherent shared-memory mesh
/// (VT) and on the cycle-level reference (CL) at 1..64 cores, one
/// instance. One operation per (kernel, machine, core count).
fn validate(cx: &mut Cx) {
    let (counts, scale): (&[u32], Scale) = if cx.quick {
        (&[1, 2, 4], Scale(0.05))
    } else {
        (&presets::VALIDATION_CORE_COUNTS, Scale(0.5))
    };
    let seed = cx.seed;
    let (mut vt_speedups, mut cl_speedups) = (Vec::new(), Vec::new());
    let (mut vt_host_ns, mut cl_host_ns) = (0u64, 0u64);
    for name in ["Barnes-Hut", "Connected Components", "Quicksort", "SpMxV"] {
        let kernel = kernel_by_name(name).expect("validation kernel exists");
        type SpecFn = fn(u32) -> ProgramSpec;
        let machines: [(SpecFn, &mut Vec<f64>, &mut u64); 2] = [
            (
                presets::uniform_mesh_sm_coherent,
                &mut vt_speedups,
                &mut vt_host_ns,
            ),
            (presets::cycle_level, &mut cl_speedups, &mut cl_host_ns),
        ];
        for (make_spec, speedups, host_ns) in machines {
            let mut points = Vec::new();
            for &cores in counts {
                let mut spec = cx.build_topology(|| make_spec(cores));
                spec.engine = cx.engine_config(spec.engine, seed);
                let what = format!("{name} at {cores} cores");
                if let Some(r) =
                    cx.program_run(&what, spec, |spec| kernel.run_sim(spec, scale, seed))
                {
                    *host_ns += r.out.stats.wall.as_nanos() as u64;
                    points.push((cores, r.cycles()));
                }
            }
            // Speedups against the machine's own 1-core point, cores > 1.
            let series = simany::stats::SpeedupSeries::new(name, points);
            speedups.extend(series.speedups().iter().skip(1).map(|&(_, s)| s));
        }
    }
    if cx.setup_only || cx.ops_failed > 0 {
        return;
    }
    for &s in vt_speedups.iter().chain(&cl_speedups) {
        cx.digest.word(s.to_bits());
    }
    cx.metric(
        crate::catalog::VT_CL_ERR,
        "%",
        100.0 * simany::stats::geomean_error(&vt_speedups, &cl_speedups),
    );
    cx.metric("cyclelevel.wall_s", "s", cl_host_ns as f64 / 1e9);
    cx.metric(
        "cyclelevel.cl_over_vt_host",
        "ratio",
        cl_host_ns as f64 / vt_host_ns as f64,
    );
}

/// The committed drift sweep with this rep's seed (and, for `--quick`,
/// smaller machines) substituted into its `[defaults]`.
fn drift_spec(cx: &Cx) -> String {
    for line in ["seed = 7", "cores = 64", "scale = 0.25"] {
        assert!(
            DRIFT_SPEC.contains(line),
            "drift.toml no longer says `{line}`"
        );
    }
    let spec = DRIFT_SPEC.replace("seed = 7", &format!("seed = {}", cx.seed));
    if cx.quick {
        return spec
            .replace("cores = 64", "cores = 16")
            .replace("scale = 0.25", "scale = 0.05");
    }
    spec
}

/// Where `sweep_drift` keeps the service's output directory.
pub fn sweep_out_dir(work_dir: &Path) -> PathBuf {
    work_dir.join("sweep-out")
}

/// `examples/sweeps/drift.toml` through `simany_serve::Service`, one
/// worker, checkpoint-based preemption on. One operation per scenario.
fn sweep(cx: &mut Cx) {
    let spec_path = cx.work_dir.join("drift.toml");
    std::fs::write(&spec_path, drift_spec(cx)).expect("work dir is writable");
    let out_dir = sweep_out_dir(&cx.work_dir);
    let cfg = ServeConfig {
        spec_path: spec_path.to_string_lossy().into_owned(),
        out_dir: out_dir.clone(),
        // Workers inherit this process's one-CPU mask.
        workers: 1,
        checkpoint_every: Some(10_000),
        preempt_after: Some(2),
        max_resumes: 3,
        ..ServeConfig::default()
    };
    let span = cx.spans.enter("serve.new");
    let service = Service::new(cfg);
    let setup_ns = cx.spans.exit(span);
    cx.setup_ns += setup_ns;
    let mut service = match service {
        Ok(s) => s,
        Err(e) => return cx.fail(1, format!("sweep service set-up failed: {e}")),
    };
    if cx.setup_only {
        return;
    }
    let span = cx.spans.enter("serve.run");
    let summary = service.run(&std::sync::atomic::AtomicBool::new(false));
    let run_ns = cx.spans.exit(span);
    let summary = match summary {
        Ok(s) => s,
        Err(e) => return cx.fail(1, format!("sweep service run failed: {e}")),
    };

    cx.ops_attempted = summary.scenarios as u64;
    let records = simany_serve::read_results(&out_dir.join("results.jsonl")).unwrap_or_default();
    let mut finals: Vec<(String, u64)> = records
        .iter()
        .filter(|r| r.get("status").and_then(Json::as_str) == Some("ok"))
        .filter_map(|r| {
            Some((
                r.get("label")?.as_str()?.to_string(),
                r.get("final_vtime_cycles")?.as_u64()?,
            ))
        })
        .collect();
    finals.sort();
    let bad = cx.ops_attempted.saturating_sub(finals.len() as u64);
    if bad > 0 || summary.failed > 0 || summary.interrupted {
        cx.fail(
            bad.max(1),
            format!(
                "sweep: {} of {} scenarios have an ok record, {} jobs failed, interrupted: {}",
                finals.len(),
                summary.scenarios,
                summary.failed,
                summary.interrupted
            ),
        );
    }
    for (_, cycles) in &finals {
        cx.digest.word(*cycles);
    }

    // The engine's share, from what each worker wrote about itself.
    let mut workers_wall_ns = 0.0;
    if let Ok(dir) = std::fs::read_dir(out_dir.join("runs")) {
        let mut paths: Vec<PathBuf> = dir.filter_map(|e| Some(e.ok()?.path())).collect();
        paths.sort();
        for path in paths
            .iter()
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
        {
            let Some(run) = std::fs::read_to_string(path)
                .ok()
                .and_then(|t| Json::parse(&t).ok())
            else {
                continue;
            };
            let num = |key: &str| run.get(key).and_then(Json::as_u64).unwrap_or(0);
            workers_wall_ns += num("wall_ns") as f64;
            let e = &mut cx.engine;
            e.build_ns += num("build_ns");
            e.run_ns += num("run_ns");
            e.picks += num("scheduler_picks");
            e.stalls += num("sync_stalls");
            e.messages += num("messages");
            e.tasks_started += num("tasks_started");
            e.fast_path_advances += num("fast_path_advances");
            e.checkpoints_written += num("checkpoints_written");
        }
    }
    let launches = summary.unique_jobs as u64 + summary.preempts;
    cx.metric(
        "scenarios_per_hour",
        "1/h",
        summary.scenarios as f64 / (summary.wall_secs / 3600.0),
    );
    cx.metric("serve.setup_s", "s", setup_ns as f64 / 1e9);
    cx.metric("serve.run_s", "s", run_ns as f64 / 1e9);
    cx.metric(
        "serve.overhead_per_launch_s",
        "s",
        (run_ns as f64 - workers_wall_ns) / 1e9 / launches as f64,
    );
    cx.metric("serve.jobs", "count", summary.unique_jobs as f64);
    cx.metric("serve.dedup_hits", "count", summary.dedup_hits as f64);
    cx.metric("serve.preempts", "count", summary.preempts as f64);
    cx.metric("serve.resumes", "count", summary.resumes as f64);
    cx.metric("serve.failed", "count", summary.failed as f64);
}
