#![warn(missing_docs)]

//! # simany-bench — the figure/table regeneration harness
//!
//! One function per experiment of the paper's evaluation section (§VI).
//! Each returns rendered Markdown; the `repro` binary drives them from the
//! command line:
//!
//! ```sh
//! cargo run --release -p simany-bench --bin repro -- all
//! cargo run --release -p simany-bench --bin repro -- fig5 --instances 5
//! ```
//!
//! Absolute numbers will not match the paper (different host, different
//! reference simulator, reduced default workload sizes — see
//! `EXPERIMENTS.md`); the *shapes* are the reproduction target: who wins,
//! by roughly what factor, where the crossovers fall.

use simany::experiment::{native_time, sweep, to_series, SweepPoint};
use simany::kernels::{all_kernels, DwarfKernel, Scale};
use simany::presets;
use simany::runtime::ProgramSpec;
use simany::stats::{f2, geomean, pct, pct_signed, power_law_fit, Table};
use std::fmt::Write as _;

/// Harness options.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload instances per measured point (the paper uses 50; default 3
    /// keeps the full reproduction tractable).
    pub instances: u64,
    /// Workload scale for the validation (cycle-level) sweeps.
    pub scale: Scale,
    /// Workload scale for the large-machine sweeps (Figs. 7-13): big
    /// meshes need enough tasks for work to diffuse across the chip, just
    /// as the paper pairs its 10^6-row matrices with 1024-core machines.
    pub large_scale: Scale,
    /// Largest machine for the large-scale sweeps.
    pub max_cores: u32,
    /// Largest machine for the cycle-level validation sweeps.
    pub max_validation_cores: u32,
    /// Base seed.
    pub seed: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            instances: 3,
            scale: Scale(0.5),
            large_scale: Scale(4.0),
            max_cores: 1024,
            max_validation_cores: 16,
            seed: 20_110_516, // IPDPS 2011 :-)
        }
    }
}

impl Options {
    fn large_counts(&self) -> Vec<u32> {
        presets::PAPER_CORE_COUNTS
            .iter()
            .copied()
            .filter(|&c| c <= self.max_cores)
            .collect()
    }

    fn validation_counts(&self) -> Vec<u32> {
        presets::VALIDATION_CORE_COUNTS
            .iter()
            .copied()
            .filter(|&c| c <= self.max_validation_cores)
            .collect()
    }
}

/// The four kernels of the validation figures (Fig. 5/6).
fn validation_kernels() -> Vec<Box<dyn DwarfKernel>> {
    ["Barnes-Hut", "Connected Components", "Quicksort", "SpMxV"]
        .iter()
        .map(|n| simany::kernels::kernel_by_name(n).expect("kernel"))
        .collect()
}

fn speedup_table(title: &str, cores: &[u32], rows: &[(String, Vec<SweepPoint>)]) -> String {
    let mut header: Vec<String> = vec!["kernel".into()];
    header.extend(cores.iter().map(|c| format!("{c} cores")));
    let mut t = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for (name, points) in rows {
        let series = to_series(name, points);
        let mut cells = vec![name.clone()];
        for &c in cores {
            cells.push(series.speedup_at(c).map(f2).unwrap_or_else(|| "-".into()));
        }
        t.row(cells);
    }
    format!(
        "### {title}\n\n(virtual-time speedups vs 1 core)\n\n{}",
        t.to_markdown()
    )
}

/// Fig. 5 / Fig. 6: VT-vs-CL validation on uniform or polymorphic meshes,
/// including the geometric-mean error rows of §VI.
pub fn validation_figure(opts: &Options, polymorphic: bool) -> String {
    let cores = opts.validation_counts();
    type SpecFn = fn(u32) -> ProgramSpec;
    let (vt_spec, cl_spec): (SpecFn, SpecFn) = if polymorphic {
        (
            presets::polymorphic_sm_coherent,
            presets::cycle_level_polymorphic,
        )
    } else {
        (presets::uniform_mesh_sm_coherent, presets::cycle_level)
    };
    let title = if polymorphic {
        "Fig. 6 — Polymorphic 2D-mesh speedups, SiMany (VT) vs cycle-level (CL)"
    } else {
        "Fig. 5 — Regular 2D-mesh speedups, SiMany (VT) vs cycle-level (CL)"
    };

    let mut rows = Vec::new();
    let mut per_count_errors: Vec<Vec<f64>> = vec![Vec::new(); cores.len()];
    for kernel in validation_kernels() {
        let vt = sweep(
            kernel.as_ref(),
            &cores,
            vt_spec,
            opts.scale,
            opts.instances,
            opts.seed,
        )
        .expect("VT sweep failed");
        let cl = sweep(
            kernel.as_ref(),
            &cores,
            cl_spec,
            opts.scale,
            opts.instances,
            opts.seed,
        )
        .expect("CL sweep failed");
        let vt_s = to_series("vt", &vt);
        let cl_s = to_series("cl", &cl);
        for (i, &c) in cores.iter().enumerate() {
            if let (Some(a), Some(b)) = (vt_s.speedup_at(c), cl_s.speedup_at(c)) {
                if c > 1 {
                    per_count_errors[i].push((a - b).abs() / b.max(1e-12));
                }
            }
        }
        rows.push((format!("{} VT", kernel.name()), vt));
        rows.push((format!("{} CL", kernel.name()), cl));
    }

    let mut out = speedup_table(title, &cores, &rows);
    let _ = writeln!(out, "\nGeometric-mean VT-vs-CL speedup error:\n");
    let mut t = Table::new(&["cores", "geomean error"]);
    for (i, &c) in cores.iter().enumerate() {
        if c > 1 && !per_count_errors[i].is_empty() {
            t.row(vec![
                c.to_string(),
                pct(geomean(
                    &per_count_errors[i]
                        .iter()
                        .map(|e| e.max(1e-4))
                        .collect::<Vec<_>>(),
                )),
            ]);
        }
    }
    let _ = writeln!(out, "{}", t.to_markdown());
    out
}

/// Fig. 7: normalized simulation time (simulator wall clock over native
/// execution) for every kernel across the large sweep, plus the power-law
/// fit of the paper's "square law" observation.
pub fn fig7_simulation_time(opts: &Options) -> String {
    let cores = opts.large_counts();
    let mut header: Vec<String> = vec!["kernel (arch)".into()];
    header.extend(cores.iter().map(|c| format!("{c} cores")));
    let mut t = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    let mut fit_points: Vec<(f64, f64)> = Vec::new();
    let mut fit_points_regular: Vec<(f64, f64)> = Vec::new();
    for kernel in all_kernels() {
        let native = native_time(kernel.as_ref(), opts.large_scale, opts.instances, opts.seed);
        for (arch, spec_fn) in [
            ("SM", presets::uniform_mesh_sm as fn(u32) -> ProgramSpec),
            ("DM", presets::uniform_mesh_dm as fn(u32) -> ProgramSpec),
        ] {
            let points = sweep(
                kernel.as_ref(),
                &cores,
                spec_fn,
                opts.large_scale,
                opts.instances,
                opts.seed,
            )
            .expect("sweep failed");
            let mut cells = vec![format!("{} ({arch})", kernel.name())];
            for p in &points {
                let norm = simany::stats::normalized_time(p.sim_wall, native);
                if p.cores > 1 {
                    fit_points.push((p.cores as f64, norm.max(1e-6)));
                    if kernel.name() != "Dijkstra" {
                        fit_points_regular.push((p.cores as f64, norm.max(1e-6)));
                    }
                }
                cells.push(format!("{norm:.0}"));
            }
            t.row(cells);
        }
    }
    let (a, b) = power_law_fit(&fit_points);
    let (ar, br) = power_law_fit(&fit_points_regular);
    format!(
        "### Fig. 7 — Average normalized simulation time (wall / native)\n\n{}\n\
         Power-law fit over all kernels: `t_norm ≈ {a:.2} · cores^{b:.2}`; \
         excluding Dijkstra (whose speculative algorithm does *less* total \
         work as cores grow): `t_norm ≈ {ar:.2} · cores^{br:.2}` \
         (the paper reports a square law with a small coefficient).\n",
        t.to_markdown()
    )
}

/// Fig. 8 / Fig. 9: large-scale speedups on shared / distributed memory.
pub fn large_scale_figure(opts: &Options, distributed: bool) -> String {
    let cores = opts.large_counts();
    let (title, spec_fn): (&str, fn(u32) -> ProgramSpec) = if distributed {
        (
            "Fig. 9 — Regular 2D-mesh speedups (distributed memory)",
            presets::uniform_mesh_dm,
        )
    } else {
        (
            "Fig. 8 — Regular 2D-mesh speedups (shared memory)",
            presets::uniform_mesh_sm,
        )
    };
    let mut rows = Vec::new();
    for kernel in all_kernels() {
        let points = sweep(
            kernel.as_ref(),
            &cores,
            spec_fn,
            opts.large_scale,
            opts.instances,
            opts.seed,
        )
        .expect("sweep failed");
        rows.push((kernel.name().to_string(), points));
    }
    speedup_table(title, &cores, &rows)
}

/// Fig. 10 (table): virtual-time speedup variation as T varies, averaged
/// over the 64+-core machines, baseline T = 100.
/// Fig. 11 (table): simulation wall-time variation over the same sweep.
pub fn drift_tables(opts: &Options) -> String {
    let t_values = [50u64, 500, 1000];
    let cores: Vec<u32> = opts
        .large_counts()
        .into_iter()
        .filter(|&c| c >= 64)
        .collect();
    let cores = if cores.is_empty() {
        vec![opts.max_cores]
    } else {
        cores
    };

    let mut speed_t = Table::new(&[
        "T",
        "Barnes-Hut",
        "Connected Components",
        "Dijkstra",
        "Quicksort",
        "SpMxV",
        "Octree",
    ]);
    let mut wall_t = speed_t.clone();
    let kernels = all_kernels();

    // Baselines at T=100.
    let mut base: Vec<Vec<SweepPoint>> = Vec::new();
    for kernel in &kernels {
        base.push(
            sweep(
                kernel.as_ref(),
                &cores,
                presets::uniform_mesh_sm,
                opts.large_scale,
                opts.instances,
                opts.seed,
            )
            .expect("baseline sweep failed"),
        );
    }
    for t in t_values {
        let mut srow = vec![t.to_string()];
        let mut wrow = vec![t.to_string()];
        for (k, kernel) in kernels.iter().enumerate() {
            let points = sweep(
                kernel.as_ref(),
                &cores,
                |n| presets::with_drift(presets::uniform_mesh_sm(n), t),
                opts.large_scale,
                opts.instances,
                opts.seed,
            )
            .expect("drift sweep failed");
            // Mean relative variation of virtual speedup = inverse of the
            // cycles ratio; of wall time directly.
            let mut svar = 0.0;
            let mut wvar = 0.0;
            for (p, b) in points.iter().zip(&base[k]) {
                svar += b.cycles as f64 / p.cycles.max(1) as f64 - 1.0;
                wvar += p.sim_wall.as_secs_f64() / b.sim_wall.as_secs_f64().max(1e-9) - 1.0;
            }
            srow.push(pct_signed(svar / points.len() as f64));
            wrow.push(pct_signed(wvar / points.len() as f64));
        }
        speed_t.row(srow);
        wall_t.row(wrow);
    }
    format!(
        "### Fig. 10 — Virtual-speedup variation with T (baseline T = 100)\n\n{}\n\
         ### Fig. 11 — Simulation wall-time variation with T (baseline T = 100)\n\n{}",
        speed_t.to_markdown(),
        wall_t.to_markdown()
    )
}

/// Fig. 12: clustered meshes (distributed memory). Also reports the
/// per-kernel virtual-time change on the largest machine vs the uniform
/// mesh (the paper's −28.7 % / −25.6 % style numbers).
pub fn fig12_clusters(opts: &Options, n_clusters: u32) -> String {
    let cores: Vec<u32> = opts
        .large_counts()
        .into_iter()
        .filter(|&c| c >= n_clusters && c % n_clusters == 0)
        .collect();
    let mut rows = Vec::new();
    let mut deltas = Table::new(&["kernel", "Δ virtual time @ largest (clustered vs uniform)"]);
    for kernel in all_kernels() {
        let clustered = sweep(
            kernel.as_ref(),
            &cores,
            |n| presets::clustered_dm(n, n_clusters),
            opts.large_scale,
            opts.instances,
            opts.seed,
        )
        .expect("clustered sweep failed");
        let uniform = sweep(
            kernel.as_ref(),
            &cores,
            presets::uniform_mesh_dm,
            opts.large_scale,
            opts.instances,
            opts.seed,
        )
        .expect("uniform sweep failed");
        if let (Some(c), Some(u)) = (clustered.last(), uniform.last()) {
            // Crossover: the core count from which the clustered machine
            // beats the uniform one (paper: "the average turning point for
            // all benchmarks is around 78 cores").
            let uni_pts: Vec<(u32, u64)> = uniform.iter().map(|p| (p.cores, p.cycles)).collect();
            let clu_pts: Vec<(u32, u64)> = clustered.iter().map(|p| (p.cores, p.cycles)).collect();
            let turning = simany::stats::crossover(&uni_pts, &clu_pts)
                .map(|x| format!("{x:.0} cores"))
                .unwrap_or_else(|| "never".into());
            deltas.row(vec![
                format!("{} (turns at {turning})", kernel.name()),
                pct_signed(c.cycles as f64 / u.cycles.max(1) as f64 - 1.0),
            ]);
        }
        rows.push((kernel.name().to_string(), clustered));
    }
    // Speedups are relative to the *uniform* 1-core baseline: the paper's
    // clustered curves share the Fig. 9 baseline. Our sweep lacks a 1-core
    // clustered machine (1 core cannot be clustered), so report raw cycles.
    let mut header: Vec<String> = vec!["kernel".into()];
    header.extend(cores.iter().map(|c| format!("{c} cores")));
    let mut t = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for (name, points) in &rows {
        let mut cells = vec![name.clone()];
        for p in points {
            cells.push(p.cycles.to_string());
        }
        t.row(cells);
    }
    format!(
        "### Fig. 12 — Clustered 2D mesh, {n_clusters} clusters (distributed memory)\n\n\
         (virtual completion cycles; lower is better)\n\n{}\n\
         Change at the largest machine vs the uniform mesh:\n\n{}",
        t.to_markdown(),
        deltas.to_markdown()
    )
}

/// Fig. 13: polymorphic meshes, distributed memory. Speedups are computed
/// against the *uniform* machine's 1-core baseline (a \"1-core polymorphic
/// machine\" would be a lone half-speed core), and the paper's comparison —
/// virtual-time change vs the uniform mesh, averaged over the two largest
/// machines (the −18.8 % claim of §VI) — is reported alongside.
pub fn fig13_polymorphic(opts: &Options) -> String {
    let cores = opts.large_counts();
    let mut t = {
        let mut header: Vec<String> = vec!["kernel".into()];
        header.extend(cores.iter().skip(1).map(|c| format!("{c} cores")));
        Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>())
    };
    let mut deltas = Table::new(&["kernel", "Δ virtual time vs uniform (avg of two largest)"]);
    for kernel in all_kernels() {
        let poly = sweep(
            kernel.as_ref(),
            &cores[1..],
            presets::polymorphic_dm,
            opts.large_scale,
            opts.instances,
            opts.seed,
        )
        .expect("polymorphic sweep failed");
        let uniform = sweep(
            kernel.as_ref(),
            &cores,
            presets::uniform_mesh_dm,
            opts.large_scale,
            opts.instances,
            opts.seed,
        )
        .expect("uniform sweep failed");
        let base = uniform.first().expect("1-core baseline").cycles as f64;
        let mut cells = vec![kernel.name().to_string()];
        for p in &poly {
            cells.push(f2(base / p.cycles.max(1) as f64));
        }
        t.row(cells);
        // Paper's metric: virtual execution time change at the two largest
        // machines vs the uniform mesh.
        let k = poly.len();
        if k >= 2 {
            let mut acc = 0.0;
            for i in [k - 2, k - 1] {
                // uniform[0] is the 1-core point; align by core count.
                let u = uniform
                    .iter()
                    .find(|u| u.cores == poly[i].cores)
                    .expect("aligned sweep");
                acc += poly[i].cycles as f64 / u.cycles.max(1) as f64 - 1.0;
            }
            deltas.row(vec![kernel.name().to_string(), pct_signed(acc / 2.0)]);
        }
    }
    format!(
        "### Fig. 13 — Polymorphic 2D-mesh speedups (distributed memory)\n\n\
         (speedups vs the uniform machine's 1-core baseline)\n\n{}\n\
         Virtual-time change vs the uniform mesh (paper §VI: −18.8 % on\n\
         average for the non-regular benchmarks at 256/1024 cores):\n\n{}",
        t.to_markdown(),
        deltas.to_markdown()
    )
}

/// Ablation (beyond the paper): the same workload under every
/// synchronization policy, comparing virtual results and wall time.
pub fn ablation_sync_policies(opts: &Options) -> String {
    use simany::core::{SyncPolicy, VDuration};
    let kernel = simany::kernels::kernel_by_name("Quicksort").expect("kernel");
    let n = 64.min(opts.max_cores);
    let policies: Vec<(&str, SyncPolicy)> = vec![
        (
            "Spatial T=100 (paper)",
            SyncPolicy::Spatial {
                t: VDuration::from_cycles(100),
            },
        ),
        (
            "BoundedSlack 100 (SlackSim-like)",
            SyncPolicy::BoundedSlack {
                window: VDuration::from_cycles(100),
            },
        ),
        ("Conservative (exact order)", SyncPolicy::Conservative),
        ("Unbounded (free run)", SyncPolicy::Unbounded),
    ];
    // Conservative ordering is the accuracy reference: it processes every
    // event in exact virtual-time order.
    let reference = {
        let mut spec = presets::uniform_mesh_sm(n);
        spec.engine.sync = SyncPolicy::Conservative;
        kernel
            .run_sim(spec, opts.scale, opts.seed)
            .expect("reference run failed")
            .cycles()
    };
    let mut t = Table::new(&[
        "policy",
        "virtual cycles",
        "vs exact order",
        "stalls",
        "wall",
    ]);
    for (name, policy) in policies {
        let mut spec = presets::uniform_mesh_sm(n);
        spec.engine.sync = policy;
        let r = kernel
            .run_sim(spec, opts.scale, opts.seed)
            .expect("ablation run failed");
        assert!(r.verified);
        t.row(vec![
            name.to_string(),
            r.cycles().to_string(),
            pct_signed(r.cycles() as f64 / reference.max(1) as f64 - 1.0),
            r.out.stats.stall_events.to_string(),
            format!("{:?}", r.out.stats.wall),
        ]);
    }
    format!(
        "### Ablation — synchronization policies (Quicksort, {n} cores)\n\n{}",
        t.to_markdown()
    )
}

/// Extension (the paper's future work, §VIII): "the results we obtained
/// for the polymorphic [...] architectures could be improved substantially
/// with specific scheduling policies that would take into account the
/// [...] computing power disparity among cores". Compare the default
/// least-loaded spawn policy against a speed-aware one on polymorphic
/// meshes.
pub fn extension_polymorphic_scheduling(opts: &Options) -> String {
    use simany::runtime::SpawnPolicy;
    let cores: Vec<u32> = opts.large_counts().into_iter().filter(|&c| c > 1).collect();
    let mut t = Table::new(&["kernel", "policy", "virtual cycles (per machine)"]);
    for kernel in all_kernels() {
        for (label, policy) in [
            ("least-loaded", SpawnPolicy::LeastLoaded),
            ("favor-fast", SpawnPolicy::FavorFast),
        ] {
            let points = sweep(
                kernel.as_ref(),
                &cores,
                |n| {
                    let mut spec = presets::polymorphic_sm(n);
                    spec.runtime.spawn_policy = policy;
                    spec
                },
                opts.large_scale,
                opts.instances,
                opts.seed,
            )
            .expect("policy sweep failed");
            let cells: Vec<String> = points
                .iter()
                .map(|p| format!("{}@{}", p.cycles, p.cores))
                .collect();
            t.row(vec![
                kernel.name().to_string(),
                label.to_string(),
                cells.join("  "),
            ]);
        }
    }
    format!(
        "### Extension — speed-aware task placement on polymorphic meshes (paper §VIII future work)\n\n{}",
        t.to_markdown()
    )
}

/// Extension (the paper's future work, §VIII): the "preliminary study"
/// of available host parallelism. The paper claims that "at least from
/// networks with 64 cores, there are enough cores verifying these
/// conditions [independently simulatable within their local time windows]
/// to keep all cores of current multi-core host machines busy". We sample
/// how many cores have runnable work per scheduler instant.
pub fn extension_host_parallelism(opts: &Options) -> String {
    let cores: Vec<u32> = opts.large_counts().into_iter().filter(|&c| c > 1).collect();
    let kernels = ["Barnes-Hut", "SpMxV", "Octree"];
    let mut t = Table::new(&["kernel", "machine", "mean avail. parallelism", "p10", "p90"]);
    for name in kernels {
        let kernel = simany::kernels::kernel_by_name(name).expect("kernel");
        for &n in &cores {
            let mut spec = presets::uniform_mesh_sm(n);
            spec.engine.parallelism_sample_every = 32;
            let r = kernel
                .run_sim(spec, opts.large_scale, opts.seed)
                .expect("parallelism run failed");
            assert!(r.verified);
            t.row(vec![
                name.to_string(),
                format!("{n} cores"),
                f2(r.out.stats.mean_parallelism()),
                r.out.stats.parallelism_percentile(10.0).to_string(),
                r.out.stats.parallelism_percentile(90.0).to_string(),
            ]);
        }
    }
    format!(
        "### Extension — available host parallelism (paper §VIII preliminary study)\n\n\
         How many simulated cores could be hosted concurrently, sampled every\n\
         32 scheduler picks. The paper expects 64+-core machines to keep an\n\
         8-16-core host busy.\n\n{}",
        t.to_markdown()
    )
}

/// Ablation (beyond the paper): timing-annotation granularity. The paper
/// allows "attribut[ing] approximate timings to coarse program parts at
/// once with very low overhead" (§II.A); coarse blocks simulate faster but
/// interact more bluntly with the drift window. Fixed total work per task,
/// varying chunk size.
pub fn ablation_annotation_granularity(opts: &Options) -> String {
    use simany::runtime::{run_program, TaskCtx};
    let n = 16u32;
    let total_work = 20_000u64;
    let mut t = Table::new(&[
        "chunk (cycles)",
        "virtual cycles",
        "stalls",
        "messages",
        "wall",
    ]);
    for chunk in [10u64, 50, 200, 1000, 5000] {
        let mut spec = presets::uniform_mesh_sm(n);
        spec.engine = spec.engine.with_seed(opts.seed);
        let out = run_program(spec, move |tc| {
            let g = tc.make_group();
            for _ in 0..12 {
                tc.spawn_or_run(g, move |tc: &mut TaskCtx<'_>| {
                    let mut left = total_work;
                    while left > 0 {
                        let step = left.min(chunk);
                        tc.work(step);
                        left -= step;
                    }
                });
            }
            tc.join(g);
        })
        .expect("granularity run failed");
        t.row(vec![
            chunk.to_string(),
            out.vtime_cycles().to_string(),
            out.stats.stall_events.to_string(),
            out.stats.net.messages.to_string(),
            format!("{:?}", out.stats.wall),
        ]);
    }
    format!(
        "### Ablation — annotation granularity ({n} cores, 12 × {total_work}-cycle tasks)\n\n{}",
        t.to_markdown()
    )
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where the proc filesystem is unavailable
/// (non-Linux hosts). Monotonic over the process lifetime: after several
/// runs in one process it reports the largest footprint any of them
/// reached.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Options {
        Options {
            instances: 1,
            scale: Scale(0.02),
            large_scale: Scale(0.02),
            max_cores: 8,
            max_validation_cores: 4,
            seed: 1,
        }
    }

    #[test]
    fn validation_figure_renders() {
        let md = validation_figure(&tiny(), false);
        assert!(md.contains("Fig. 5"));
        assert!(md.contains("Quicksort VT"));
        assert!(md.contains("geomean error"));
    }

    #[test]
    fn large_scale_figures_render() {
        let md = large_scale_figure(&tiny(), false);
        assert!(md.contains("Fig. 8"));
        assert!(md.contains("Octree"));
        let md = large_scale_figure(&tiny(), true);
        assert!(md.contains("Fig. 9"));
    }

    #[test]
    fn drift_tables_render() {
        let md = drift_tables(&tiny());
        assert!(md.contains("Fig. 10"));
        assert!(md.contains("Fig. 11"));
    }

    #[test]
    fn clusters_and_polymorphic_render() {
        let md = fig12_clusters(&tiny(), 4);
        assert!(md.contains("Fig. 12"));
        let md = fig13_polymorphic(&tiny());
        assert!(md.contains("Fig. 13"));
    }

    #[test]
    fn polymorphic_scheduling_extension_renders() {
        let md = extension_polymorphic_scheduling(&tiny());
        assert!(md.contains("favor-fast"));
    }

    #[test]
    fn host_parallelism_extension_renders() {
        let md = extension_host_parallelism(&tiny());
        assert!(md.contains("avail. parallelism"));
    }

    #[test]
    fn granularity_ablation_renders() {
        let md = ablation_annotation_granularity(&tiny());
        assert!(md.contains("annotation granularity"));
    }

    #[test]
    fn ablation_renders() {
        let md = ablation_sync_policies(&tiny());
        assert!(md.contains("Conservative"));
        assert!(md.contains("Unbounded"));
    }
}
