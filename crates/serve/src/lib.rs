#![warn(missing_docs)]

//! # simany-serve — batch sweep service for design-space exploration
//!
//! The paper's headline use case is sweeping a design space — thousands of
//! (topology, kernel, drift, seed, fault-plan) points, each a deterministic
//! simulation. This crate turns that into a service: a sweep spec file
//! expands into a queue of scenarios executed across a bounded pool of
//! `simulate` worker processes, with
//!
//! * **deterministic scheduling** — priority then FIFO, a pure function of
//!   the spec ([`queue`]);
//! * **dedup** — scenarios with equal identity digests run once, results
//!   fan out to every requesting label ([`scenario`]);
//! * **checkpoint-based preemption** — workers stop cleanly after a budget
//!   of fresh checkpoints (engine exit code 15) and resume later, replay-
//!   verified ([`worker`]);
//! * **crash-safe restart** — an append-only journal plus the streamed
//!   `results.jsonl` let a killed sweep restart with no lost work and no
//!   duplicated results ([`journal`], [`service`]);
//! * **figures** — a spec's `report` key reduces its results to one of
//!   the paper's tables in `report.md` ([`figures`]).
//!
//! See DESIGN.md §"Sweep service" for the journal format and the
//! recovery/dedup/preemption contracts, and `examples/sweeps/` for specs.
//!
//! ## Quick start
//!
//! ```no_run
//! use std::sync::atomic::AtomicBool;
//!
//! let cfg = simany_serve::ServeConfig {
//!     spec_path: "examples/sweeps/drift.toml".into(),
//!     out_dir: "sweep-out".into(),
//!     workers: 4,
//!     ..Default::default()
//! };
//! let mut svc = simany_serve::Service::new(cfg).unwrap();
//! let summary = svc.run(&AtomicBool::new(false)).unwrap();
//! assert_eq!(summary.failed, 0);
//! ```

pub mod figures;
pub mod journal;
pub mod queue;
pub mod scenario;
pub mod service;
pub mod spec;
pub mod worker;

/// The workspace's JSON reader/writer (lives in `simany-stats`).
pub use simany::stats::json;

pub use scenario::{FaultKnobs, Scenario};
pub use service::{read_results, ServeConfig, Service, Summary};
pub use spec::{load_spec, parse_spec, Spec};

#[cfg(test)]
mod tests {
    //! The figure reducers on synthetic `results.jsonl` records: each
    //! table cell is checked against the statistic it claims to show.

    use crate::figures::{render, FIGURES};
    use crate::json::Json;
    use crate::{parse_spec, Scenario, Spec};
    use simany::stats::{crossover, geomean_error, pct, pct_signed, SpeedupSeries};

    /// One record per scenario: `run` gives `(cycles, wall_ns)`, or `None`
    /// for a failed run.
    fn records(spec: &Spec, run: impl Fn(&Scenario) -> Option<(u64, u64)>) -> Vec<Json> {
        let text = |s: &str| Json::Str(s.to_string());
        spec.scenarios
            .iter()
            .map(|s| {
                let mut r = vec![("label".to_string(), text(&s.label))];
                match run(s) {
                    Some((cycles, wall_ns)) => r.extend([
                        ("status".to_string(), text("ok")),
                        ("final_vtime_cycles".to_string(), Json::U64(cycles)),
                        ("wall_ns".to_string(), Json::U64(wall_ns)),
                        ("sync_stalls".to_string(), Json::U64(cycles / 10)),
                    ]),
                    None => r.push(("status".to_string(), text("failed (exit 14)"))),
                }
                Json::Obj(r)
            })
            .collect()
    }

    fn report(spec_text: &str, run: impl Fn(&Scenario) -> Option<(u64, u64)>) -> String {
        let spec = parse_spec(spec_text).unwrap();
        let name = spec.report.as_deref().unwrap();
        render(name, &spec.scenarios, &records(&spec, run)).unwrap()
    }

    /// The cells after the first of the Markdown row that starts with
    /// `first`.
    fn row(md: &str, first: &str) -> Vec<String> {
        let prefix = format!("| {first} |");
        let line = md
            .lines()
            .find(|l| l.starts_with(&prefix))
            .unwrap_or_else(|| panic!("no row {first:?} in\n{md}"));
        line.trim_matches('|')
            .split('|')
            .skip(1)
            .map(|c| c.trim().to_string())
            .collect()
    }

    /// Cycles that fall with cores, differ per kernel, machine and seed.
    fn cycles(s: &Scenario) -> u64 {
        let k = s.kernel.len() as u64 * 1_000;
        let m = if s.machine.starts_with("cycle-level") {
            7
        } else {
            0
        };
        (1_000_000 + k + m * 13_331) / u64::from(s.cores) + s.seed * 17
    }

    #[test]
    fn validation_figure_renders() {
        let spec = r#"
report = "fig5"
[defaults]
kernel = ["quicksort", "spmxv"]
cores = [1, 2, 4]
seed = [1, 2]
[[sweep]]
name = "vt"
arch = "smc"
[[sweep]]
name = "cl"
machine = "cycle-level"
"#;
        let md = report(spec, |s| Some((cycles(s), 1)));
        assert!(md.contains("Fig. 5"), "{md}");
        let series = |kernel: &str, machine: &str| {
            let points = [1u32, 2, 4]
                .iter()
                .map(|&cores| {
                    let at = |seed| {
                        let s = Scenario {
                            kernel: kernel.into(),
                            machine: machine.into(),
                            cores,
                            seed,
                            ..Scenario::default()
                        };
                        cycles(&s)
                    };
                    (cores, (at(1) + at(2)) / 2)
                })
                .collect();
            SpeedupSeries::new(kernel, points)
        };
        let mut vt_at_4 = Vec::new();
        let mut cl_at_4 = Vec::new();
        for (kernel, name) in [("quicksort", "Quicksort"), ("spmxv", "SpMxV")] {
            let vt = series(kernel, "mesh");
            let cl = series(kernel, "cycle-level");
            for (side, s) in [("VT", &vt), ("CL", &cl)] {
                let want: Vec<String> = [1, 2, 4]
                    .iter()
                    .map(|&c| format!("{:.2}", s.speedup_at(c).unwrap()))
                    .collect();
                assert_eq!(row(&md, &format!("{name} {side}")), want);
            }
            vt_at_4.push(vt.speedup_at(4).unwrap());
            cl_at_4.push(cl.speedup_at(4).unwrap());
        }
        assert_eq!(row(&md, "4"), [pct(geomean_error(&vt_at_4, &cl_at_4))]);
        assert!(!md.contains("| 1 |"), "no error row for the baseline");

        // A failed CL run takes its point, and its errors, out.
        let md = report(spec, |s| {
            (s.machine != "cycle-level" || s.cores != 2 || s.kernel != "spmxv")
                .then(|| (cycles(s), 1))
        });
        assert_eq!(row(&md, "SpMxV CL")[1], "-");
        assert_ne!(row(&md, "SpMxV VT")[1], "-");
        assert_ne!(row(&md, "2")[0], "-", "quicksort still pairs at 2 cores");
    }

    #[test]
    fn large_scale_figures_render() {
        let spec = "report = \"fig9\"\n[[sweep]]\nkernel = [\"barnes\", \"octree\"]\n\
                    arch = \"dm\"\ncores = [1, 8, 64]\nseed = [5, 6]\n";
        let md = report(spec, |s| Some((cycles(s), 1)));
        assert!(md.contains("Fig. 9"), "{md}");
        let base = (cycles(&Scenario {
            kernel: "octree".into(),
            cores: 1,
            seed: 5,
            ..Scenario::default()
        }) + cycles(&Scenario {
            kernel: "octree".into(),
            cores: 1,
            seed: 6,
            ..Scenario::default()
        })) / 2;
        let at_64 = (1_000_000 + 6_000) / 64 + (5 * 17 + 6 * 17) / 2;
        let series = SpeedupSeries::new("octree", vec![(1, base), (64, at_64)]);
        assert_eq!(row(&md, "Octree")[0], "1.00");
        assert_eq!(
            row(&md, "Octree")[2],
            format!("{:.2}", series.speedup_at(64).unwrap())
        );
        // No 1-core baseline, no speedups.
        let md = report(spec, |s| {
            (s.cores != 1 || s.kernel != "barnes").then(|| (cycles(s), 1))
        });
        assert_eq!(row(&md, "Barnes-Hut"), ["-", "-", "-"]);
    }

    #[test]
    fn drift_tables_render() {
        let spec = "report = \"fig10\"\n[[sweep]]\nkernel = [\"dijkstra\"]\n\
                    cores = [64, 256]\ndrift = [50, 100, 1000]\nseed = 1\n";
        // Cycles and wall scale with T by a per-machine factor.
        let run = |s: &Scenario| {
            let t = s.drift.unwrap();
            let cycles = if s.cores == 64 {
                1_000 + t
            } else {
                2_000 + 2 * t
            };
            Some((cycles, 1_000_000 * (2_000 - t)))
        };
        let md = report(spec, run);
        let speedup = |t: u64| {
            let s64 = 1_100.0 / (1_000 + t) as f64 - 1.0;
            let s256 = 2_200.0 / (2_000 + 2 * t) as f64 - 1.0;
            pct_signed((s64 + s256) / 2.0)
        };
        let wall = |t: u64| pct_signed((2_000 - t) as f64 / 1_900.0 - 1.0);
        let rows: Vec<_> = md.lines().filter(|l| l.starts_with("| 1000 |")).collect();
        assert_eq!(rows.len(), 2, "{md}");
        assert_eq!(row(&md, "50"), [speedup(50)]);
        assert_eq!(rows[0], format!("| 1000 | {} |", speedup(1000)));
        assert_eq!(rows[1], format!("| 1000 | {} |", wall(1000)));
        assert!(!md.contains("| 100 |"), "the baseline has no row");
    }

    #[test]
    fn clusters_and_polymorphic_render() {
        let spec = r#"
report = "fig12"
[defaults]
kernel = "connected"
arch = "dm"
cores = [8, 64, 256]
seed = 3
[[sweep]]
name = "clustered"
machine = "clustered"
clusters = [4, 8]
[[sweep]]
name = "uniform"
"#;
        // Clustering loses at 8 cores and wins from 64 (at 4 clusters) or
        // 256 (at 8) on.
        let uniform = [(8u32, 1_000u64), (64, 500), (256, 400)];
        let run = |s: &Scenario| {
            let u = uniform.iter().find(|p| p.0 == s.cores).unwrap().1;
            Some(match (s.machine.as_str(), s.clusters, s.cores) {
                ("mesh", ..) => (u, 1),
                (_, 4, 8) | (_, 8, 8 | 64) => (u * 2, 1),
                (_, 4, _) => (u / 2, 1),
                _ => (u * 3 / 4, 1),
            })
        };
        let md = report(spec, run);
        let clustered = |n: u32| {
            let at = |cores| Scenario {
                machine: "clustered".into(),
                clusters: n,
                cores,
                ..Scenario::default()
            };
            uniform
                .iter()
                .map(|&(c, _)| (c, run(&at(c)).unwrap().0))
                .collect::<Vec<_>>()
        };
        for n in [4, 8] {
            let turn = crossover(&uniform, &clustered(n)).unwrap();
            let section = md.split(&format!("{n} clusters")).nth(1).unwrap();
            let want = format!("Connected Components (turns at {turn:.0} cores)");
            let delta = clustered(n)[2].1 as f64 / 400.0 - 1.0;
            assert_eq!(row(section, &want), [pct_signed(delta)], "{md}");
        }

        let spec = r#"
report = "fig13"
[defaults]
kernel = "barnes"
arch = "dm"
seed = 3
[[sweep]]
name = "polymorphic"
machine = "polymorphic"
cores = [8, 64, 256]
[[sweep]]
name = "uniform"
cores = [1, 8, 64, 256]
"#;
        let run = |s: &Scenario| {
            let u = 8_000 / u64::from(s.cores);
            Some((
                if s.machine == "polymorphic" {
                    u * 3 / 2 + s.cores as u64
                } else {
                    u
                },
                1,
            ))
        };
        let md = report(spec, run);
        let poly = |c: u64| (8_000 / c * 3 / 2 + c) as f64;
        let uni = |c: u64| (8_000 / c) as f64;
        assert_eq!(
            row(&md, "Barnes-Hut"),
            [8u64, 64, 256].map(|c| format!("{:.2}", 8_000.0 / poly(c)))
        );
        let delta = ((poly(64) / uni(64) - 1.0) + (poly(256) / uni(256) - 1.0)) / 2.0;
        assert!(
            md.contains(&format!("| Barnes-Hut | {} |", pct_signed(delta))),
            "{md}"
        );
    }

    #[test]
    fn ablation_renders() {
        let spec = "report = \"ablation\"\n[[sweep]]\nkernel = \"quicksort\"\ncores = 16\n\
                    sync = [\"spatial\", \"conservative\", \"unbounded\"]\nseed = [1, 2]\n";
        let run = |s: &Scenario| {
            let c = match s.sync.as_str() {
                "conservative" => 1_000,
                "unbounded" => 1_500,
                _ => 990,
            };
            Some((c + s.seed, 2_000_000))
        };
        let md = report(spec, run);
        assert_eq!(
            row(&md, "spatial, T = 100"),
            [
                "991",
                pct_signed(991.0 / 1_001.0 - 1.0).as_str(),
                "99",
                "2.0 ms"
            ]
        );
        assert_eq!(
            row(&md, "unbounded")[1],
            pct_signed(1_501.0 / 1_001.0 - 1.0)
        );
        // Without the exact-order reference there is nothing to compare to.
        let md = report(spec, |s| {
            (s.sync != "conservative").then(|| run(s).unwrap())
        });
        assert_eq!(row(&md, "unbounded")[..2], ["1501", "-"]);
        assert_eq!(row(&md, "conservative"), ["-", "-", "-", "-"]);
    }

    #[test]
    fn fig7_fit_is_na_with_one_machine_size() {
        let spec = "report = \"fig7\"\n[[sweep]]\nkernel = \"quicksort\"\ncores = [1, 8]\n\
                    arch = [\"sm\", \"dm\"]\nscale = 0.02\nseed = 1\n";
        let md = report(spec, |s| Some((cycles(s), 1_000_000 * u64::from(s.cores))));
        assert!(
            md.contains("Quicksort (SM)") && md.contains("Quicksort (DM)"),
            "{md}"
        );
        assert!(md.contains("all kernels: n/a"), "{md}");
        let spec = spec.replace("[1, 8]", "[1, 8, 64]");
        let md = report(&spec, |s| Some((cycles(s), 1_000_000 * u64::from(s.cores))));
        assert!(md.contains("`t_norm ≈"), "{md}");
    }

    /// Every shipped figure spec renders from a record set whose first run
    /// failed: a dash where it was, no panic.
    #[test]
    fn a_failed_run_renders_a_dash_in_every_figure() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/sweeps");
        let mut figures = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let text = std::fs::read_to_string(entry.unwrap().path()).unwrap();
            // Fig. 7 times native runs: keep them small.
            let spec = parse_spec(&text.replace("scale = 4.0", "scale = 0.02")).unwrap();
            let Some(fig) = spec.report.clone() else {
                continue;
            };
            let first = spec.scenarios[0].label.clone();
            let recs = records(&spec, |s| (s.label != first).then(|| (cycles(s), 1_000)));
            let md = render(&fig, &spec.scenarios, &recs).unwrap();
            assert!(md.contains(" - |"), "{fig}:\n{md}");
            figures.push(fig);
        }
        figures.sort();
        let mut want = FIGURES.map(String::from).to_vec();
        want.sort();
        assert_eq!(figures, want);
        assert_eq!(render("fig11", &[], &[]), None);
    }
}
