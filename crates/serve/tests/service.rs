//! End-to-end sweep-service tests, driving real `simulate` worker
//! processes. The `simulate` binary lives in `simany-bench`, so these
//! tests skip (with a note) when it has not been built yet — CI builds it
//! first. Run locally with:
//!
//! ```sh
//! cargo build -p simany-bench --bin simulate && cargo test -p simany-serve
//! ```

use std::sync::atomic::{AtomicBool, Ordering};

use simany_serve::scenario::sibling_binary;
use simany_serve::{read_results, ServeConfig, Service};

fn simulate_bin() -> Option<std::path::PathBuf> {
    sibling_binary("simulate")
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("simany-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const SPEC: &str = r#"
[defaults]
kernel = "quicksort"
cores = 16
scale = 0.1

[[sweep]]
name = "drift"
priority = 1
drift = [50, 100]
seed = 42

[[sweep]]
# Digest-identical to drift/drift=100: must dedup onto it.
name = "dup"
drift = 100
seed = 42
"#;

fn config(dir: &std::path::Path, sim: std::path::PathBuf) -> ServeConfig {
    let spec_path = dir.join("spec.toml");
    std::fs::write(&spec_path, SPEC).unwrap();
    ServeConfig {
        spec_path: spec_path.to_string_lossy().into_owned(),
        out_dir: dir.join("out"),
        workers: 2,
        simulate_bin: Some(sim),
        checkpoint_every: Some(2_000),
        ..ServeConfig::default()
    }
}

fn labels(dir: &std::path::Path) -> Vec<String> {
    let mut labels: Vec<String> = read_results(&dir.join("out/results.jsonl"))
        .unwrap()
        .iter()
        .map(|r| r.get("label").unwrap().as_str().unwrap().to_string())
        .collect();
    labels.sort();
    labels
}

#[test]
fn sweep_runs_each_digest_once_and_fans_out() {
    let Some(sim) = simulate_bin() else {
        eprintln!("skipping: simulate binary not built");
        return;
    };
    let dir = temp_dir("dedup");
    let mut svc = Service::new(config(&dir, sim)).unwrap();
    let summary = svc.run(&AtomicBool::new(false)).unwrap();

    assert_eq!(summary.scenarios, 3);
    assert_eq!(summary.unique_jobs, 2, "dup must collapse onto drift=100");
    assert_eq!(summary.dedup_hits, 1);
    assert_eq!(summary.completed, 2);
    assert_eq!(summary.failed, 0);
    assert!(!summary.interrupted);

    assert_eq!(
        labels(&dir),
        vec!["drift/drift=100", "drift/drift=50", "dup"]
    );
    // The fanned-out labels carry the same digest and the same result.
    let records = read_results(&dir.join("out/results.jsonl")).unwrap();
    let by_label = |l: &str| {
        records
            .iter()
            .find(|r| r.get("label").unwrap().as_str() == Some(l))
            .unwrap()
            .clone()
    };
    let a = by_label("drift/drift=100");
    let b = by_label("dup");
    assert_eq!(a.get("digest"), b.get("digest"));
    assert_eq!(a.get("final_vtime_cycles"), b.get("final_vtime_cycles"));
    // summary.json + report.md written.
    assert!(dir.join("out/summary.json").is_file());
    assert!(dir.join("out/report.md").is_file());
}

#[test]
fn preemption_time_slices_and_results_match_straight_run() {
    let Some(sim) = simulate_bin() else {
        eprintln!("skipping: simulate binary not built");
        return;
    };
    // Straight run.
    let dir_a = temp_dir("straight");
    let mut svc = Service::new(config(&dir_a, sim.clone())).unwrap();
    let sa = svc.run(&AtomicBool::new(false)).unwrap();
    assert_eq!(sa.preempts, 0);

    // Preempting run: every worker is stopped after 2 fresh checkpoints
    // and re-enqueued until its resume budget is spent.
    let dir_b = temp_dir("preempt");
    let mut cfg = config(&dir_b, sim);
    cfg.preempt_after = Some(2);
    cfg.max_resumes = 4;
    let mut svc = Service::new(cfg).unwrap();
    let sb = svc.run(&AtomicBool::new(false)).unwrap();
    assert!(sb.preempts > 0, "preemption budget never fired");
    assert_eq!(sb.resumes, sb.preempts);
    assert_eq!(sb.failed, 0);

    // Preemption must not change any simulated outcome.
    let va: Vec<(String, Option<f64>)> = read_results(&dir_a.join("out/results.jsonl"))
        .unwrap()
        .iter()
        .map(|r| {
            (
                r.get("label").unwrap().as_str().unwrap().to_string(),
                r.get("final_vtime_cycles").and_then(|v| v.as_f64()),
            )
        })
        .collect();
    let vb: Vec<(String, Option<f64>)> = read_results(&dir_b.join("out/results.jsonl"))
        .unwrap()
        .iter()
        .map(|r| {
            (
                r.get("label").unwrap().as_str().unwrap().to_string(),
                r.get("final_vtime_cycles").and_then(|v| v.as_f64()),
            )
        })
        .collect();
    let sorted = |mut v: Vec<(String, Option<f64>)>| {
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    };
    assert_eq!(sorted(va), sorted(vb));
}

#[test]
fn shutdown_and_restart_loses_no_work_and_duplicates_nothing() {
    let Some(sim) = simulate_bin() else {
        eprintln!("skipping: simulate binary not built");
        return;
    };
    let dir = temp_dir("restart");
    // Bigger workload so the shutdown lands mid-sweep.
    let spec = SPEC.replace("scale = 0.1", "scale = 0.4");
    std::fs::write(dir.join("spec.toml"), spec).unwrap();
    let mut cfg = config(&dir, sim);
    cfg.spec_path = dir.join("spec.toml").to_string_lossy().into_owned();

    // First run: raise the shutdown flag shortly after launch — the
    // service kills its workers and journals them as interrupted.
    let shutdown = AtomicBool::new(false);
    let mut svc = Service::new(cfg.clone()).unwrap();
    let summary = std::thread::scope(|scope| {
        let flag = &shutdown;
        scope.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(300));
            flag.store(true, Ordering::SeqCst);
        });
        svc.run(&shutdown).unwrap()
    });
    drop(svc);

    if summary.interrupted {
        // Restart with identical config: interrupted jobs resume from
        // their checkpoints, finished jobs are not re-run.
        let mut svc = Service::new(cfg).unwrap();
        let s2 = svc.run(&AtomicBool::new(false)).unwrap();
        assert!(!s2.interrupted);
        assert_eq!(s2.completed, 2);
        assert_eq!(s2.failed, 0);
    }
    // Whether or not the flag won the race, the final state is the same:
    // every label exactly once.
    assert_eq!(
        labels(&dir),
        vec!["drift/drift=100", "drift/drift=50", "dup"]
    );
}

/// `results.jsonl` is written with the JSON module, so a label that needs
/// escaping reads back as itself (and `summary.json` parses).
#[test]
fn a_label_with_a_quote_and_a_backslash_round_trips() {
    let Some(sim) = simulate_bin() else {
        eprintln!("skipping: simulate binary not built");
        return;
    };
    const LABEL: &str = r#"we"ird\name"#;
    let dir = temp_dir("escape");
    let mut cfg = config(&dir, sim);
    let spec_path = dir.join("spec.json");
    std::fs::write(
        &spec_path,
        r#"{"defaults": {"kernel": "quicksort", "cores": 16, "scale": 0.1},
            "sweep": [{"name": "we\"ird\\name", "seed": 42}]}"#,
    )
    .unwrap();
    cfg.spec_path = spec_path.to_string_lossy().into_owned();
    let summary = Service::new(cfg)
        .unwrap()
        .run(&AtomicBool::new(false))
        .unwrap();
    assert_eq!((summary.completed, summary.failed), (1, 0));
    assert_eq!(labels(&dir), vec![LABEL]);

    let text = std::fs::read_to_string(dir.join("out/summary.json")).unwrap();
    let parsed = simany_serve::json::Json::parse(&text).unwrap();
    assert_eq!(parsed.get("scenarios").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(
        parsed.get("interrupted").and_then(|v| v.as_bool()),
        Some(false)
    );
}

/// Build a service over `spec`, which must be refused while the queue is
/// built — before the output directory or any worker exists. Returns the
/// refusal.
fn refused_at_queue_build_time(tag: &str, spec: &str) -> String {
    let dir = temp_dir(tag);
    let mut cfg = config(&dir, dir.join("no-such-simulate"));
    let spec_path = dir.join("refused.toml");
    std::fs::write(&spec_path, spec).unwrap();
    cfg.spec_path = spec_path.to_string_lossy().into_owned();
    let Err(err) = Service::new(cfg) else {
        panic!("spec was accepted:\n{spec}");
    };
    assert!(!dir.join("out").exists(), "refused after set-up had begun");
    err
}

/// A policy name the engine no longer has (`random-referee`, retired) is
/// refused: the usage error names the remaining policies.
#[test]
fn a_retired_sync_policy_is_refused_at_queue_build_time() {
    let err = refused_at_queue_build_time(
        "retired-sync",
        "[defaults]\nkernel = \"quicksort\"\ncores = 16\n\n\
         [[sweep]]\nname = \"old\"\nsync = \"random-referee\"\n",
    );
    assert!(
        err.ends_with(
            "unknown sync policy 'random-referee' \
             (expected spatial | bounded-slack | conservative | unbounded)"
        ),
        "{err}"
    );
}

/// `threads` was a scenario field once; a spec that still names it is
/// refused as an unknown key, not run on one thread.
#[test]
fn a_retired_threads_axis_is_refused_at_queue_build_time() {
    let err = refused_at_queue_build_time(
        "retired-threads",
        "[defaults]\nkernel = \"quicksort\"\ncores = 16\n\n\
         [[sweep]]\nname = \"old\"\nthreads = [1, 2]\n",
    );
    assert!(
        err.ends_with("unknown key 'threads' in [[sweep]] 'old'"),
        "{err}"
    );
}

/// A spatial scenario with a zero drift window would end in a deadlock, so
/// it is refused.
#[test]
fn a_zero_spatial_drift_is_refused_at_queue_build_time() {
    let err = refused_at_queue_build_time(
        "zero-drift",
        "[defaults]\nkernel = \"quicksort\"\ncores = 16\n\n\
         [[sweep]]\nname = \"tight\"\nsync = \"spatial\"\ndrift = [0, 100]\n",
    );
    assert!(
        err.ends_with("bad value for --drift: '0' (spatial sync needs T >= 1)"),
        "{err}"
    );
}

/// A clustered machine whose cluster grid does not tile its mesh cannot be
/// built: the scenario is refused instead of panicking in the builder.
#[test]
fn a_clustered_grid_that_does_not_tile_is_refused_at_queue_build_time() {
    let err = refused_at_queue_build_time(
        "untiled-clusters",
        "[defaults]\nkernel = \"quicksort\"\n\n\
         [[sweep]]\nname = \"odd\"\nmachine = \"clustered\"\ncores = 12\nclusters = 4\n",
    );
    assert!(
        err.ends_with("scenario 'odd': machine 'clustered': cluster grid 2x2 must tile mesh 4x3"),
        "{err}"
    );
}

/// A value `simulate` would refuse is refused while the queue is built,
/// with the block and the field named: no panic, no worker run to fail.
#[test]
fn an_out_of_range_value_is_refused_at_queue_build_time() {
    for (tag, line, want) in [
        (
            "drop-prob",
            "drop_prob = 1.5",
            "bad value for drop_prob: '1.5'",
        ),
        (
            "core-fail-prob",
            "core_fail_prob = 1.5",
            "bad value for core_fail_prob: '1.5'",
        ),
        ("scale", "scale = -1.0", "bad value for scale: '-1'"),
        ("kernel", "kernel = \"nosuch\"", "unknown kernel 'nosuch'"),
    ] {
        let err = refused_at_queue_build_time(
            tag,
            &format!("[defaults]\ncores = 16\n\n[[sweep]]\nname = \"bad\"\n{line}\n"),
        );
        assert!(err.contains(&format!("[[sweep]] 'bad': {want}")), "{err}");
    }
}
