//! `simulate` rejects a malformed flag value or an unknown name with one
//! line on stderr and the usage exit code, never with a panic.

use std::process::Command;

#[test]
fn a_malformed_number_is_a_usage_error_not_a_panic() {
    for (flag, value) in [
        ("--drift", "abc"),
        ("--cores", "x"),
        ("--seed", "-3"),
        ("--scale", "abc"),
        ("--checkpoint-every", "z"),
        ("--drop-prob", "2"),
        ("--scale", "-1"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
            .args([flag, value])
            .output()
            .expect("simulate did not start");
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr).trim_end(),
            format!("bad value for {flag}: '{value}'"),
            "{flag} {value}"
        );
        assert!(out.stdout.is_empty(), "{flag} {value}: ran anyway");
    }
}

/// The engine has one host thread; `--threads` is gone and is refused like
/// any other unknown option, before anything runs.
#[test]
fn the_retired_threads_flag_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(["--kernel", "quicksort", "--threads", "2"])
        .output()
        .expect("simulate did not start");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr).lines().next(),
        Some("unknown option --threads")
    );
    assert!(out.stdout.is_empty(), "ran anyway");
}

/// `random-referee` was a policy once; it gets the same refusal as any
/// other unknown name, listing the policies that remain.
#[test]
fn a_retired_sync_policy_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(["--sync", "random-referee"])
        .output()
        .expect("simulate did not start");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // The refusal, then the usage text.
    assert_eq!(
        String::from_utf8_lossy(&out.stderr).lines().next(),
        Some(
            "unknown sync policy 'random-referee' \
             (expected spatial | bounded-slack | conservative | unbounded)"
        )
    );
    assert!(out.stdout.is_empty(), "ran anyway");
}

/// An asymmetric adjacency matrix declares a one-way link; it is refused
/// as a bad topology file instead of deadlocking the run on that link.
#[test]
fn an_asymmetric_topology_matrix_is_a_usage_error() {
    let path = std::env::temp_dir().join(format!(
        "simany-asymmetric-topology-{}.txt",
        std::process::id()
    ));
    std::fs::write(&path, "cores 2\nmatrix\n0 1\n0 0\n").expect("temp dir is writable");
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(["--kernel", "quicksort", "--cores", "2", "--seed", "7"])
        .arg("--topology")
        .arg(&path)
        .output()
        .expect("simulate did not start");
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(
            "line 4: matrix entry (1,0) is 0 but (0,1) is 1: the matrix must be symmetric"
        ),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "ran anyway");
}

/// A zero drift window would deadlock spatial sync, so it is refused up
/// front; bounded slack runs in lock-step at zero and still accepts it.
#[test]
fn zero_drift_is_refused_only_under_spatial_sync() {
    let run = |sync: &str| {
        Command::new(env!("CARGO_BIN_EXE_simulate"))
            .args(["--kernel", "quicksort", "--cores", "16", "--scale", "0.1"])
            .args(["--drift", "0", "--sync", sync])
            .output()
            .expect("simulate did not start")
    };
    let out = run("spatial");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // The refusal, then the usage text.
    assert_eq!(
        String::from_utf8_lossy(&out.stderr).lines().next(),
        Some("bad value for --drift: '0' (spatial sync needs T >= 1)")
    );
    assert!(out.stdout.is_empty(), "ran anyway");
    let out = run("bounded-slack");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

/// Every scenario field is a `simulate` flag, its name with `-` for `_`,
/// and the help text documents each one.
#[test]
fn help_names_every_scenario_field() {
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .arg("--help")
        .output()
        .expect("simulate did not start");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let help = String::from_utf8_lossy(&out.stdout);
    for field in simany_serve::scenario::field_names() {
        let flag = format!("--{} ", field.replace('_', "-"));
        assert!(help.contains(&flag), "--help does not name {flag}");
    }
}

/// An unknown kernel is refused before anything runs, with the workloads
/// that do exist.
#[test]
fn an_unknown_kernel_is_a_usage_error_listing_the_workloads() {
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(["--kernel", "nosuch"])
        .output()
        .expect("simulate did not start");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("unknown kernel 'nosuch'"), "{stderr}");
    let kernels = simany::kernels::all_kernels().into_iter().map(|k| k.name());
    let protocols = simany::kernels::protocols::all_protocols()
        .into_iter()
        .map(|p| p.name());
    for name in kernels.chain(protocols) {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
    assert!(out.stdout.is_empty(), "ran anyway");
}

/// A zero checkpoint interval would never advance the next checkpoint; it
/// is refused as a checkpoint error (exit 12) before anything is built.
#[test]
fn a_zero_checkpoint_interval_is_a_checkpoint_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(["--kernel", "quicksort", "--cores", "16", "--scale", "0.1"])
        .args(["--checkpoint-every", "0"])
        .arg("--checkpoint-file")
        .arg(std::env::temp_dir().join(format!("simany-zero-every-{}", std::process::id())))
        .output()
        .expect("simulate did not start");
    assert_eq!(out.status.code(), Some(12), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr).trim_end(),
        "simulation failed: checkpoint error: checkpoint_every must be at least one cycle"
    );
}

/// A clustered machine whose cluster grid does not tile the mesh cannot be
/// built; it is a usage error, not a panic in the builder.
#[test]
fn a_clustered_grid_that_does_not_tile_is_a_usage_error() {
    for (cores, clusters, why) in [
        ("16", "0", "cluster count 0 must divide core count 16"),
        ("12", "4", "cluster grid 2x2 must tile mesh 4x3"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
            .args(["--kernel", "quicksort", "--machine", "clustered"])
            .args(["--cores", cores, "--clusters", clusters])
            .output()
            .expect("simulate did not start");
        assert_eq!(out.status.code(), Some(2), "{cores}/{clusters}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr.lines().next(),
            Some(format!("machine 'clustered': {why}").as_str()),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{cores}/{clusters}: ran anyway");
    }
}

/// The checkpoint a preempted run leaves behind is pinned byte for byte:
/// its state digest folds every core's clocks, queues and activity count,
/// so a change to how the engine keeps any of them must not move it, or
/// checkpoints written by an older build stop resuming.
#[test]
fn a_preempted_quicksort_writes_the_golden_checkpoint() {
    let file = std::env::temp_dir().join(format!("simany-golden-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(["--kernel", "quicksort", "--arch", "dm", "--cores", "16"])
        .args(["--seed", "7", "--scale", "0.1"])
        .args(["--checkpoint-every", "2000", "--checkpoint-file"])
        .arg(&file)
        .args(["--preempt-after-checkpoints", "3"])
        .output()
        .expect("simulate did not start");
    let written = std::fs::read_to_string(&file);
    let _ = std::fs::remove_file(&file);
    assert_eq!(out.status.code(), Some(15), "{out:?}");
    assert_eq!(
        written.expect("no checkpoint written"),
        "simany-checkpoint v2\n\
         config e4ee5cc193e49745\n\
         watermark 28034\n\
         picks 39\n\
         state 471f37dcdc2ba434\n"
    );
}

/// `--sanitize on` prints each violation it found under the count, in the
/// trace's display form (time, core, invariant, detail), at most ten.
/// This run breaks the drift bound on a clean machine (ROADMAP direction
/// 1, like `tests/contract.rs`'s `KNOWN_BREAKS`): a fix of the bound makes
/// this test fail until its expected lines are recorded again.
#[test]
fn sanitize_prints_the_violations_it_found() {
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(["--kernel", "spmxv", "--arch", "dm", "--cores", "16"])
        .args(["--scale", "0.1", "--sync", "bounded-slack"])
        .args(["--sanitize", "on", "--seed", "2"])
        .output()
        .expect("simulate did not start");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().skip_while(|l| !l.starts_with("sanitizer "));
    let count = lines.next().expect("no sanitizer line");
    assert!(count.contains(", 3 violations "), "{count}");
    let shown: Vec<&str> = lines.take_while(|l| l.starts_with("  t=")).collect();
    let want = [
        "  t=3373cy core0 SANITIZER global-drift: working-core spread 150",
        "  t=5116cy core0 SANITIZER global-drift: working-core spread 146",
        "  t=5554cy core0 SANITIZER global-drift: working-core spread 140",
    ];
    assert_eq!(shown.len(), want.len(), "{stdout}");
    for (line, want) in shown.iter().zip(want) {
        assert!(line.starts_with(want), "{line}");
        assert!(line.contains("exceeds bound 129"), "{line}");
    }
}
