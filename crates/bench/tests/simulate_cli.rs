//! `simulate` rejects a malformed flag value or an unknown name with one
//! line on stderr and the usage exit code, never with a panic.

use std::process::Command;

#[test]
fn a_malformed_number_is_a_usage_error_not_a_panic() {
    for (flag, value) in [
        ("--drift", "abc"),
        ("--cores", "x"),
        ("--seed", "-3"),
        ("--threads", "q"),
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
