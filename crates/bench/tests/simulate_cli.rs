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
