//! `simany-serve` rejects a malformed flag value with one line on stderr
//! and the usage exit code, never with a panic.

use std::process::Command;

#[test]
fn a_malformed_number_is_a_usage_error_not_a_panic() {
    for flag in [
        "--workers",
        "--checkpoint-every",
        "--preempt-after",
        "--max-resumes",
        "--poll-ms",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_simany-serve"))
            .args(["--spec", "no-such-spec.toml", flag, "x"])
            .output()
            .expect("simany-serve did not start");
        assert_eq!(out.status.code(), Some(2), "{flag}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        // The refusal, then the usage text.
        assert_eq!(
            stderr.lines().next(),
            Some(format!("bad value for {flag}: 'x'").as_str()),
            "{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag}: ran anyway");
    }
}
