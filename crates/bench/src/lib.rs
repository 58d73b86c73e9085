#![warn(missing_docs)]

//! # simany-bench — the `simulate` command-line driver
//!
//! `simulate` runs one workload on one machine (`src/bin/simulate.rs`);
//! `simany-serve` runs sweeps of it, and the paper's figures are sweep
//! specs under `examples/sweeps/`. This library holds what `simulate`
//! and the benchmark share.

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
