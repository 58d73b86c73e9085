//! `simany-serve` — run a sweep spec across a pool of simulator workers.
//!
//! ```sh
//! simany-serve --spec examples/sweeps/drift.toml --out sweep-out --workers 4
//! ```
//!
//! SIGINT/SIGTERM trigger a graceful shutdown: workers are stopped, their
//! checkpoints kept, and re-running the same command resumes the sweep
//! with no lost work and no duplicated results. Exit codes: 0 = sweep
//! complete, 3 = interrupted (restart to continue), 1 = runtime error,
//! 2 = usage error.

use std::sync::atomic::{AtomicBool, Ordering};

use simany_serve::scenario::FieldError;
use simany_serve::{ServeConfig, Service};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // libc is already linked by std; declaring `signal` directly keeps the
    // workspace dependency-free. The handler only touches an atomic, which
    // is async-signal-safe.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

const USAGE: &str = "\
usage: simany-serve --spec FILE [OPTIONS]

options:
  --spec FILE            sweep spec (TOML subset or JSON; required)
  --out DIR              output directory (default sweep-out)
  --workers N            concurrent worker processes (default 2)
  --simulate-bin PATH    simulate binary (default: next to this executable)
  --checkpoint-every T   worker checkpoint interval in virtual cycles
                         (default 5000; 0 disables checkpoints, preemption
                         and interrupted-run resume)
  --preempt-after N      preempt workers after N fresh checkpoints
                         (default: run to completion)
  --max-resumes N        preempt/resume rounds per job before it runs to
                         completion (default 8)
  --poll-ms T            scheduler polling interval (default 1)

exit codes: 0 sweep complete, 3 interrupted by signal (re-run the same
command to resume), 1 runtime error, 2 usage error.
";

/// `raw` as the number `flag` takes, or a usage error (exit 2).
fn num<T: std::str::FromStr>(flag: &str, raw: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{}\n{USAGE}", FieldError::BadValue.message(flag, raw));
        std::process::exit(2)
    })
}

fn parse_args() -> ServeConfig {
    let mut cfg = ServeConfig::default();
    let mut spec = None;
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
            "--spec" => spec = Some(val()),
            "--out" => cfg.out_dir = val().into(),
            "--workers" => cfg.workers = num(a, &val()),
            "--simulate-bin" => cfg.simulate_bin = Some(val().into()),
            "--checkpoint-every" => {
                let t: u64 = num(a, &val());
                cfg.checkpoint_every = (t > 0).then_some(t);
            }
            "--preempt-after" => cfg.preempt_after = Some(num(a, &val())),
            "--max-resumes" => cfg.max_resumes = num(a, &val()),
            "--poll-ms" => cfg.poll_ms = num(a, &val()),
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown option {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    match spec {
        Some(s) => cfg.spec_path = s,
        None => {
            eprintln!("--spec is required\n{USAGE}");
            std::process::exit(2);
        }
    }
    if cfg.workers == 0 {
        eprintln!("--workers must be at least 1\n{USAGE}");
        std::process::exit(2);
    }
    cfg
}

fn main() {
    let cfg = parse_args();
    install_signal_handlers();

    let out_dir = cfg.out_dir.clone();
    let mut svc = Service::new(cfg).unwrap_or_else(|e| {
        eprintln!("simany-serve: {e}");
        std::process::exit(1);
    });
    let summary = svc.run(&SHUTDOWN).unwrap_or_else(|e| {
        eprintln!("simany-serve: {e}");
        std::process::exit(1);
    });

    println!(
        "{} scenarios / {} unique jobs ({} deduplicated): {} completed, {} failed, \
         {} preemptions, {} resumes in {:.1}s",
        summary.scenarios,
        summary.unique_jobs,
        summary.dedup_hits,
        summary.completed,
        summary.failed,
        summary.preempts,
        summary.resumes,
        summary.wall_secs,
    );
    if summary.interrupted {
        println!(
            "interrupted — checkpoints kept; re-run the same command to resume ({})",
            out_dir.display()
        );
        std::process::exit(3);
    }
    println!(
        "results: {}  report: {}",
        out_dir.join("results.jsonl").display(),
        out_dir.join("report.md").display()
    );
}
