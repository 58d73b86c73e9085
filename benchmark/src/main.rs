//! `ledger` — the repository's benchmark: six pinned workloads, four
//! end-to-end metrics and an outside-in layer ledger. See `README.md`
//! beside this package for the catalogue and how to read the output.

mod catalog;
mod harness;
mod pin;
mod probes;
mod rep;
mod spans;
mod workloads;

use catalog::{Catalog, Workload, DEFAULT_SEED, LEDGER_SCHEMA, VT_CL_ERR};
use harness::{measure, Host, Measured, Plan, Reps};
use simany_serve::json::Json;
use std::io::Write as _;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  ledger run [--quick] [--trace] [--append] [--seed N] [WORKLOAD...]
      measure the workloads (all six by default), print every metric by
      name with its unit, check the outputs; exit 1 if any operation failed
        --quick   tiny sizes, one rep: a smoke test of the harness, not a result
        --trace   add the traced pass that fills the layer ledger and writes
                  Chrome trace JSON under benchmark/results/
        --append  also append the rows to benchmark/TRAJECTORY.jsonl
  ledger check [--seed N]
      run the whole set twice; exit 1 if two medians of one (metric, workload)
      differ by more than the metric's bound, if a sim_digest differs, or if
      run-phase cores/s at scale_1m falls below 0.6x the 65,536-core point
  ledger --workload NAME --seed N --seconds S --trace 0|1
      one time-boxed run of one workload, as BENCHMARK.json's command; the last
      line of output is the result object
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("one") => child(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("check") => check(&args[1..]),
        Some("--workload" | "--seed" | "--seconds" | "--trace") => contract(&args),
        Some("-h" | "--help") => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("expected a command".to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("ledger: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

/// Flags of one invocation: `--name value` pairs, bare `--switches` and
/// positional words.
struct Flags {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    words: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            values: Vec::new(),
            switches: Vec::new(),
            words: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if valued.contains(&a.as_str()) {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                flags.values.push((a.clone(), v.clone()));
            } else if switches.contains(&a.as_str()) {
                flags.switches.push(a.clone());
            } else if a.starts_with('-') {
                return Err(format!("unknown option {a}"));
            } else {
                flags.words.push(a.clone());
            }
        }
        Ok(flags)
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.values.iter().find(|(n, _)| n == name) {
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name} {v}: not a number")),
            None => Ok(None),
        }
    }

    fn seed(&self) -> Result<u64, String> {
        Ok(self.number("--seed")?.unwrap_or(DEFAULT_SEED))
    }
}

/// `ledger one ...`: the child side of a rep.
fn child(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &["--seed"],
        &["--quick", "--trace", "--setup-only", "--unpinned"],
    )?;
    let [workload] = flags.words.as_slice() else {
        return Err("one: expected one workload".into());
    };
    let code = rep::child_main(&rep::Request {
        workload: workload.clone(),
        seed: flags.seed()?,
        quick: flags.has("--quick"),
        trace: flags.has("--trace"),
        setup_only: flags.has("--setup-only"),
        unpinned: flags.has("--unpinned"),
    });
    Ok(ExitCode::from(code as u8))
}

/// The plan of `ledger run` and `ledger check` for one workload.
fn full_plan(w: &Workload, seed: u64, quick: bool, trace: bool) -> Plan {
    let reps = if quick { 1 } else { w.reps };
    Plan {
        seed,
        quick,
        untraced: Reps::Count(reps),
        traced: trace.then_some(Reps::Count((reps / 3).max(1))),
        setup_samples: if quick { 1 } else { 5 },
        aux_reps: if quick { 1 } else { 5 },
    }
}

fn selected(catalog: &Catalog, names: &[String]) -> Result<Vec<Workload>, String> {
    if names.is_empty() {
        return Ok(catalog.workloads.clone());
    }
    names
        .iter()
        .map(|n| {
            catalog
                .workload(n)
                .cloned()
                .ok_or_else(|| format!("no workload called {n}"))
        })
        .collect()
}

/// `ledger run`.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--seed"], &["--quick", "--trace", "--append"])?;
    let (quick, trace) = (flags.has("--quick"), flags.has("--trace"));
    if quick && flags.has("--append") {
        return Err("--quick rows are not results; they cannot be appended".into());
    }
    let catalog = Catalog::load();
    let seed = flags.seed()?;
    let host = Host::probe();
    std::fs::create_dir_all(rep::results_dir()).map_err(|e| e.to_string())?;

    let mut rows = Vec::new();
    let mut failed = 0;
    for w in selected(&catalog, &flags.words)? {
        let plan = full_plan(&w, seed, quick, trace);
        let m = measure(&w, &plan);
        m.print(&catalog);
        if let Some(path) = m.write_trace() {
            println!("   trace: {}", path.display());
        }
        if m.unmeasured.is_none() {
            failed += m.ops().1;
        }
        rows.push(m.row(&catalog, &host, &plan));
    }

    println!("\nrows (schema \"ledger\": {LEDGER_SCHEMA}):");
    for row in &rows {
        println!("{}", row.dump());
    }
    if !quick {
        let path = rep::results_dir().join(format!("{}.json", host.commit));
        let doc = Json::Obj(vec![
            ("ledger".into(), Json::Num(LEDGER_SCHEMA as f64)),
            ("rows".into(), Json::Arr(rows.clone())),
        ]);
        std::fs::write(&path, doc.dump() + "\n").map_err(|e| e.to_string())?;
        println!("results: {}", path.display());
    }
    if flags.has("--append") {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/TRAJECTORY.jsonl");
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        for row in &rows {
            writeln!(file, "{}", row.dump()).map_err(|e| e.to_string())?;
        }
        println!("appended {} rows to {path}", rows.len());
    }
    if failed > 0 {
        eprintln!("ledger: {failed} operations failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// `ledger check`: do two complete sets of runs of the same code agree?
fn check(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--seed"], &[])?;
    let catalog = Catalog::load();
    let seed = flags.seed()?;
    let set = |label: &str| -> Vec<Measured> {
        catalog
            .workloads
            .iter()
            .map(|w| {
                eprintln!("check: set {label}, {}", w.name);
                measure(w, &full_plan(w, seed, false, false))
            })
            .collect()
    };
    let (first, second) = (set("1"), set("2"));

    let mut problems = Vec::new();
    println!(
        "{:<16} {:<14} {:>12} {:>12} {:>9}  verdict",
        "workload", "metric", "set 1", "set 2", "diff"
    );
    for (a, b) in first.iter().zip(&second) {
        let name = &a.workload.name;
        if let Some(why) = a.unmeasured.as_ref().or(b.unmeasured.as_ref()) {
            println!("{name:<16} unmeasured: {why}");
            continue;
        }
        for m in [a, b] {
            let (_, failed) = m.ops();
            if failed > 0 {
                problems.push(format!("{name}: {failed} operations failed"));
            }
        }
        if a.sim_digest() != b.sim_digest() {
            problems.push(format!(
                "{name}: sim_digest {} then {}",
                a.sim_digest(),
                b.sim_digest()
            ));
        }
        for metric in &catalog.end_to_end {
            let (Some(x), Some(y)) = (a.end_to_end(&metric.name), b.end_to_end(&metric.name))
            else {
                continue;
            };
            let diff = (x.median - y.median).abs();
            let ok = diff <= metric.floor || diff <= metric.bound * x.median;
            println!(
                "{name:<16} {:<14} {:>12.5} {:>12.5} {:>8.2}%  {}",
                metric.name,
                x.median,
                y.median,
                100.0 * diff / x.median,
                if ok { "ok" } else { "DIFFERS" }
            );
            if !ok {
                problems.push(format!(
                    "{name}: {} medians {} and {} differ by more than {}",
                    metric.name,
                    x.median,
                    y.median,
                    if metric.bound > 0.0 {
                        format!("{} %", 100.0 * metric.bound)
                    } else {
                        format!("{} {}", metric.floor, metric.unit)
                    }
                ));
            }
        }
    }

    // The one guard that does not depend on how fast the container is:
    // per-event cost must not grow with the core count (`repro
    // scale-check`, generalised). Set-up is excluded: it grows by nature.
    let small = Workload {
        name: "scale_65k".into(),
        why: "base of the scale ratio guard".into(),
        reps: 3,
    };
    let small = measure(&small, &full_plan(&small, seed, false, false));
    let rate = |m: &Measured| Some(m.reported().get("run_cores_per_s")?.1.median);
    let large = first.iter().find(|m| m.workload.name == "scale_1m");
    match (rate(&small), large.and_then(rate)) {
        (Some(s), Some(l)) => {
            let ratio = l / s;
            println!(
                "run-phase cores/s: {l:.0} at scale_1m, {s:.0} at 65,536 cores, ratio {ratio:.2} \
                 (floor 0.60)"
            );
            if ratio < 0.6 {
                problems.push(format!("scale ratio {ratio:.2} is below 0.60"));
            }
        }
        _ => println!("run-phase cores/s ratio: unmeasured"),
    }

    for p in &problems {
        println!("FAIL {p}");
    }
    Ok(if problems.is_empty() {
        println!("check: the two sets agree");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `ledger --workload W --seed N --seconds S --trace 0|1`: the command of
/// `BENCHMARK.json`.
fn contract(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--workload", "--seed", "--seconds", "--trace"], &[])?;
    let catalog = Catalog::load();
    let name = &flags
        .values
        .iter()
        .find(|(n, _)| n == "--workload")
        .ok_or("--workload is required")?
        .1;
    let workload = catalog
        .workload(name)
        .ok_or_else(|| format!("no workload called {name}"))?;
    let seconds: f64 = flags.number("--seconds")?.ok_or("--seconds is required")?;
    let trace = match flags.number::<u8>("--trace")? {
        Some(0) => false,
        Some(1) => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    let plan = Plan {
        seed: flags.seed()?,
        quick: false,
        // A traced run needs one untraced rep, for `trace_overhead_pct`;
        // the traced reps get the rest of the time.
        untraced: if trace {
            Reps::Count(1)
        } else {
            Reps::Seconds(seconds)
        },
        traced: trace.then_some(Reps::Seconds(seconds / 2.0)),
        setup_samples: if trace { 0 } else { 5 },
        aux_reps: 3,
    };
    std::fs::create_dir_all(rep::results_dir()).map_err(|e| e.to_string())?;
    let m = measure(workload, &plan);
    m.print(&catalog);
    m.write_trace();
    if let Some(why) = &m.unmeasured {
        // Never a number in place of a measurement that was not taken.
        eprintln!("ledger: {name} is unmeasured: {why}");
        return Ok(ExitCode::FAILURE);
    }

    let medians: Vec<(&str, &str, Option<f64>)> = if trace {
        let reported = m.reported();
        catalog
            .per_layer
            .iter()
            .map(|(name, unit)| {
                let median = reported.get(name).map(|(_, d)| d.median);
                (name.as_str(), unit.as_str(), median)
            })
            .collect()
    } else {
        catalog
            .end_to_end
            .iter()
            .filter(|e| e.name != VT_CL_ERR)
            .map(|e| {
                let median = m.end_to_end(&e.name).map(|d| d.median);
                (e.name.as_str(), e.unit.as_str(), median)
            })
            .collect()
    };
    let mut metrics = Vec::new();
    for (name, unit, median) in medians {
        let Some(value) = median else {
            // Every rep died: there is no result to print.
            eprintln!("ledger: {name} was not measured");
            return Ok(ExitCode::FAILURE);
        };
        metrics.push((
            name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(unit.into())),
            ]),
        ));
    }
    let (attempted, failed) = m.ops();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.dump());
    Ok(ExitCode::SUCCESS)
}
