//! `ledger run --quick --trace` end to end: every workload and metric that
//! `BENCHMARK.json` names must come out, with its unit, in rows that parse.

use simany_serve::json::Json;
use std::process::Command;

fn named(doc: &Json, list: &str) -> Vec<(String, Option<String>)> {
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|item| {
            let field = |key: &str| item.get(key).and_then(Json::as_str).map(str::to_string);
            (
                field("name").expect("every entry has a name"),
                field("unit"),
            )
        })
        .collect()
}

#[test]
fn quick_run_reports_what_benchmark_json_names() {
    let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let workloads = named(&doc, "workloads");
    let end_to_end = named(&doc, "end_to_end");
    let per_layer = named(&doc, "per_layer");
    for (name, _) in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        assert!(
            name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name:?} is not a valid name"
        );
    }

    let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["run", "--quick", "--trace"])
        .output()
        .expect("ledger starts");
    let stdout = String::from_utf8(out.stdout).expect("ledger prints UTF-8");
    assert!(
        out.status.success(),
        "ledger run --quick --trace failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let rows: Vec<Json> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"ledger\":"))
        .map(|l| Json::parse(l).expect("a row parses"))
        .collect();
    // One row per workload: `BENCHMARK.json`'s, and the ledger's own
    // `refill_4096_t2` (see `catalog::REFILL_T2`).
    assert_eq!(rows.len(), workloads.len() + 1, "one row per workload");
    for (workload, _) in &workloads {
        let row = rows
            .iter()
            .find(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
            .unwrap_or_else(|| panic!("no row for {workload}"));
        assert_eq!(row.get("ledger").and_then(Json::as_u64), Some(1));
        let status = row.get("status").and_then(Json::as_str).expect("status");
        if status != "measured" {
            // Fewer CPUs allowed than the workload has threads: a row that
            // says so, never a number.
            assert!(status.starts_with("unmeasured"), "{workload}: {status}");
            continue;
        }
        assert_eq!(row.get("ops_failed").and_then(Json::as_u64), Some(0));
        for (group, metrics) in [("end_to_end", &end_to_end), ("layers", &per_layer)] {
            for (metric, unit) in metrics {
                let unit_out = row
                    .get(group)
                    .and_then(|g| g.get(metric))
                    .and_then(|m| m.get("unit"))
                    .and_then(Json::as_str);
                assert_eq!(unit_out, unit.as_deref(), "{workload}: {metric}");
                // The table for people names it too, with the same unit.
                assert!(
                    stdout.lines().any(|l| {
                        let mut words = l.split_whitespace();
                        words.next() == Some(metric) && words.nth(1) == unit.as_deref()
                    }),
                    "{metric} is not printed with its unit"
                );
            }
        }
    }
}
