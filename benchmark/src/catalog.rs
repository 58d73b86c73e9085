//! The benchmark's catalogue. Names, units, regression bounds and the
//! reason for each workload live in the root `BENCHMARK.json` (embedded at
//! build time, so there is one copy); this module adds what that file has
//! no field for.

use simany_serve::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Version of the row schema written to results files and the trajectory.
pub const LEDGER_SCHEMA: u64 = 1;

/// Seed used when none is given (the paper's conference date).
pub const DEFAULT_SEED: u64 = 20_110_516;

/// A gated end-to-end metric.
#[derive(Clone, Debug)]
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    /// Share of the reference median by which the metric may worsen.
    pub bound: f64,
    /// A difference below this many units never counts as a regression
    /// (a 15 % bound on a 2 ms set-up would gate scheduler noise).
    pub floor: f64,
}

/// Accuracy of the abstract simulator against the cycle-level reference,
/// on the virtual clock. Only `validate_64` has it, so it cannot be in
/// `BENCHMARK.json` (whose end-to-end metrics every workload must print);
/// `ledger check` gates it at `floor` points absolute.
pub const VT_CL_ERR: &str = "vt_cl_err_pct";

/// The one workload at `threads=2`. It is in the ledger but not in
/// `BENCHMARK.json`, whose workloads must never fail an operation: the
/// parallel engine loses a wake-up about once in 25 runs of this shape on
/// two real CPUs (README, "Known failure").
pub const REFILL_T2: &str = "refill_4096_t2";

/// A workload of the benchmark.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: String,
    pub why: String,
    /// Timed reps in `ledger run`.
    pub reps: usize,
}

pub struct Catalog {
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<EndToEnd>,
    /// `(name, unit)` of the layer metrics every workload reports.
    pub per_layer: Vec<(String, String)>,
}

impl Catalog {
    pub fn load() -> Catalog {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect("list").to_vec();
        let text = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .expect("string field")
                .to_string()
        };
        let mut workloads: Vec<Workload> = list("workloads")
            .iter()
            .map(|w| {
                let name = text(w, "name");
                let reps = match name.as_str() {
                    "scale_1m" => 3,
                    "kernels_1024" | "validate_64" => 5,
                    _ => 10,
                };
                Workload {
                    why: text(w, "why"),
                    name,
                    reps,
                }
            })
            .collect();
        // Before `validate_64`, where the issue's catalogue has it.
        workloads.insert(
            workloads.len() - 1,
            Workload {
                name: REFILL_T2.into(),
                why: "4096-core mesh refilled through on_idle at threads=2: the only workload \
                      that executes parallel.rs, frame.rs and partition_bfs"
                    .into(),
                reps: 10,
            },
        );
        let mut end_to_end: Vec<EndToEnd> = list("end_to_end")
            .iter()
            .map(|m| {
                let name = text(m, "name");
                EndToEnd {
                    floor: if name == "setup_s" { 0.02 } else { 0.0 },
                    unit: text(m, "unit"),
                    bound: m.get("bound").and_then(Json::as_f64).expect("bound"),
                    name,
                }
            })
            .collect();
        end_to_end.push(EndToEnd {
            name: VT_CL_ERR.into(),
            unit: "%".into(),
            bound: 0.0,
            floor: 0.5,
        });
        let per_layer = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect();
        Catalog {
            workloads,
            end_to_end,
            per_layer,
        }
    }

    pub fn workload(&self, name: &str) -> Option<&Workload> {
        self.workloads.iter().find(|w| w.name == name)
    }
}
