#![warn(missing_docs)]

//! # simany-serve — batch sweep service for design-space exploration
//!
//! The paper's headline use case is sweeping a design space — thousands of
//! (topology, kernel, drift, seed, fault-plan) points, each a deterministic
//! simulation. This crate turns that into a service: a sweep spec file
//! expands into a queue of scenarios executed across a bounded pool of
//! `simulate` worker processes, with
//!
//! * **deterministic scheduling** — priority then FIFO, a pure function of
//!   the spec ([`queue`]);
//! * **dedup** — scenarios with equal identity digests run once, results
//!   fan out to every requesting label ([`scenario`]);
//! * **checkpoint-based preemption** — workers stop cleanly after a budget
//!   of fresh checkpoints (engine exit code 15) and resume later, replay-
//!   verified ([`worker`]);
//! * **crash-safe restart** — an append-only journal plus the streamed
//!   `results.jsonl` let a killed sweep restart with no lost work and no
//!   duplicated results ([`journal`], [`service`]).
//!
//! See DESIGN.md §"Sweep service" for the journal format and the
//! recovery/dedup/preemption contracts, and `examples/sweeps/` for specs.
//!
//! ## Quick start
//!
//! ```no_run
//! use std::sync::atomic::AtomicBool;
//!
//! let cfg = simany_serve::ServeConfig {
//!     spec_path: "examples/sweeps/drift.toml".into(),
//!     out_dir: "sweep-out".into(),
//!     workers: 4,
//!     ..Default::default()
//! };
//! let mut svc = simany_serve::Service::new(cfg).unwrap();
//! let summary = svc.run(&AtomicBool::new(false)).unwrap();
//! assert_eq!(summary.failed, 0);
//! ```

pub mod journal;
pub mod queue;
pub mod scenario;
pub mod service;
pub mod spec;
pub mod worker;

/// The workspace's JSON reader/writer (lives in `simany-stats`).
pub use simany::stats::json;

pub use scenario::{FaultKnobs, Scenario};
pub use service::{read_results, ServeConfig, Service, Summary};
pub use spec::{load_spec, parse_spec};
