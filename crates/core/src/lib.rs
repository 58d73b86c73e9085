#![warn(missing_docs)]

//! # simany-core — the SiMany discrete-event engine
//!
//! This crate is the paper's primary contribution: a discrete-event
//! simulator for many-core architectures whose virtual clocks are kept
//! approximately coherent by **spatial synchronization** (paper §II):
//!
//! > "Cores are allowed to advance to different virtual times, but they are
//! > not allowed to drift from their neighbors by more than T."
//!
//! ## Execution model
//!
//! The simulator runs a *program* — a set of dynamically created tasks
//! written as ordinary Rust closures — on `n` simulated cores. Exactly one
//! simulated entity executes at any instant (the paper runs in "a single
//! system process and uses non-preemptive userland scheduling"); here too:
//! every task body runs on a pooled userland stack of its own (`coro`),
//! and one driver on the calling thread switches to a body and back under
//! a run token, which keeps the simulation deterministic and data-race
//! free while letting task bodies be ordinary (even recursive) native code.
//!
//! Between interaction points task code runs natively at host speed;
//! virtual time advances only through timing annotations
//! ([`ExecCtx::compute`]) and simulator-computed communication delays.
//!
//! ## Synchronization policies
//!
//! [`SyncPolicy::Spatial`] is the paper's contribution; the crate also
//! implements schemes the paper compares against (global bounded slack à
//! la SlackSim, conservative global order, and free-running) so that the
//! accuracy/speed trade-off can be measured within one code base.
//!
//! ## Layering
//!
//! The engine knows nothing about tasks' protocol (probes, joins, locks,
//! data cells): that lives in `simany-runtime`, which implements the
//! [`RuntimeHooks`] trait. The engine provides cores, clocks, drift
//! control, message transport and activity scheduling.

pub mod activity;
pub mod checkpoint;
pub mod config;
pub(crate) mod coro;
pub mod ctx;
pub mod engine;
pub(crate) mod floor;
pub mod hooks;
pub(crate) mod inbox;
pub mod ops;
pub mod ready;
pub mod sanitizer;
pub mod state;
pub mod stats;
pub mod sync;
pub mod trace;

pub use activity::{ActivityId, ActivityMeta};
pub use checkpoint::{config_digest, Checkpoint};
pub use config::{EngineConfig, SyncPolicy};
pub use ctx::ExecCtx;
pub use engine::{simulate, SimError, SimResult};
pub use hooks::RuntimeHooks;
pub use ops::Ops;
pub use state::BirthId;
pub use stats::SimStats;
pub use trace::{MemoryTracer, TraceEvent, Tracer};

// Re-export the vocabulary types users constantly need together with the
// engine.
pub use simany_fault::{FaultConfig, FaultPlan, FaultPlanBuilder};
pub use simany_net::{Envelope, Payload};
pub use simany_time::{BlockCost, CoreSpeed, CostModel, VDuration, VirtualTime};
pub use simany_topology::{CoreId, Topology};
