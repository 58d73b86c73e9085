#![warn(missing_docs)]

//! # simany-time — virtual time, instruction cost models and deterministic PRNGs
//!
//! This crate provides the timing substrate of the SiMany simulator:
//!
//! * [`VirtualTime`] and [`VDuration`] — the simulator's notion of time.
//!   SiMany advances each simulated component's *private* virtual clock from
//!   timing annotations and communication delays; nothing here is wall-clock.
//!   Time is counted in **ticks** where one processor cycle equals
//!   [`TICKS_PER_CYCLE`] ticks, so that the paper's half-cycle intra-cluster
//!   link latency stays exact integer arithmetic.
//! * [`CostModel`] and [`BlockCost`] — the per-instruction-class cost table
//!   used to annotate natively executed instruction blocks (paper §II.A
//!   "Timing annotations" and §V "Architecture Configuration").
//! * [`CoreSpeed`] — rational per-core speed scaling used to build the
//!   *polymorphic* architectures of the paper (half-speed and 1.5×-speed
//!   cores with equal aggregate computing power).
//! * [`branch`] — the probabilistic branch predictor (90 % accuracy,
//!   5-cycle misprediction penalty) used by SiMany, and a classic two-bit
//!   saturating-counter predictor used by the cycle-level reference.
//! * [`Digest`] — the FNV-1a word folder behind the engine's configuration
//!   and checkpoint digests and the network's and run-time system's state
//!   digests, and [`IdHasher`], the hasher of the simulator's integer-keyed
//!   tables.
//! * [`prng`] — small, fast, fully deterministic PRNGs (SplitMix64 and
//!   xoshiro256**) implemented locally so simulation results never change
//!   under dependency upgrades.

pub mod branch;
pub mod cost;
pub mod digest;
pub mod prng;
pub mod vtime;

pub use branch::{BranchOutcome, ProbBranchPredictor, TwoBitPredictor};
pub use cost::{BlockCost, CoreSpeed, CostModel, InstrClass};
pub use digest::{Digest, IdHasher};
pub use prng::{SplitMix64, Xoshiro256StarStar};
pub use vtime::{VDuration, VirtualTime, TICKS_PER_CYCLE};
