#![warn(missing_docs)]

//! # simany-kernels — the dwarf benchmark suite
//!
//! The paper evaluates SiMany on a set of dwarf-like, task-based kernels
//! chosen "following the dwarf approach's philosophy advocated by
//! researchers at Berkeley" (§V), most of them "notoriously difficult to
//! parallelize because of their complex control flow and/or data
//! structures":
//!
//! | Kernel | Paper workload | Character |
//! |---|---|---|
//! | [`quicksort`] | 100 k-element arrays (SM) / lists→BST (DM) | divide & conquer, limited parallelism |
//! | [`connected`] | graphs of 1000 nodes / 2000 edges | contended tag updates |
//! | [`dijkstra`] | graphs of 2000 nodes / ~3000 edges | speculative, super-linear potential |
//! | [`barnes_hut`] | 128–200 bodies, force phase | irregular tree traversals |
//! | [`spmxv`] | sparse matrices (Matrix Market + random) | regular, abundant parallelism |
//! | [`octree`] | depth-6 octrees, full update | recursive traversal |
//!
//! Every kernel provides: a deterministic workload generator, a sequential
//! reference implementation used to **verify the parallel output**, a
//! shared-memory task version and a distributed-memory task version (cells
//! moved by the run-time system), all annotated with instruction-class
//! block costs per paper §II.A.
//!
//! The [`DwarfKernel`] trait gives the benchmark harness a uniform
//! interface; [`all_kernels`] returns the whole suite.

pub mod annotate;
pub mod barnes_hut;
pub mod connected;
pub mod dijkstra;
pub mod octree;
pub mod protocols;
pub mod quicksort;
mod shape;
pub mod spmxv;
pub mod workloads;

use simany_runtime::{ProgramSpec, RunOutput, SimError};
use std::time::Duration;

/// Workload scale relative to the kernel's default size (1.0). The paper's
/// sizes are reachable with [`Scale::paper`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Scale(pub f64);

impl Scale {
    /// The paper's workload size.
    pub fn paper() -> Self {
        Scale(10.0)
    }

    /// Scale an element count, keeping at least `min`.
    pub fn apply(self, base: usize, min: usize) -> usize {
        ((base as f64 * self.0) as usize).max(min)
    }
}

/// Result of one simulated kernel run.
#[derive(Debug)]
pub struct KernelResult {
    /// Simulation output (virtual time, statistics).
    pub out: RunOutput,
    /// Did the parallel output match the sequential reference?
    pub verified: bool,
    /// Problem size indicator (elements / nodes / rows processed).
    pub work_items: u64,
}

impl KernelResult {
    /// Completion virtual time in cycles.
    pub fn cycles(&self) -> u64 {
        self.out.vtime_cycles()
    }
}

/// Uniform interface over the six dwarf kernels.
pub trait DwarfKernel {
    /// Name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Simulate the kernel on the machine described by `spec`. The memory
    /// architecture in `spec.runtime.arch` selects the shared-memory or
    /// distributed-memory variant. Output is verified against the
    /// sequential reference.
    fn run_sim(&self, spec: ProgramSpec, scale: Scale, seed: u64)
        -> Result<KernelResult, SimError>;

    /// Execute the same computation natively, without simulation (the
    /// denominator of the paper's normalized simulation times, Fig. 7).
    /// Returns the wall-clock duration and a checksum-ish count to keep
    /// the optimizer honest.
    fn run_native(&self, scale: Scale, seed: u64) -> (Duration, u64);
}

/// The full suite, in the paper's figure order.
pub fn all_kernels() -> Vec<Box<dyn DwarfKernel>> {
    vec![
        Box::new(barnes_hut::BarnesHut),
        Box::new(connected::ConnectedComponents),
        Box::new(dijkstra::Dijkstra),
        Box::new(quicksort::Quicksort),
        Box::new(spmxv::SpMxV),
        Box::new(octree::OctreeUpdate),
    ]
}

/// Look a kernel up by (case-insensitive) name prefix.
pub fn kernel_by_name(name: &str) -> Option<Box<dyn DwarfKernel>> {
    by_prefix(all_kernels(), name, |k| k.name())
}

/// The first of `all` whose name starts with `prefix`, ignoring case.
fn by_prefix<T: ?Sized>(
    all: Vec<Box<T>>,
    prefix: &str,
    name: fn(&T) -> &'static str,
) -> Option<Box<T>> {
    let lower = prefix.to_lowercase();
    all.into_iter()
        .find(|k| name(k).to_lowercase().starts_with(&lower))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_six_kernels() {
        let names: Vec<_> = all_kernels().iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec![
                "Barnes-Hut",
                "Connected Components",
                "Dijkstra",
                "Quicksort",
                "SpMxV",
                "Octree"
            ]
        );
    }

    #[test]
    fn lookup_by_prefix() {
        assert_eq!(kernel_by_name("quick").unwrap().name(), "Quicksort");
        assert_eq!(kernel_by_name("BARNES").unwrap().name(), "Barnes-Hut");
        assert!(kernel_by_name("nonexistent").is_none());
    }

    #[test]
    fn scale_application() {
        assert_eq!(Scale(1.0).apply(100, 10), 100);
        assert_eq!(Scale(0.1).apply(100, 50), 50);
        assert_eq!(Scale::paper().apply(100, 10), 1000);
    }
}
