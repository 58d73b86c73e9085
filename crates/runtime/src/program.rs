//! Top-level program driver: build a machine, run a root task, collect
//! statistics.

use crate::params::RuntimeParams;
use crate::runtime::{TaskMeta, TaskRuntime};
use crate::state::RtStats;
use crate::task_ctx::TaskCtx;
use simany_core::{simulate, EngineConfig, SimError, SimStats};
use simany_topology::{CoreId, Topology};
use std::sync::Arc;

/// Everything that defines one simulated machine + run-time configuration.
#[derive(Clone)]
pub struct ProgramSpec {
    /// The interconnect.
    pub topo: Topology,
    /// Engine configuration (synchronization policy, seed, speeds...).
    pub engine: EngineConfig,
    /// Run-time system parameters (memory architecture, queue sizes...).
    pub runtime: RuntimeParams,
    /// Core the root task starts on.
    pub root_core: CoreId,
}

impl ProgramSpec {
    /// Spec with default engine and runtime parameters on `topo`.
    pub fn new(topo: Topology) -> Self {
        ProgramSpec {
            topo,
            engine: EngineConfig::default(),
            runtime: RuntimeParams::default(),
            root_core: CoreId(0),
        }
    }
}

/// Result of a program run.
#[derive(Debug)]
pub struct RunOutput {
    /// Engine statistics (final virtual time, messages, stalls...).
    pub stats: SimStats,
    /// Run-time system statistics (probes, spawns, cell moves...).
    pub rt: RtStats,
}

impl RunOutput {
    /// Program completion time in cycles (the quantity the paper's
    /// speedups are computed from).
    pub fn vtime_cycles(&self) -> u64 {
        self.stats.final_vtime.cycles()
    }
}

/// Run `root` as the initial task on `spec.root_core` and simulate to
/// completion.
///
/// The root closure typically builds workloads, spawns task trees with
/// [`TaskCtx::spawn_or_run`], joins them, and writes results into captured
/// `Rc<RefCell<...>>` state for verification after the run: every task body
/// runs on the calling thread, so nothing it captures needs to be `Send`.
pub fn run_program(
    spec: ProgramSpec,
    root: impl FnOnce(&mut TaskCtx<'_>) + 'static,
) -> Result<RunOutput, SimError> {
    let rt = TaskRuntime::new(spec.topo.n_cores(), spec.runtime);
    let rt_for_setup = Arc::clone(&rt);
    let rt_hooks: Arc<dyn simany_core::RuntimeHooks> = Arc::clone(&rt) as _;
    let root_core = spec.root_core;
    let stats = simulate(spec.topo, spec.engine, rt_hooks, move |ops| {
        let body: crate::task_ctx::TaskBody = Box::new(root);
        ops.start_activity(
            root_core,
            "root",
            Box::new(TaskMeta { group: None }),
            rt_for_setup.wrap(body),
        );
    })?;
    let rt_stats = rt.stats();
    Ok(RunOutput {
        stats,
        rt: rt_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simany_topology::mesh_2d;

    #[test]
    fn trivial_program_runs() {
        let out = run_program(ProgramSpec::new(mesh_2d(4)), |tc| {
            tc.work(42);
        })
        .unwrap();
        assert_eq!(out.vtime_cycles(), 42);
        assert_eq!(out.stats.activities_started, 1);
    }
}
