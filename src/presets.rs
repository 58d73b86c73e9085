//! Architecture presets: the machines of the paper's experimental
//! methodology (§V).
//!
//! * uniform 2D meshes of 1–1024 cores, shared or distributed memory;
//! * the validation configuration (shared memory *with* coherence-effect
//!   timings, to compare fairly with the fully coherent cycle-level
//!   reference);
//! * clustered meshes (4 or 8 clusters, slow inter-cluster links, fast
//!   intra-cluster links);
//! * polymorphic meshes (alternating half-speed and 1.5×-speed cores with
//!   equal aggregate computing power);
//! * the cycle-level reference machine.

use simany_core::EngineConfig;
use simany_runtime::{ProgramSpec, RuntimeParams};
use simany_topology::{
    chiplet_mesh, clustered_mesh, mesh_2d, ChipletParams, ClusterParams, CoreId,
};

/// The validation sweep: "comparison with a cycle-level simulator up to 64
/// cores" (§VI), doubling from 1.
pub const VALIDATION_CORE_COUNTS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

fn base_spec(n: u32, runtime: RuntimeParams, seed: u64) -> ProgramSpec {
    ProgramSpec {
        topo: mesh_2d(n),
        engine: EngineConfig::default().with_seed(seed),
        runtime,
        root_core: CoreId(0),
    }
}

/// Uniform 2D mesh, optimistic shared memory (Fig. 8's machine).
pub fn uniform_mesh_sm(n: u32) -> ProgramSpec {
    base_spec(n, RuntimeParams::shared_memory(), 0x51_3A_17)
}

/// Uniform 2D mesh, shared memory *with coherence-effect timings* — the
/// SiMany side of the validation experiments (Fig. 5).
pub fn uniform_mesh_sm_coherent(n: u32) -> ProgramSpec {
    base_spec(n, RuntimeParams::shared_memory_coherent(), 0x51_3A_17)
}

/// Uniform 2D mesh, distributed memory (Fig. 9's machine).
pub fn uniform_mesh_dm(n: u32) -> ProgramSpec {
    base_spec(n, RuntimeParams::distributed_memory(), 0x51_3A_17)
}

/// Uniform 3D mesh, shared memory — an exploration target beyond the
/// paper's 2D meshes (lower diameter, so a tighter global drift bound and
/// cheaper average routes).
pub fn mesh3d_sm(n: u32) -> ProgramSpec {
    let mut spec = uniform_mesh_sm(n);
    spec.topo = simany_topology::mesh_3d(n);
    spec
}

/// Clustered 2D mesh with `clusters` clusters, distributed memory
/// (Fig. 12's machine: inter-cluster links 4 cycles, intra-cluster 0.5).
pub fn clustered_dm(n: u32, clusters: u32) -> ProgramSpec {
    let mut spec = uniform_mesh_dm(n);
    spec.topo = clustered_mesh(n, ClusterParams::paper(clusters));
    spec
}

/// Hierarchical multi-chip mesh: `chips` chiplets (laid out in the
/// most-square grid), each an internal most-square mesh of `n / chips`
/// cores, joined by slower, narrower inter-chip links
/// ([`ChipletParams::default`]: 4-cycle / 32 B/cy versus 1-cycle /
/// 128 B/cy on-chip). Distributed memory — crossing the package boundary
/// is what the topology models, and messages are how it is felt. The
/// chiplet index is attached as each core's region.
///
/// `n` must be divisible by `chips`.
pub fn chiplet_dm(n: u32, chips: u32) -> ProgramSpec {
    assert!(chips > 0, "need at least one chiplet");
    assert!(
        n.is_multiple_of(chips),
        "cores ({n}) must divide evenly into {chips} chiplets"
    );
    let (chips_x, chips_y) = simany_topology::builders::mesh_dims(chips);
    let (chip_w, chip_h) = simany_topology::builders::mesh_dims(n / chips);
    let mut spec = uniform_mesh_dm(n);
    spec.topo = chiplet_mesh(chips_x, chips_y, chip_w, chip_h, ChipletParams::default());
    spec
}

/// Polymorphic uniform mesh (half the cores at half speed, half at 1.5×;
/// same aggregate computing power), shared memory — the SiMany side of
/// Fig. 6.
pub fn polymorphic_sm(n: u32) -> ProgramSpec {
    let mut spec = uniform_mesh_sm(n);
    spec.engine.speeds = Some(EngineConfig::polymorphic_speeds(n));
    spec
}

/// Polymorphic mesh, distributed memory (Fig. 13's machine).
pub fn polymorphic_dm(n: u32) -> ProgramSpec {
    let mut spec = uniform_mesh_dm(n);
    spec.engine.speeds = Some(EngineConfig::polymorphic_speeds(n));
    spec
}

/// The cycle-level reference machine (conservative ordering + detailed
/// microarchitecture models; coherence fully simulated). See
/// `simany-cyclelevel`.
pub fn cycle_level(n: u32) -> ProgramSpec {
    simany_cyclelevel::cycle_level_spec(mesh_2d(n), 0x51_3A_17)
}

/// Cycle-level reference on a polymorphic mesh. The paper notes the known
/// modeling difference: "In the UNISIM-based simulator, the L1 cache speed
/// is the same for all cores, whereas in SiMany it is proportional to the
/// core speed" — reproduced here, since the detailed model's cache
/// latencies are speed-independent while SiMany's scale.
pub fn cycle_level_polymorphic(n: u32) -> ProgramSpec {
    let mut spec = cycle_level(n);
    spec.engine.speeds = Some(EngineConfig::polymorphic_speeds(n));
    spec
}

/// Apply a spatial drift bound `T` (in cycles) to a spec — the knob of the
/// accuracy/speed study (Fig. 10/11).
pub fn with_drift(mut spec: ProgramSpec, t_cycles: u64) -> ProgramSpec {
    spec.engine = spec.engine.with_drift_cycles(t_cycles);
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use simany_core::SyncPolicy;
    use simany_time::VDuration;

    #[test]
    fn preset_shapes() {
        assert_eq!(uniform_mesh_sm(64).topo.n_cores(), 64);
        assert!(uniform_mesh_dm(8).runtime.arch.is_distributed());
        assert!(uniform_mesh_sm_coherent(8).runtime.arch.coherence_enabled());
        assert!(!uniform_mesh_sm(8).runtime.arch.coherence_enabled());
    }

    #[test]
    fn mesh3d_preset() {
        let spec = mesh3d_sm(64);
        assert_eq!(spec.topo.n_cores(), 64);
        assert_eq!(spec.topo.diameter_hops(), 9);
    }

    #[test]
    fn clustered_uses_paper_latencies() {
        let spec = clustered_dm(64, 4);
        let slow = spec
            .topo
            .links()
            .filter(|l| l.latency == VDuration::from_cycles(4))
            .count();
        assert!(slow > 0);
    }

    #[test]
    fn polymorphic_speeds_installed() {
        let spec = polymorphic_sm(8);
        let speeds = spec.engine.speeds.unwrap();
        assert_eq!(speeds.len(), 8);
        let agg: f64 = speeds.iter().map(|s| s.as_f64()).sum();
        assert!((agg - 8.0).abs() < 1e-9);
    }

    #[test]
    fn cycle_level_is_conservative_and_detailed() {
        let spec = cycle_level(4);
        assert_eq!(spec.engine.sync, SyncPolicy::Conservative);
        assert!(spec.runtime.detailed.is_some());
    }

    #[test]
    fn drift_override() {
        let spec = with_drift(uniform_mesh_sm(4), 500);
        assert_eq!(
            spec.engine.sync,
            SyncPolicy::Spatial {
                t: VDuration::from_cycles(500)
            }
        );
    }
}
