//! Octree update traversal (paper §V).
//!
//! "Finally, we use a tree traversal algorithm that updates all objects
//! within an Octree structure. This scenario is typically used in gaming
//! or for graphics generation. We ran the experiments with 50 randomly
//! generated octrees of depth 6."
//!
//! Each node's payload is transformed independently (`v ← v·a + b`), so
//! the parallel result is bit-identical to the sequential one regardless
//! of traversal order. Subtrees near the root are conditionally spawned;
//! deep subtrees run inline.

use crate::shape::{run_tasks, Placement};
use crate::workloads::{random_octree, Octree};
use crate::{DwarfKernel, KernelResult, Scale};
use parking_lot::Mutex;
use simany_runtime::{GroupId, ProgramSpec, SimError, TaskCtx};
use simany_time::BlockCost;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Paper depth.
const BASE_DEPTH: u32 = 6;
/// Spawn subtrees only above this depth.
const SPAWN_DEPTH: u32 = 4;
/// Simulated node array base address.
const NODES_BASE: u64 = 0x7000_0000;
/// Distributed memory: nodes grouped into cells of this many nodes.
const NODES_PER_CELL: usize = 32;

/// Update applied to every node payload.
fn update_value(v: f64) -> f64 {
    v * 1.0625 + 0.125
}

/// Per-node update cost: a small object transform (the gaming/graphics
/// scenario of the paper — e.g. a matrix-vector update per object) plus
/// child bookkeeping.
fn node_cost() -> BlockCost {
    BlockCost::new()
        .fp_mul(4)
        .fp_add(4)
        .int_alu(5)
        .cond_branches(2)
}

/// The octree-update kernel.
pub struct OctreeUpdate;

/// What every task of one run shares.
struct Update {
    tree: Octree,
    values: Mutex<Vec<f64>>,
    /// Where the nodes live.
    at: Placement,
}

impl DwarfKernel for OctreeUpdate {
    fn name(&self) -> &'static str {
        "Octree"
    }

    fn run_sim(
        &self,
        spec: ProgramSpec,
        scale: Scale,
        seed: u64,
    ) -> Result<KernelResult, SimError> {
        // Scale deepens the tree (each level multiplies the node count).
        let depth = (BASE_DEPTH as f64 + scale.0.log2()).round().max(3.0) as u32;
        let tree = random_octree(depth, seed);
        let n = tree.nodes.len();
        let expected: Vec<f64> = tree.nodes.iter().map(|nd| update_value(nd.value)).collect();
        let (out, run) = run_tasks(
            spec,
            move |tc| Update {
                values: Mutex::new(tree.nodes.iter().map(|nd| nd.value).collect()),
                tree,
                at: Placement::new(tc, NODES_BASE, 16, n, NODES_PER_CELL),
            },
            |tc, run, group| walk(tc, run, 0, 0, group),
        )?;
        let verified = *run.values.lock() == expected;
        Ok(KernelResult {
            out,
            verified,
            work_items: n as u64,
        })
    }

    fn run_native(&self, scale: Scale, seed: u64) -> (Duration, u64) {
        let depth = (BASE_DEPTH as f64 + scale.0.log2()).round().max(3.0) as u32;
        let mut tree = random_octree(depth, seed);
        let t0 = Instant::now();
        let mut stack = vec![0u32];
        let mut count = 0u64;
        while let Some(idx) = stack.pop() {
            let node = &mut tree.nodes[idx as usize];
            node.value = update_value(node.value);
            count += 1;
            stack.extend(node.children.iter().copied());
        }
        (t0.elapsed(), count)
    }
}

fn walk(tc: &mut TaskCtx<'_>, run: &Arc<Update>, node: u32, depth: u32, group: GroupId) {
    // Timed access to the node, then the update.
    run.at.update(tc, node as usize);
    tc.compute(&node_cost());
    {
        let mut vals = run.values.lock();
        vals[node as usize] = update_value(vals[node as usize]);
    }
    for &child in &run.tree.nodes[node as usize].children {
        if depth < SPAWN_DEPTH {
            let run = Arc::clone(run);
            tc.spawn_or_run(group, move |tc: &mut TaskCtx<'_>| {
                walk(tc, &run, child, depth + 1, group);
            });
        } else {
            walk(tc, run, child, depth + 1, group);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simany_runtime::RuntimeParams;
    use simany_topology::mesh_2d;

    #[test]
    fn all_nodes_updated_exactly_once() {
        let r = OctreeUpdate
            .run_sim(ProgramSpec::new(mesh_2d(8)), Scale(0.5), 3)
            .unwrap();
        assert!(r.verified);
        assert!(r.work_items > 10);
    }

    #[test]
    fn distributed_variant_verifies() {
        let mut spec = ProgramSpec::new(mesh_2d(8));
        spec.runtime = RuntimeParams::distributed_memory();
        let r = OctreeUpdate.run_sim(spec, Scale(0.5), 3).unwrap();
        assert!(r.verified);
    }

    #[test]
    fn parallel_speedup_exists() {
        let base = OctreeUpdate
            .run_sim(ProgramSpec::new(mesh_2d(1)), Scale(1.0), 8)
            .unwrap();
        let par = OctreeUpdate
            .run_sim(ProgramSpec::new(mesh_2d(16)), Scale(1.0), 8)
            .unwrap();
        assert!(base.verified && par.verified);
        assert!(
            par.cycles() < base.cycles(),
            "no speedup: {} vs {}",
            par.cycles(),
            base.cycles()
        );
    }
}
