//! Barnes-Hut N-body force phase (paper §V).
//!
//! "It partitions space by building a hierarchical tree in which each
//! internal node represents the center of mass of all the bodies in the
//! underlying subtree. In a second phase, the force on each body B is
//! computed by traversing the tree starting at the root. This computation
//! is independent of that of other bodies and can be performed in
//! parallel. [...] Only the scalability of the second phase is reported,
//! assuming that the built tree has been broadcasted to all cores before
//! it starts."
//!
//! The tree build runs on the host (it is outside the measured phase);
//! force traversals are the simulated tasks, annotated with floating-point
//! instruction classes and tree-node memory accesses.

use crate::shape::{run_tasks, Placement};
use crate::workloads::{random_bodies, Body};
use crate::{DwarfKernel, KernelResult, Scale};
use simany_runtime::{GroupId, ProgramSpec, SimError, TaskCtx};
use simany_time::BlockCost;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Paper workloads use 128 and 200 bodies; default in between.
const BASE_BODIES: usize = 160;
/// Barnes-Hut opening angle.
const THETA: f64 = 0.5;
/// Softening to avoid singularities.
const EPS2: f64 = 1e-6;
/// Tasks compute forces for blocks of this many bodies.
const BODY_BLOCK: usize = 1;
/// Simulated address of the tree-node array.
const TREE_BASE: u64 = 0x4000_0000;
/// In distributed memory, tree nodes are grouped into cells of this many
/// nodes; traversals fetch the groups they visit.
const NODES_PER_CELL: usize = 16;

/// An octree node: either a leaf holding one body or an internal cube with
/// up to 8 children and an aggregated center of mass.
#[derive(Clone, Debug)]
pub struct BhNode {
    /// Cube center.
    pub center: [f64; 3],
    /// Cube half-width.
    pub half: f64,
    /// Aggregate mass.
    pub mass: f64,
    /// Center of mass.
    pub com: [f64; 3],
    /// Child node indices (0 = absent).
    pub children: [u32; 8],
    /// Body index for leaves.
    pub body: Option<u32>,
}

/// The Barnes-Hut octree over a set of bodies.
pub struct BhTree {
    /// Node arena; index 0 is the root.
    pub nodes: Vec<BhNode>,
}

impl BhTree {
    /// Build the tree (host-side; outside the measured phase).
    pub fn build(bodies: &[Body]) -> BhTree {
        let mut tree = BhTree {
            nodes: vec![BhNode {
                center: [0.5, 0.5, 0.5],
                half: 0.5,
                mass: 0.0,
                com: [0.0; 3],
                children: [0; 8],
                body: None,
            }],
        };
        for (i, b) in bodies.iter().enumerate() {
            tree.insert(0, i as u32, b, bodies, 0);
        }
        tree.summarize(0, bodies);
        tree
    }

    fn octant(center: &[f64; 3], p: &[f64; 3]) -> usize {
        (usize::from(p[0] >= center[0]))
            | (usize::from(p[1] >= center[1]) << 1)
            | (usize::from(p[2] >= center[2]) << 2)
    }

    fn child_cube(center: &[f64; 3], half: f64, oct: usize) -> ([f64; 3], f64) {
        let h = half / 2.0;
        let c = [
            center[0] + if oct & 1 != 0 { h } else { -h },
            center[1] + if oct & 2 != 0 { h } else { -h },
            center[2] + if oct & 4 != 0 { h } else { -h },
        ];
        (c, h)
    }

    fn insert(&mut self, node: u32, body_idx: u32, b: &Body, bodies: &[Body], depth: u32) {
        let n = node as usize;
        if self.nodes[n].body.is_none() && self.nodes[n].children.iter().all(|&c| c == 0) {
            // Empty leaf: claim it.
            self.nodes[n].body = Some(body_idx);
            return;
        }
        // Depth guard: co-located bodies pile up in one leaf.
        if depth > 48 {
            return;
        }
        if let Some(prev) = self.nodes[n].body.take() {
            // Split: push the previous occupant down.
            self.push_down(node, prev, &bodies[prev as usize], bodies, depth);
        }
        self.push_down(node, body_idx, b, bodies, depth);
    }

    fn push_down(&mut self, node: u32, body_idx: u32, b: &Body, bodies: &[Body], depth: u32) {
        let n = node as usize;
        let oct = Self::octant(&self.nodes[n].center, &b.pos);
        if self.nodes[n].children[oct] == 0 {
            let (c, h) = Self::child_cube(&self.nodes[n].center, self.nodes[n].half, oct);
            let idx = self.nodes.len() as u32;
            self.nodes.push(BhNode {
                center: c,
                half: h,
                mass: 0.0,
                com: [0.0; 3],
                children: [0; 8],
                body: None,
            });
            self.nodes[n].children[oct] = idx;
        }
        let child = self.nodes[n].children[oct];
        self.insert(child, body_idx, b, bodies, depth + 1);
    }

    fn summarize(&mut self, node: u32, bodies: &[Body]) -> (f64, [f64; 3]) {
        let n = node as usize;
        let mut mass = 0.0;
        let mut com = [0.0; 3];
        if let Some(b) = self.nodes[n].body {
            let body = &bodies[b as usize];
            mass += body.mass;
            for (c, p) in com.iter_mut().zip(body.pos) {
                *c += body.mass * p;
            }
        }
        for oct in 0..8 {
            let c = self.nodes[n].children[oct];
            if c != 0 {
                let (m, cc) = self.summarize(c, bodies);
                mass += m;
                for (c, p) in com.iter_mut().zip(cc) {
                    *c += m * p;
                }
            }
        }
        if mass > 0.0 {
            for c in &mut com {
                *c /= mass;
            }
        }
        self.nodes[n].mass = mass;
        self.nodes[n].com = com;
        (mass, com)
    }

    /// Force on `body` by Barnes-Hut traversal; `visit` is called per
    /// visited node (for timing instrumentation).
    pub fn force_on(
        &self,
        body: &Body,
        body_idx: u32,
        mut visit: impl FnMut(u32, bool),
    ) -> [f64; 3] {
        let mut acc = [0.0; 3];
        let mut stack = vec![0u32];
        while let Some(node) = stack.pop() {
            let n = &self.nodes[node as usize];
            if n.mass == 0.0 {
                continue;
            }
            if n.body == Some(body_idx) && n.children.iter().all(|&c| c == 0) {
                visit(node, false);
                continue;
            }
            let dx = n.com[0] - body.pos[0];
            let dy = n.com[1] - body.pos[1];
            let dz = n.com[2] - body.pos[2];
            let d2 = dx * dx + dy * dy + dz * dz + EPS2;
            let d = d2.sqrt();
            let is_leaf = n.children.iter().all(|&c| c == 0);
            if is_leaf || (n.half * 2.0) / d < THETA {
                // Far enough: use the aggregate.
                visit(node, true);
                let f = n.mass / (d2 * d);
                acc[0] += f * dx;
                acc[1] += f * dy;
                acc[2] += f * dz;
            } else {
                visit(node, false);
                for &c in &n.children {
                    if c != 0 {
                        stack.push(c);
                    }
                }
            }
        }
        acc
    }
}

/// Cost of evaluating one far-field interaction (distance + force):
/// ~9 fp add/sub, 9 fp mul, 1 divide+sqrt pair, a compare.
fn interaction_cost() -> BlockCost {
    BlockCost::new()
        .fp_add(9)
        .fp_mul(9)
        .fp_div(2)
        .cond_branches(1)
}

/// Cost of opening a node (distance test only).
fn open_cost() -> BlockCost {
    BlockCost::new()
        .fp_add(6)
        .fp_mul(4)
        .fp_div(1)
        .cond_branches(1)
}

/// The Barnes-Hut kernel (force phase).
pub struct BarnesHut;

/// What every task of one run shares.
struct Forces {
    tree: BhTree,
    bodies: Vec<Body>,
    forces: RefCell<Vec<[f64; 3]>>,
    /// Where the tree nodes live.
    at: Placement,
}

impl DwarfKernel for BarnesHut {
    fn name(&self) -> &'static str {
        "Barnes-Hut"
    }

    fn run_sim(
        &self,
        spec: ProgramSpec,
        scale: Scale,
        seed: u64,
    ) -> Result<KernelResult, SimError> {
        let n = scale.apply(BASE_BODIES, 16);
        let bodies = random_bodies(n, seed);
        let tree = BhTree::build(&bodies);
        // Sequential reference: same traversal, no instrumentation.
        let reference: Vec<[f64; 3]> = bodies
            .iter()
            .enumerate()
            .map(|(i, b)| tree.force_on(b, i as u32, |_, _| {}))
            .collect();
        let (out, run) = run_tasks(
            spec,
            // Distributed memory: the tree is partitioned into node-group
            // cells which traversals must fetch ("tasks continuously
            // exchange vertex data").
            move |tc| Forces {
                at: Placement::new(tc, TREE_BASE, 64, tree.nodes.len(), NODES_PER_CELL),
                tree,
                bodies,
                forces: RefCell::new(vec![[0.0; 3]; n]),
            },
            move |tc, run, group| force_range(tc, run, 0, n, group),
        )?;
        let verified = *run.forces.borrow() == reference;
        Ok(KernelResult {
            out,
            verified,
            work_items: n as u64,
        })
    }

    fn run_native(&self, scale: Scale, seed: u64) -> (Duration, u64) {
        let n = scale.apply(BASE_BODIES, 16);
        let bodies = random_bodies(n, seed);
        let tree = BhTree::build(&bodies);
        let t0 = Instant::now();
        let mut checksum = 0.0f64;
        for (i, b) in bodies.iter().enumerate() {
            let f = tree.force_on(b, i as u32, |_, _| {});
            checksum += f[0] + f[1] + f[2];
        }
        (t0.elapsed(), checksum.to_bits())
    }
}

/// Recursive block decomposition over the bodies.
fn force_range(tc: &mut TaskCtx<'_>, run: &Rc<Forces>, lo: usize, hi: usize, group: GroupId) {
    if hi - lo > BODY_BLOCK {
        let mid = lo + (hi - lo) / 2;
        let right = Rc::clone(run);
        tc.spawn_or_run(group, move |tc: &mut TaskCtx<'_>| {
            force_range(tc, &right, mid, hi, group);
        });
        force_range(tc, run, lo, mid, group);
        return;
    }
    for i in lo..hi {
        tc.scope(|tc| {
            // Traverse on the host, charging per visited node.
            let mut visits: Vec<(u32, bool)> = Vec::new();
            let f = run.tree.force_on(&run.bodies[i], i as u32, |node, far| {
                visits.push((node, far));
            });
            for (node, far) in visits {
                run.at.read(tc, node as usize);
                tc.compute(&if far { interaction_cost() } else { open_cost() });
            }
            run.forces.borrow_mut()[i] = f;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simany_runtime::RuntimeParams;
    use simany_topology::mesh_2d;

    fn small() -> Scale {
        Scale(0.25) // 40 bodies
    }

    #[test]
    fn tree_mass_is_conserved() {
        let bodies = random_bodies(64, 3);
        let tree = BhTree::build(&bodies);
        let total: f64 = bodies.iter().map(|b| b.mass).sum();
        assert!((tree.nodes[0].mass - total).abs() < 1e-9);
        // Center of mass inside the unit cube.
        for c in tree.nodes[0].com {
            assert!((0.0..1.0).contains(&c));
        }
    }

    #[test]
    fn bh_force_approximates_direct_sum() {
        let bodies = random_bodies(64, 5);
        let tree = BhTree::build(&bodies);
        for (i, b) in bodies.iter().enumerate().take(8) {
            let bh = tree.force_on(b, i as u32, |_, _| {});
            // Direct sum.
            let mut exact = [0.0f64; 3];
            for (j, o) in bodies.iter().enumerate() {
                if i == j {
                    continue;
                }
                let dx = o.pos[0] - b.pos[0];
                let dy = o.pos[1] - b.pos[1];
                let dz = o.pos[2] - b.pos[2];
                let d2 = dx * dx + dy * dy + dz * dz + EPS2;
                let d = d2.sqrt();
                let f = o.mass / (d2 * d);
                exact[0] += f * dx;
                exact[1] += f * dy;
                exact[2] += f * dz;
            }
            let err: f64 = (0..3).map(|d| (bh[d] - exact[d]).abs()).sum::<f64>()
                / exact.iter().map(|e| e.abs()).sum::<f64>().max(1e-12);
            assert!(err < 0.2, "body {i}: BH error {err}");
        }
    }

    #[test]
    fn parallel_forces_match_sequential_exactly() {
        let r = BarnesHut
            .run_sim(ProgramSpec::new(mesh_2d(8)), small(), 7)
            .unwrap();
        assert!(r.verified);
    }

    #[test]
    fn distributed_variant_moves_tree_cells() {
        let mut spec = ProgramSpec::new(mesh_2d(8));
        spec.runtime = RuntimeParams::distributed_memory();
        let r = BarnesHut.run_sim(spec, small(), 7).unwrap();
        assert!(r.verified);
        assert!(r.out.rt.cell_remote > 0);
    }

    #[test]
    fn near_ideal_speedup_at_low_core_counts() {
        // Paper: "the speedup is close to ideal until 16 cores".
        let base = BarnesHut
            .run_sim(ProgramSpec::new(mesh_2d(1)), Scale(1.0), 9)
            .unwrap();
        let par = BarnesHut
            .run_sim(ProgramSpec::new(mesh_2d(16)), Scale(1.0), 9)
            .unwrap();
        let speedup = base.cycles() as f64 / par.cycles() as f64;
        assert!(speedup > 4.0, "speedup only {speedup:.2} on 16 cores");
    }
}
