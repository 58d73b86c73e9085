//! Connected components (paper §V).
//!
//! "Since the graph topology is not known in advance, depth-first searches
//! are launched from lots of nodes in parallel, resulting in contention
//! when nodes belonging to the same component are being tagged repeatedly,
//! although the conditional spawning mitigates this issue."
//!
//! Implementation: min-label propagation. Every node starts tagged with
//! its own id; parallel DFS tasks push smaller labels over edges, so a
//! component converges to the minimum node id it contains. The repeated
//! re-tagging of nodes reached through different paths is exactly the
//! contention the paper describes, and is what makes the kernel's
//! scalability peak and then degrade.

use crate::annotate::edge_visit_cost;
use crate::shape::{run_tasks, Placement};
use crate::workloads::{random_graph_components, Graph};
use crate::{DwarfKernel, KernelResult, Scale};
use parking_lot::Mutex;
use simany_runtime::{GroupId, ProgramSpec, SimError, TaskCtx};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Paper workload: 1000 nodes, 2000 edges.
const BASE_N: usize = 1000;
const BASE_M: usize = 2000;
/// Simulated address of the label array.
const LABELS_BASE: u64 = 0x2000_0000;

/// The connected-components kernel.
pub struct ConnectedComponents;

/// What every task of one run shares.
struct Labeling {
    graph: Graph,
    labels: Mutex<Vec<u32>>,
    /// Where the labels live.
    at: Placement,
}

impl DwarfKernel for ConnectedComponents {
    fn name(&self) -> &'static str {
        "Connected Components"
    }

    fn run_sim(
        &self,
        spec: ProgramSpec,
        scale: Scale,
        seed: u64,
    ) -> Result<KernelResult, SimError> {
        let n = scale.apply(BASE_N, 64);
        let m = scale.apply(BASE_M, 128);
        let graph = random_graph_components(n, m, seed);
        let reference = union_find_components(&graph);
        let (out, run) = run_tasks(
            spec,
            // In distributed memory every node's tag lives in its own cell,
            // home-distributed round-robin by allocation order on the root —
            // they migrate to whoever tags them (heavy traffic, the paper's
            // observed collapse).
            move |tc| Labeling {
                graph,
                labels: Mutex::new((0..n as u32).collect()),
                at: Placement::new(tc, LABELS_BASE, 8, n, 1),
            },
            // Launch DFS from every node in parallel (conditional spawning
            // bounds the real task count).
            move |tc, run, group| {
                for s in 0..n as u32 {
                    let run = Arc::clone(run);
                    tc.spawn_or_run(group, move |tc: &mut TaskCtx<'_>| {
                        explore(tc, &run, s, s, group);
                    });
                }
            },
        )?;
        // Min-label propagation converges to the minimum id of each
        // component, which is the union-find root too.
        let verified = *run.labels.lock() == reference;
        Ok(KernelResult {
            out,
            verified,
            work_items: n as u64,
        })
    }

    fn run_native(&self, scale: Scale, seed: u64) -> (Duration, u64) {
        let n = scale.apply(BASE_N, 64);
        let m = scale.apply(BASE_M, 128);
        let graph = random_graph_components(n, m, seed);
        let t0 = Instant::now();
        let comps = union_find_components(&graph);
        let distinct = {
            let mut c = comps.clone();
            c.sort_unstable();
            c.dedup();
            c.len() as u64
        };
        (t0.elapsed(), distinct)
    }
}

/// One DFS task: propagate `lbl` from `start` through every node whose
/// current tag is larger, spawning further tasks along the way.
fn explore(tc: &mut TaskCtx<'_>, run: &Arc<Labeling>, start: u32, lbl: u32, group: GroupId) {
    let mut stack = vec![start];
    while let Some(v) = stack.pop() {
        // Tag check + update (the contended access of the paper).
        run.at.read(tc, v as usize);
        let improved = {
            let mut tags = run.labels.lock();
            if tags[v as usize] < lbl || (tags[v as usize] == lbl && v != start) {
                // A smaller label won, or this wave already tagged it.
                false
            } else {
                tags[v as usize] = lbl;
                true
            }
        };
        tc.compute(&edge_visit_cost());
        if !improved {
            continue;
        }
        run.at.write(tc, v as usize);
        for &(u, _) in &run.graph.adj[v as usize] {
            tc.compute(&edge_visit_cost());
            run.at.read(tc, u as usize);
            let worth_it = run.labels.lock()[u as usize] > lbl;
            if !worth_it {
                continue;
            }
            // Try to hand the sub-search to a neighbor core; continue
            // locally when the probe fails.
            match tc.probe() {
                Some(target) => {
                    let run = Arc::clone(run);
                    let body = move |tc: &mut TaskCtx<'_>| explore(tc, &run, u, lbl, group);
                    tc.spawn(target, Some(group), Box::new(body));
                }
                None => stack.push(u),
            }
        }
    }
}

/// Sequential reference: union-find.
pub fn union_find_components(graph: &Graph) -> Vec<u32> {
    let n = graph.n();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], x: u32) -> u32 {
        let mut root = x;
        while parent[root as usize] != root {
            root = parent[root as usize];
        }
        let mut cur = x;
        while parent[cur as usize] != root {
            let next = parent[cur as usize];
            parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    for (u, adjacency) in graph.adj.iter().enumerate() {
        for &(v, _) in adjacency {
            let ru = find(&mut parent, u as u32);
            let rv = find(&mut parent, v);
            if ru != rv {
                // Smaller id becomes the root, so every root is the minimum
                // id of its component — directly comparable to min-label
                // propagation.
                let (lo, hi) = if ru < rv { (ru, rv) } else { (rv, ru) };
                parent[hi as usize] = lo;
            }
        }
    }
    (0..n as u32).map(|x| find(&mut parent, x)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simany_runtime::RuntimeParams;
    use simany_topology::mesh_2d;

    fn small() -> Scale {
        Scale(0.1) // 100 nodes / 200 edges
    }

    #[test]
    fn union_find_reference_sane() {
        // Two triangles, disjoint.
        let mut g = Graph {
            adj: vec![Vec::new(); 6],
        };
        for &(a, b) in &[(0u32, 1u32), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            g.adj[a as usize].push((b, 1));
            g.adj[b as usize].push((a, 1));
        }
        let c = union_find_components(&g);
        assert_eq!(c, vec![0, 0, 0, 3, 3, 3]);
    }

    #[test]
    fn parallel_labels_match_union_find() {
        let r = ConnectedComponents
            .run_sim(ProgramSpec::new(mesh_2d(8)), small(), 11)
            .unwrap();
        assert!(r.verified);
    }

    #[test]
    fn distributed_variant_verifies_and_moves_cells() {
        let mut spec = ProgramSpec::new(mesh_2d(8));
        spec.runtime = RuntimeParams::distributed_memory();
        let r = ConnectedComponents.run_sim(spec, small(), 11).unwrap();
        assert!(r.verified);
        assert!(r.out.rt.cell_remote > 0, "expected tag cells to migrate");
    }

    #[test]
    fn deterministic_virtual_time() {
        let a = ConnectedComponents
            .run_sim(ProgramSpec::new(mesh_2d(8)), small(), 5)
            .unwrap();
        let b = ConnectedComponents
            .run_sim(ProgramSpec::new(mesh_2d(8)), small(), 5)
            .unwrap();
        assert_eq!(a.cycles(), b.cycles());
    }
}
