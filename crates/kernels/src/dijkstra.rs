//! Parallel Dijkstra / shortest paths (paper §V).
//!
//! "It bears some similarity with the connected components algorithm
//! except that already explored paths may have to be explored again when
//! reached with a lower value of the current distance computed. On the
//! other hand, a task encountering an already explored path close to the
//! optimal can terminate quickly and free a core so that it can be reused
//! for more interesting paths."
//!
//! This speculative label-correcting formulation is what gives the paper
//! its super-linear speedups (Fig. 8): more cores explore more paths
//! concurrently, which raises the chance of tagging nodes with near-optimal
//! distances early and pruning the remaining work.

use crate::annotate::edge_visit_cost;
use crate::shape::{run_tasks, Placement};
use crate::workloads::{random_graph, Graph};
use crate::{DwarfKernel, KernelResult, Scale};
use simany_runtime::{GroupId, ProgramSpec, SimError, TaskCtx};
use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Paper workload: 2000 nodes, ~3000 edges.
const BASE_N: usize = 2000;
const BASE_M: usize = 3000;
const MAX_W: u32 = 100;
/// Simulated address of the distance array.
const DIST_BASE: u64 = 0x3000_0000;

/// The Dijkstra kernel.
pub struct Dijkstra;

/// What every task of one run shares.
struct Search {
    graph: Graph,
    dist: RefCell<Vec<u64>>,
    /// Where the distances live.
    at: Placement,
}

impl DwarfKernel for Dijkstra {
    fn name(&self) -> &'static str {
        "Dijkstra"
    }

    fn run_sim(
        &self,
        spec: ProgramSpec,
        scale: Scale,
        seed: u64,
    ) -> Result<KernelResult, SimError> {
        let n = scale.apply(BASE_N, 64);
        let m = scale.apply(BASE_M, 96);
        let graph = random_graph(n, m, MAX_W, true, seed);
        let reference = sequential_dijkstra(&graph, 0);
        let (out, run) = run_tasks(
            spec,
            move |tc| Search {
                graph,
                dist: RefCell::new(vec![u64::MAX; n]),
                at: Placement::new(tc, DIST_BASE, 8, n, 1),
            },
            |tc, run, group| explore(tc, run, 0, 0, group),
        )?;
        let verified = *run.dist.borrow() == reference;
        Ok(KernelResult {
            out,
            verified,
            work_items: n as u64,
        })
    }

    fn run_native(&self, scale: Scale, seed: u64) -> (Duration, u64) {
        let n = scale.apply(BASE_N, 64);
        let m = scale.apply(BASE_M, 96);
        let graph = random_graph(n, m, MAX_W, true, seed);
        let t0 = Instant::now();
        let dist = sequential_dijkstra(&graph, 0);
        let checksum = dist.iter().filter(|&&d| d != u64::MAX).sum::<u64>();
        (t0.elapsed(), checksum)
    }
}

/// Speculative relaxation task: try to improve `v`'s distance to `d`; on
/// success, propagate over its edges, spawning where the runtime allows.
fn explore(tc: &mut TaskCtx<'_>, run: &Rc<Search>, v: u32, d: u64, group: GroupId) {
    // Local work stack of (node, tentative distance) pairs.
    let mut stack = vec![(v, d)];
    while let Some((v, d)) = stack.pop() {
        run.at.read(tc, v as usize);
        tc.compute(&edge_visit_cost());
        let improved = {
            let mut dv = run.dist.borrow_mut();
            if d < dv[v as usize] {
                dv[v as usize] = d;
                true
            } else {
                false // near-optimal path already known: terminate quickly
            }
        };
        if !improved {
            continue;
        }
        run.at.write(tc, v as usize);
        for &(u, w) in &run.graph.adj[v as usize] {
            tc.compute(&edge_visit_cost());
            run.at.read(tc, u as usize);
            let nd = d + u64::from(w);
            let worth_it = run.dist.borrow()[u as usize] > nd;
            if !worth_it {
                continue;
            }
            match tc.probe() {
                Some(target) => {
                    let run = Rc::clone(run);
                    let body = move |tc: &mut TaskCtx<'_>| explore(tc, &run, u, nd, group);
                    tc.spawn(target, Some(group), Box::new(body));
                }
                None => stack.push((u, nd)),
            }
        }
    }
}

/// Sequential reference (binary-heap Dijkstra).
pub fn sequential_dijkstra(graph: &Graph, source: u32) -> Vec<u64> {
    let n = graph.n();
    let mut dist = vec![u64::MAX; n];
    dist[source as usize] = 0;
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u32)>> = BinaryHeap::new();
    heap.push(std::cmp::Reverse((0, source)));
    while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for &(u, w) in &graph.adj[v as usize] {
            let nd = d + u64::from(w);
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(std::cmp::Reverse((nd, u)));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use simany_runtime::RuntimeParams;
    use simany_topology::mesh_2d;

    fn small() -> Scale {
        Scale(0.05) // 100 nodes / 150 edges
    }

    #[test]
    fn sequential_reference_on_path() {
        let mut g = Graph {
            adj: vec![Vec::new(); 4],
        };
        for &(a, b, w) in &[(0u32, 1u32, 5u32), (1, 2, 3), (2, 3, 2), (0, 3, 20)] {
            g.adj[a as usize].push((b, w));
            g.adj[b as usize].push((a, w));
        }
        assert_eq!(sequential_dijkstra(&g, 0), vec![0, 5, 8, 10]);
    }

    #[test]
    fn parallel_distances_match_reference() {
        let r = Dijkstra
            .run_sim(ProgramSpec::new(mesh_2d(8)), small(), 21)
            .unwrap();
        assert!(r.verified);
    }

    #[test]
    fn distributed_variant_verifies() {
        let mut spec = ProgramSpec::new(mesh_2d(8));
        spec.runtime = RuntimeParams::distributed_memory();
        let r = Dijkstra.run_sim(spec, small(), 21).unwrap();
        assert!(r.verified);
        assert!(r.out.rt.cell_remote > 0);
    }

    #[test]
    fn more_cores_not_slower_on_average() {
        // Speculative SSSP is timing-sensitive; check a weak monotonicity:
        // 16 cores complete no slower than 2x the single-core time.
        let base = Dijkstra
            .run_sim(ProgramSpec::new(mesh_2d(1)), small(), 9)
            .unwrap();
        let par = Dijkstra
            .run_sim(ProgramSpec::new(mesh_2d(16)), small(), 9)
            .unwrap();
        assert!(base.verified && par.verified);
        assert!(par.cycles() < base.cycles() * 2);
    }
}
