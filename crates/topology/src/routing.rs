//! Deterministic minimal-latency routing.
//!
//! Messages traverse the interconnect hop by hop; the network model charges
//! every traversed link (paper §II.A: "the sum of all delays induced by all
//! the components traversed is added to a core's virtual time"). Routes are
//! fixed, minimal-total-latency paths with deterministic tie-breaking
//! (lowest next-hop id): this mirrors the deterministic
//! (dimension-ordered-like) routing of real meshes and keeps simulations
//! reproducible.
//!
//! [`Routes`] computes them one destination at a time, the first time a
//! message needs one, and keeps what it computed under a fixed byte budget:
//! routing state grows with what a run sends, not with cores².

use crate::graph::{CoreId, Incoming, LinkId, LinkProps, Topology};
use std::collections::BinaryHeap;

/// Bytes of next-hop rows [`Routes`] keeps resident: every row of a
/// 1024-core machine, 40 rows at 102,400 cores.
const ROW_BUDGET_BYTES: usize = 16 << 20;

/// Rows kept however large the machine, so a few hot destinations never
/// evict each other.
const MIN_ROWS: usize = 8;

/// Chain end in [`Routes::head`] and [`Slot::next`].
const NIL: u32 = u32::MAX;

/// Key of the rows over every link; fault epoch `e` keys as `e + 1`.
const BASE: u32 = 0;

/// Minimal-latency routes of one topology, built on first use.
///
/// For each destination a *next-hop row* holds one `u32` per source: the
/// adjacency slot of the hop to take from that source toward the
/// destination (the slot names both the next core and the link), or
/// [`Routes::NO_LINK`]. Rows are keyed by (epoch, destination): the base
/// rows route over every link, a fault epoch's rows avoid its dead links.
/// A row is computed by one sweep over the reverse links the first time it
/// is asked for, then kept in a pool of rows sized by a byte budget; once
/// the pool is full the oldest row makes room (FIFO). Nothing is built per
/// core until the first row.
#[derive(Debug)]
pub struct Routes {
    n: u32,
    /// Every link has the same latency (every class some link uses has
    /// it): rows come from a breadth-first sweep instead of Dijkstra.
    uniform: bool,
    /// Reverse adjacency the sweeps walk; empty until the first row.
    incoming: Incoming,
    /// Row pool: slot `s` is `rows[s * n..(s + 1) * n]`.
    rows: Vec<u32>,
    slots: Vec<Slot>,
    /// Per destination: its newest resident slot, the head of a chain
    /// through [`Slot::next`] (one slot per epoch routed to it); empty
    /// until the first row.
    head: Vec<u32>,
    /// Most slots the pool holds.
    capacity: usize,
    /// Slot the next miss overwrites once the pool is full.
    victim: usize,
    /// Rows built so far, evicted ones rebuilt included.
    builds: u64,
}

/// What one pool slot's row routes to.
#[derive(Clone, Copy, Debug)]
struct Slot {
    key: u32,
    dst: u32,
    /// Next older slot of the same destination, or [`NIL`].
    next: u32,
}

impl Routes {
    /// Row entry of a source that takes no link: the destination itself,
    /// or a source a fault epoch cut off from it.
    pub const NO_LINK: u32 = u32::MAX;

    /// Routes for `topo`. Only checks connectivity: rows are built when
    /// first asked for.
    pub fn for_topology(topo: &Topology) -> Self {
        let row_bytes = 4 * topo.n_cores() as usize;
        Self::with_capacity(topo, (ROW_BUDGET_BYTES / row_bytes).max(MIN_ROWS))
    }

    fn with_capacity(topo: &Topology, capacity: usize) -> Self {
        assert!(topo.is_connected(), "cannot route a disconnected topology");
        let mut latencies = topo.link_classes().map(|c| c.latency);
        let uniform = latencies
            .next()
            .is_some_and(|first| latencies.all(|l| l == first));
        Routes {
            n: topo.n_cores(),
            uniform,
            incoming: Incoming::default(),
            rows: Vec::new(),
            slots: Vec::new(),
            head: Vec::new(),
            capacity,
            victim: 0,
            builds: 0,
        }
    }

    /// Rows built so far: one per miss, so a row evicted and asked for
    /// again counts twice.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// The next-hop row toward `dst` over every link of `topo` (the
    /// topology these routes were made for).
    pub fn row(&mut self, topo: &Topology, dst: CoreId) -> &[u32] {
        let s = self.slot(topo, BASE, dst, |_| false);
        self.row_at(s)
    }

    /// The next-hop row toward `dst` over the links fault epoch `epoch`
    /// leaves alive (`dead` flags the others; one epoch must always name
    /// the same dead set). A source the dead links cut off from `dst`
    /// holds [`Routes::NO_LINK`].
    pub fn row_avoiding(
        &mut self,
        topo: &Topology,
        epoch: usize,
        dead: impl Fn(LinkId) -> bool,
        dst: CoreId,
    ) -> &[u32] {
        let key = u32::try_from(epoch + 1).expect("fault epoch index fits in u32");
        let s = self.slot(topo, key, dst, dead);
        self.row_at(s)
    }

    /// The route from `src` along `row` (from [`Routes::row`] or
    /// [`Routes::row_avoiding`]): each link with its properties, in order.
    /// Empty when `src` is the row's destination or is cut off from it.
    pub fn path<'a>(
        topo: &'a Topology,
        row: &'a [u32],
        src: CoreId,
    ) -> impl Iterator<Item = (LinkId, LinkProps)> + 'a {
        let mut cur = src;
        std::iter::from_fn(move || {
            let slot = row[cur.index()];
            (slot != Self::NO_LINK).then(|| {
                let (next, link) = topo.hop(slot);
                let props = LinkProps::new(cur, next, topo.link(link));
                cur = next;
                (link, props)
            })
        })
    }

    fn row_at(&self, s: usize) -> &[u32] {
        let n = self.n as usize;
        &self.rows[s * n..(s + 1) * n]
    }

    /// The slot holding the row for (`key`, `dst`), building it on a miss.
    #[inline]
    fn slot(
        &mut self,
        topo: &Topology,
        key: u32,
        dst: CoreId,
        dead: impl Fn(LinkId) -> bool,
    ) -> usize {
        let mut s = self.head.get(dst.index()).copied().unwrap_or(NIL);
        while s != NIL {
            let slot = self.slots[s as usize];
            if slot.key == key {
                return s as usize;
            }
            s = slot.next;
        }
        self.build(topo, key, dst, dead)
    }

    #[cold]
    fn build(
        &mut self,
        topo: &Topology,
        key: u32,
        dst: CoreId,
        dead: impl Fn(LinkId) -> bool,
    ) -> usize {
        let n = self.n as usize;
        self.builds += 1;
        if self.head.is_empty() {
            self.head = vec![NIL; n];
            self.incoming = Incoming::of(topo);
        }
        let s = if self.slots.len() < self.capacity {
            self.rows.resize(self.rows.len() + n, Self::NO_LINK);
            self.slots.push(Slot {
                key,
                dst: dst.0,
                next: NIL,
            });
            self.slots.len() - 1
        } else {
            let s = self.victim;
            self.victim = (s + 1) % self.capacity;
            self.unlink(s);
            s
        };
        self.slots[s] = Slot {
            key,
            dst: dst.0,
            next: self.head[dst.index()],
        };
        self.head[dst.index()] = s as u32;
        let row = &mut self.rows[s * n..(s + 1) * n];
        if self.uniform {
            bfs_to(topo, &self.incoming, dst, dead, row);
        } else {
            dijkstra_to(topo, &self.incoming, dst, dead, row);
        }
        s
    }

    /// Take slot `s` out of its destination's chain.
    fn unlink(&mut self, s: usize) {
        let Slot { dst, next, .. } = self.slots[s];
        let head = &mut self.head[dst as usize];
        if *head == s as u32 {
            *head = next;
            return;
        }
        let mut p = *head as usize;
        while self.slots[p].next != s as u32 {
            p = self.slots[p].next as usize;
        }
        self.slots[p].next = next;
    }
}

/// Fill `next` with the row toward `dst` when every link has one latency:
/// distance is then hops times it, and a breadth-first sweep gives the row
/// Dijkstra would, without a heap. A core first reached from level `h` is
/// at `h + 1` hops; among its links into level `h` — all seen before level
/// `h + 1` is expanded — the lowest id wins, which is exactly Dijkstra's
/// (distance, hops, link id) order.
fn bfs_to(
    topo: &Topology,
    incoming: &Incoming,
    dst: CoreId,
    dead: impl Fn(LinkId) -> bool,
    next: &mut [u32],
) {
    next.fill(Routes::NO_LINK);
    let mut hops = vec![u32::MAX; next.len()];
    hops[dst.index()] = 0;
    let mut queue = Vec::with_capacity(next.len());
    queue.push(dst);
    let mut head = 0;
    while let Some(&c) = queue.get(head) {
        head += 1;
        let nh = hops[c.index()] + 1;
        for &(pred, slot) in incoming.to(c) {
            let link = topo.hop(slot).1;
            if dead(link) {
                continue;
            }
            let p = pred.index();
            if hops[p] == u32::MAX {
                hops[p] = nh;
                next[p] = slot;
                queue.push(pred);
            } else if hops[p] == nh && link < topo.hop(next[p]).1 {
                next[p] = slot;
            }
        }
    }
}

/// Fill `next` with the row toward `dst` for arbitrary link latencies:
/// Dijkstra over the incoming links by (distance, hops), settling ties on
/// the lowest next-hop link id.
fn dijkstra_to(
    topo: &Topology,
    incoming: &Incoming,
    dst: CoreId,
    dead: impl Fn(LinkId) -> bool,
    next: &mut [u32],
) {
    next.fill(Routes::NO_LINK);
    let mut dist = vec![u64::MAX; next.len()];
    let mut hops = vec![u32::MAX; next.len()];
    dist[dst.index()] = 0;
    hops[dst.index()] = 0;

    // Max-heap of Reverse((dist, hops, core)).
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u32, u32)>> = BinaryHeap::new();
    heap.push(std::cmp::Reverse((0, 0, dst.0)));
    while let Some(std::cmp::Reverse((d, h, c))) = heap.pop() {
        let c = CoreId(c);
        if d > dist[c.index()] || (d == dist[c.index()] && h > hops[c.index()]) {
            continue;
        }
        for &(pred, slot) in incoming.to(c) {
            let link = topo.hop(slot).1;
            if dead(link) {
                continue;
            }
            let p = pred.index();
            let nd = d + topo.link(link).latency.ticks();
            let nh = h + 1;
            let better = nd < dist[p]
                || (nd == dist[p] && nh < hops[p])
                || (nd == dist[p] && nh == hops[p] && link < topo.hop(next[p]).1);
            if better {
                dist[p] = nd;
                hops[p] = nh;
                next[p] = slot;
                heap.push(std::cmp::Reverse((nd, nh, pred.0)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{clustered_mesh, mesh_2d, ring, ClusterParams};
    use crate::graph::{DEFAULT_LINK_BANDWIDTH, DEFAULT_LINK_LATENCY};
    use simany_time::VDuration;

    /// `n` cores and one connection, between cores 0 and 1.
    fn one_link(n: u32) -> Topology {
        Topology::generate(n, |sink| {
            sink.connect(
                CoreId(0),
                CoreId(1),
                DEFAULT_LINK_LATENCY,
                DEFAULT_LINK_BANDWIDTH,
            );
        })
    }

    /// Route from `src` to `dst` over every link: its links, and the sum of
    /// their latencies.
    fn route(
        routes: &mut Routes,
        topo: &Topology,
        src: CoreId,
        dst: CoreId,
    ) -> (Vec<LinkId>, VDuration) {
        let row = routes.row(topo, dst);
        let links: Vec<LinkId> = Routes::path(topo, row, src).map(|(l, _)| l).collect();
        let latency = links.iter().map(|&l| topo.link(l).latency).sum();
        (links, latency)
    }

    /// The breadth-first sweep must give Dijkstra's row entry for entry
    /// (the next-hop tie-break included), with and without dead links (a
    /// residual graph may be disconnected).
    #[test]
    fn uniform_latency_sweep_matches_dijkstra() {
        use crate::builders::{mesh_3d, torus_2d};
        for topo in [
            mesh_2d(1),
            mesh_2d(2),
            mesh_2d(12),
            mesh_2d(64),
            ring(7),
            mesh_3d(27),
            torus_2d(16),
        ] {
            let routes = Routes::for_topology(&topo);
            assert_eq!(
                routes.uniform,
                topo.n_links() > 0,
                "builders use one latency"
            );
            let incoming = Incoming::of(&topo);
            let n = topo.n_cores() as usize;
            // No dead links; every third link dead; a cut isolating core 0.
            let ends = topo.link_ends();
            let cut = |l: LinkId| {
                let (src, dst) = ends[l.index()];
                src.0 == 0 || dst.0 == 0
            };
            let masks: [&dyn Fn(LinkId) -> bool; 3] = [&|_| false, &|l| l.0 % 3 == 0, &cut];
            for dead in masks {
                for dst in topo.cores() {
                    let (mut bfs, mut dijkstra) = (vec![0; n], vec![0; n]);
                    bfs_to(&topo, &incoming, dst, dead, &mut bfs);
                    dijkstra_to(&topo, &incoming, dst, dead, &mut dijkstra);
                    assert_eq!(bfs, dijkstra, "{} cores, to {dst}", topo.n_cores());
                }
            }
        }
        // Two latencies: not uniform, Dijkstra it is.
        assert!(!Routes::for_topology(&clustered_mesh(16, ClusterParams::paper(4))).uniform);
    }

    #[test]
    fn mesh_routes_are_minimal() {
        let topo = mesh_2d(16); // 4x4
        let mut routes = Routes::for_topology(&topo);
        // Opposite corners: 3+3 hops, 6 cycles at 1 cy/link.
        let (links, latency) = route(&mut routes, &topo, CoreId(0), CoreId(15));
        assert_eq!(links.len(), 6);
        assert_eq!(latency, VDuration::from_cycles(6));
        assert!(route(&mut routes, &topo, CoreId(5), CoreId(5)).0.is_empty());
        assert_eq!(routes.row(&topo, CoreId(5))[5], Routes::NO_LINK);
    }

    #[test]
    fn route_materialization_is_valid() {
        let topo = mesh_2d(64);
        let ends = topo.link_ends();
        let mut routes = Routes::for_topology(&topo);
        for (s, d) in [(0u32, 63u32), (7, 56), (12, 12), (1, 62)] {
            let (links, latency) = route(&mut routes, &topo, CoreId(s), CoreId(d));
            assert_eq!(
                links.len() as u32,
                topo.hop_distances(CoreId(s))[d as usize]
            );
            let mut cur = CoreId(s);
            let mut total = VDuration::ZERO;
            for link in links {
                let (src, dst) = ends[link.index()];
                assert_eq!(src, cur, "route must chain");
                cur = dst;
                total += topo.link(link).latency;
            }
            assert_eq!(cur, CoreId(d), "route must reach destination");
            assert_eq!(total, latency);
        }
    }

    #[test]
    fn routing_is_deterministic() {
        let topo = mesh_2d(36);
        let mut a = Routes::for_topology(&topo);
        let mut b = Routes::for_topology(&topo);
        for d in topo.cores() {
            assert_eq!(a.row(&topo, d), b.row(&topo, d));
        }
    }

    #[test]
    fn clustered_routing_prefers_low_latency() {
        // On a clustered mesh, a path through the cluster interior (0.5
        // cy/link) can beat a hop-shorter path crossing boundaries (4 cy).
        let topo = clustered_mesh(64, ClusterParams::paper(4));
        let mut routes = Routes::for_topology(&topo);
        // Within one 4x4 tile: corner (0,0) to (3,3) = 6 fast hops = 3 cy.
        let inside = route(&mut routes, &topo, CoreId(0), CoreId(27)).1; // (3,3) = 3*8+3
        assert_eq!(inside, VDuration::from_cycles(3));
        // Crossing: (0,0) to (4,0) requires exactly one slow link plus three
        // fast hops along the row: 3 * 0.5 + 4 = 5.5 cycles.
        let crossing = route(&mut routes, &topo, CoreId(0), CoreId(4)).1;
        assert_eq!(crossing, VDuration::from_half_cycles(11));
    }

    /// The largest path latency over every ordered pair of a 4x4 mesh.
    #[test]
    fn weighted_diameter_mesh() {
        let topo = mesh_2d(16);
        let mut routes = Routes::for_topology(&topo);
        let mut max = VDuration::ZERO;
        for s in topo.cores() {
            for d in topo.cores() {
                max = max.max(route(&mut routes, &topo, s, d).1);
            }
        }
        assert_eq!(max, VDuration::from_cycles(6));
    }

    #[test]
    fn ring_routes_take_short_side() {
        let topo = ring(8);
        let mut routes = Routes::for_topology(&topo);
        let hops = |routes: &mut Routes, d: u32| route(routes, &topo, CoreId(0), CoreId(d)).0.len();
        assert_eq!(hops(&mut routes, 3), 3);
        assert_eq!(hops(&mut routes, 5), 3); // around the back
        assert_eq!(hops(&mut routes, 4), 4);
    }

    #[test]
    fn build_avoiding_reroutes_around_dead_links() {
        let topo = mesh_2d(16); // 4x4
        let mut routes = Routes::for_topology(&topo);
        // Kill both directions of the 0<->1 link: 0 -> 1 must detour.
        let f = topo.link_between(CoreId(0), CoreId(1)).unwrap();
        let b = topo.link_between(CoreId(1), CoreId(0)).unwrap();
        let dead = |l: LinkId| l == f || l == b;
        let row = routes.row_avoiding(&topo, 0, dead, CoreId(1));
        let detour: Vec<LinkId> = Routes::path(&topo, row, CoreId(0))
            .map(|(l, _)| l)
            .collect();
        assert_eq!(detour.len(), 3); // 0-4-5-1
        assert!(detour.iter().all(|&l| !dead(l)), "route over a dead link");
        // The base row still takes the direct link.
        assert_eq!(route(&mut routes, &topo, CoreId(0), CoreId(1)).0, vec![f]);
    }

    #[test]
    fn build_avoiding_reports_partition() {
        // A 4-ring with both directions of two opposite edges cut splits in
        // two.
        let topo = ring(4);
        let mut cut = Vec::new();
        for (u, v) in [(0u32, 1u32), (2, 3)] {
            cut.push(topo.link_between(CoreId(u), CoreId(v)).unwrap());
            cut.push(topo.link_between(CoreId(v), CoreId(u)).unwrap());
        }
        let mut routes = Routes::for_topology(&topo);
        let to_1 = routes.row_avoiding(&topo, 0, |l| cut.contains(&l), CoreId(1));
        assert_eq!(to_1[0], Routes::NO_LINK, "0 is cut off from 1");
        assert_ne!(to_1[2], Routes::NO_LINK, "2 still reaches 1");
        assert!(!topo.is_strongly_connected(|l| cut.contains(&l)));
    }

    #[test]
    fn build_avoiding_nothing_matches_build() {
        let topo = mesh_2d(16);
        let mut routes = Routes::for_topology(&topo);
        for d in topo.cores() {
            let avoiding = routes.row_avoiding(&topo, 3, |_| false, d).to_vec();
            assert_eq!(avoiding, routes.row(&topo, d));
        }
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn disconnected_topology_rejected() {
        let _ = Routes::for_topology(&one_link(3));
    }

    /// Rows keyed by (epoch, destination) answer the same through any
    /// amount of eviction: every pair asked twice, base and epoch rows
    /// interleaved, on a pool of 8 rows for 64 destinations matches a pool
    /// that holds every row.
    #[test]
    fn evicted_rows_rebuild_to_the_same_answers() {
        for topo in [clustered_mesh(64, ClusterParams::paper(4)), mesh_2d(64)] {
            let dead = |l: LinkId| l.0.is_multiple_of(5);
            let mut small = Routes::with_capacity(&topo, MIN_ROWS);
            let mut whole = Routes::with_capacity(&topo, 2 * 64);
            for _ in 0..2 {
                for d in topo.cores() {
                    assert_eq!(small.row(&topo, d), whole.row(&topo, d), "to {d}");
                    assert_eq!(
                        small.row_avoiding(&topo, 7, dead, d),
                        whole.row_avoiding(&topo, 7, dead, d),
                        "to {d} in epoch 7"
                    );
                }
            }
            assert_eq!(small.slots.len(), MIN_ROWS);
            assert_eq!(whole.slots.len(), 2 * 64);
            // Every lookup of the small pool missed; the whole one built
            // each row once.
            assert_eq!((small.builds(), whole.builds()), (4 * 64, 2 * 64));
        }
    }

    /// A machine that routes nothing pays nothing: the reverse adjacency
    /// and the row pool appear with the first row, not with the routes.
    #[test]
    fn routes_build_nothing_until_queried() {
        let topo = ring(5000);
        let mut routes = Routes::for_topology(&topo);
        assert!(
            routes.head.is_empty() && routes.rows.is_empty(),
            "built at construction"
        );
        assert_eq!(routes.builds(), 0);
        let row = routes.row(&topo, CoreId(2));
        assert_eq!(Routes::path(&topo, row, CoreId(0)).count(), 2);
        assert_eq!(routes.head.len(), topo.n_cores() as usize);
        assert_eq!(routes.rows.len(), topo.n_cores() as usize);
        routes.row(&topo, CoreId(2));
        assert_eq!(routes.builds(), 1, "a resident row is not built again");
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn lazy_routes_reject_disconnected_topology_at_construction() {
        let _ = Routes::for_topology(&one_link(5000));
    }
}
