//! Deterministic minimal-latency routing.
//!
//! Messages traverse the interconnect hop by hop; the network model charges
//! every traversed link (paper §II.A: "the sum of all delays induced by all
//! the components traversed is added to a core's virtual time"). Routes are
//! fixed, minimal-total-latency paths with deterministic tie-breaking
//! (lowest next-hop id), computed once per topology: this mirrors the
//! deterministic (dimension-ordered-like) routing of real meshes and keeps
//! simulations reproducible.

use crate::graph::{CoreId, LinkId, Topology};
use simany_time::VDuration;
use std::collections::BinaryHeap;

/// All-pairs next-hop routing table.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    n: u32,
    /// `next_hop[dst][src]` = link to take from `src` toward `dst`
    /// (`u32::MAX` encodes "src == dst").
    next_hop: Vec<Vec<u32>>,
    /// `dist[dst][src]` = total path latency in ticks.
    dist: Vec<Vec<u64>>,
    /// Hop counts, same layout.
    hops: Vec<Vec<u32>>,
}

impl RoutingTable {
    /// Build the table with one shortest-route pass per destination, following
    /// reverse links (link latencies are symmetric per construction in the
    /// builders; for asymmetric topologies the route is minimal w.r.t. the
    /// forward direction because we relax over incoming links).
    pub fn build(topo: &Topology) -> Self {
        assert!(topo.is_connected(), "cannot route a disconnected topology");
        let n = topo.n_cores();
        let mut next_hop = Vec::with_capacity(n as usize);
        let mut dist = Vec::with_capacity(n as usize);
        let mut hops = Vec::with_capacity(n as usize);
        let rev = reverse_adjacency(topo, |_| true);
        let uniform = uniform_latency(topo);
        for dst in topo.cores() {
            let (nh, d, h) = routes_to(topo, &rev, dst, uniform);
            next_hop.push(nh);
            dist.push(d);
            hops.push(h);
        }
        RoutingTable {
            n,
            next_hop,
            dist,
            hops,
        }
    }

    /// Rebuild the table while avoiding every link flagged in `dead`
    /// (indexed by link id). Unlike [`RoutingTable::build`] this accepts a
    /// disconnected residual graph: the second return value is `true` when
    /// at least one ordered pair of cores has no surviving route (the
    /// machine is partitioned). Use [`RoutingTable::reachable`] before
    /// walking a route on a table built this way.
    pub fn build_avoiding(topo: &Topology, dead: &[bool]) -> (Self, bool) {
        assert_eq!(
            dead.len(),
            topo.n_links() as usize,
            "dead-link mask must cover every link"
        );
        let n = topo.n_cores();
        let mut next_hop = Vec::with_capacity(n as usize);
        let mut dist = Vec::with_capacity(n as usize);
        let mut hops = Vec::with_capacity(n as usize);
        let rev = reverse_adjacency(topo, |i| !dead[i]);
        let mut partitioned = false;
        let uniform = uniform_latency(topo);
        for dst in topo.cores() {
            let (nh, d, h) = routes_to(topo, &rev, dst, uniform);
            partitioned |= d.contains(&u64::MAX);
            next_hop.push(nh);
            dist.push(d);
            hops.push(h);
        }
        (
            RoutingTable {
                n,
                next_hop,
                dist,
                hops,
            },
            partitioned,
        )
    }

    /// True iff a route from `src` to `dst` exists in this table (always
    /// true for tables built with [`RoutingTable::build`], which asserts
    /// connectivity; may be false for [`RoutingTable::build_avoiding`]).
    #[inline]
    pub fn reachable(&self, src: CoreId, dst: CoreId) -> bool {
        self.dist[dst.index()][src.index()] != u64::MAX
    }

    /// The link to take from `src` toward `dst`; `None` when `src == dst`.
    #[inline]
    pub fn next_link(&self, src: CoreId, dst: CoreId) -> Option<LinkId> {
        let v = self.next_hop[dst.index()][src.index()];
        if v == u32::MAX {
            None
        } else {
            Some(LinkId(v))
        }
    }

    /// Total path latency from `src` to `dst` (sum of link latencies; no
    /// contention or serialization).
    #[inline]
    pub fn path_latency(&self, src: CoreId, dst: CoreId) -> VDuration {
        VDuration(self.dist[dst.index()][src.index()])
    }

    /// Number of hops on the route from `src` to `dst`.
    #[inline]
    pub fn path_hops(&self, src: CoreId, dst: CoreId) -> u32 {
        self.hops[dst.index()][src.index()]
    }

    /// Materialize the full route as a list of links.
    pub fn route(&self, topo: &Topology, src: CoreId, dst: CoreId) -> Vec<LinkId> {
        let mut out = Vec::with_capacity(self.path_hops(src, dst) as usize);
        let mut cur = src;
        while cur != dst {
            let link = self.next_link(cur, dst).expect("route must make progress");
            out.push(link);
            cur = topo.link(link).dst;
        }
        out
    }

    /// Weighted diameter: the largest path latency between any two cores.
    pub fn weighted_diameter(&self) -> VDuration {
        let mut max = 0u64;
        for row in &self.dist {
            for &v in row {
                max = max.max(v);
            }
        }
        VDuration(max)
    }

    /// Number of cores covered by this table.
    pub fn n_cores(&self) -> u32 {
        self.n
    }
}

/// Largest core count for which [`Routes::for_topology`] materializes the
/// dense all-pairs [`RoutingTable`]. Above this, the O(n²) table (16 bytes
/// per ordered pair) stops being viable — a 4096-core machine would already
/// need ~270 MB — and routing switches to [`LazyRoutes`], which computes
/// per-destination rows on demand. Both modes answer every query
/// identically (same sweep, same tie-breaking), so the threshold cannot
/// affect simulation results.
pub const DENSE_ROUTING_MAX: u32 = 2048;

/// Most recently used per-destination rows kept by [`LazyRoutes`]. Each row
/// is O(n); the cap bounds lazy-mode memory at `ROW_CACHE_CAP` rows.
const ROW_CACHE_CAP: usize = 8;

/// One per-destination routing row: for every source core, the outgoing
/// link toward the destination, the path latency and the hop count —
/// exactly one row of the dense [`RoutingTable`].
#[derive(Debug)]
struct RouteRow {
    next: Vec<u32>,
    dist: Vec<u64>,
    hops: Vec<u32>,
}

/// On-demand routing for topologies too large for the dense all-pairs
/// table: per-destination rows are computed with the *same* reverse-links
/// sweep (and the same deterministic tie-breaking) as
/// [`RoutingTable::build`], then kept in a small MRU cache. Query results
/// are bit-identical to the dense table's.
#[derive(Debug)]
pub struct LazyRoutes {
    n: u32,
    /// Reverse adjacency: incoming `(pred, link)` pairs per core, shared by
    /// every row computation. Built by the first row, so a run that never
    /// routes a message never pays for it.
    rev: std::sync::OnceLock<Vec<Vec<(CoreId, LinkId)>>>,
    /// [`uniform_latency`] of the topology, computed once.
    uniform: Option<u64>,
    cache: std::sync::Mutex<RowCache>,
}

#[derive(Debug, Default)]
struct RowCache {
    rows: std::collections::HashMap<u32, std::sync::Arc<RouteRow>>,
    /// Insertion order for FIFO eviction.
    order: std::collections::VecDeque<u32>,
}

impl LazyRoutes {
    /// Prepare lazy routing for `topo` (only checks connectivity; nothing
    /// is built until a route is first queried).
    pub fn new(topo: &Topology) -> Self {
        assert!(topo.is_connected(), "cannot route a disconnected topology");
        LazyRoutes {
            n: topo.n_cores(),
            rev: std::sync::OnceLock::new(),
            uniform: uniform_latency(topo),
            cache: std::sync::Mutex::new(RowCache::default()),
        }
    }

    fn row(&self, topo: &Topology, dst: CoreId) -> std::sync::Arc<RouteRow> {
        let mut cache = self.cache.lock().expect("route cache poisoned");
        if let Some(row) = cache.rows.get(&dst.0) {
            return std::sync::Arc::clone(row);
        }
        let rev = self.rev.get_or_init(|| reverse_adjacency(topo, |_| true));
        let (next, dist, hops) = routes_to(topo, rev, dst, self.uniform);
        let row = std::sync::Arc::new(RouteRow { next, dist, hops });
        if cache.order.len() >= ROW_CACHE_CAP {
            if let Some(evict) = cache.order.pop_front() {
                cache.rows.remove(&evict);
            }
        }
        cache.order.push_back(dst.0);
        cache.rows.insert(dst.0, std::sync::Arc::clone(&row));
        row
    }
}

/// Routing for a topology, in whichever representation its size calls for:
/// the dense all-pairs [`RoutingTable`] up to [`DENSE_ROUTING_MAX`] cores,
/// [`LazyRoutes`] beyond. Access queries through [`Routes::view`], which
/// pairs the representation with its topology.
#[derive(Debug)]
pub enum Routes {
    /// Dense all-pairs table (small machines).
    Dense(RoutingTable),
    /// On-demand per-destination rows (large machines).
    Lazy(LazyRoutes),
}

impl Routes {
    /// Pick the representation for `topo` by size. Both representations
    /// answer identically, so this choice is invisible to simulations.
    pub fn for_topology(topo: &Topology) -> Self {
        if topo.n_cores() <= DENSE_ROUTING_MAX {
            Routes::Dense(RoutingTable::build(topo))
        } else {
            Routes::Lazy(LazyRoutes::new(topo))
        }
    }

    /// A query view over these routes for `topo` (the topology they were
    /// built from).
    pub fn view<'a>(&'a self, topo: &'a Topology) -> RoutesView<'a> {
        match self {
            Routes::Dense(rt) => RoutesView {
                inner: ViewInner::Dense(rt),
            },
            Routes::Lazy(lz) => RoutesView {
                inner: ViewInner::Lazy(lz, topo),
            },
        }
    }
}

/// A borrowed query handle answering next-hop/latency/hops questions,
/// independent of the underlying representation. Obtained from
/// [`Routes::view`] or [`RoutesView::from_table`].
#[derive(Clone, Copy, Debug)]
pub struct RoutesView<'a> {
    inner: ViewInner<'a>,
}

#[derive(Clone, Copy, Debug)]
enum ViewInner<'a> {
    Dense(&'a RoutingTable),
    Lazy(&'a LazyRoutes, &'a Topology),
}

impl<'a> RoutesView<'a> {
    /// View a plain dense table (e.g. a fault epoch's rerouted table).
    pub fn from_table(rt: &'a RoutingTable) -> Self {
        RoutesView {
            inner: ViewInner::Dense(rt),
        }
    }

    /// The link to take from `src` toward `dst`; `None` when `src == dst`.
    pub fn next_link(&self, src: CoreId, dst: CoreId) -> Option<LinkId> {
        match self.inner {
            ViewInner::Dense(rt) => rt.next_link(src, dst),
            ViewInner::Lazy(lz, topo) => {
                if src == dst {
                    return None;
                }
                let v = lz.row(topo, dst).next[src.index()];
                if v == u32::MAX {
                    None
                } else {
                    Some(LinkId(v))
                }
            }
        }
    }

    /// Total path latency from `src` to `dst`.
    pub fn path_latency(&self, src: CoreId, dst: CoreId) -> VDuration {
        match self.inner {
            ViewInner::Dense(rt) => rt.path_latency(src, dst),
            ViewInner::Lazy(lz, topo) => VDuration(lz.row(topo, dst).dist[src.index()]),
        }
    }

    /// Number of hops on the route from `src` to `dst`.
    pub fn path_hops(&self, src: CoreId, dst: CoreId) -> u32 {
        match self.inner {
            ViewInner::Dense(rt) => rt.path_hops(src, dst),
            ViewInner::Lazy(lz, topo) => lz.row(topo, dst).hops[src.index()],
        }
    }

    /// True iff a route from `src` to `dst` exists.
    pub fn reachable(&self, src: CoreId, dst: CoreId) -> bool {
        match self.inner {
            ViewInner::Dense(rt) => rt.reachable(src, dst),
            ViewInner::Lazy(lz, topo) => lz.row(topo, dst).dist[src.index()] != u64::MAX,
        }
    }

    /// Number of cores covered.
    pub fn n_cores(&self) -> u32 {
        match self.inner {
            ViewInner::Dense(rt) => rt.n_cores(),
            ViewInner::Lazy(lz, _) => lz.n,
        }
    }
}

/// Reverse adjacency of `topo`: the incoming `(pred, link)` pairs of every
/// core, in link-id order, over the links whose index `live` accepts.
fn reverse_adjacency(topo: &Topology, live: impl Fn(usize) -> bool) -> Vec<Vec<(CoreId, LinkId)>> {
    let mut rev = vec![Vec::new(); topo.n_cores() as usize];
    for (i, l) in topo.links().iter().enumerate() {
        if live(i) {
            rev[l.dst.index()].push((l.src, LinkId(i as u32)));
        }
    }
    rev
}

/// The latency (in ticks) every link of `topo` has, if they all have the
/// same one — the uniform meshes, tori and rings; `None` for clustered or
/// chiplet machines, and for a topology without links.
fn uniform_latency(topo: &Topology) -> Option<u64> {
    let (first, rest) = topo.links().split_first()?;
    let w = first.latency.ticks();
    rest.iter().all(|l| l.latency.ticks() == w).then_some(w)
}

/// Routes from every core *to* `dst` over the incoming links in `rev`.
/// Returns, per source core: the outgoing link toward `dst`, the distance
/// in ticks, and the hop count. Ties broken by (hops, next-hop link id) for
/// determinism. `uniform` is [`uniform_latency`] of `topo`: with one
/// latency everywhere distance is hops times it, and a breadth-first sweep
/// gives the table Dijkstra would, without a heap.
fn routes_to(
    topo: &Topology,
    rev: &[Vec<(CoreId, LinkId)>],
    dst: CoreId,
    uniform: Option<u64>,
) -> (Vec<u32>, Vec<u64>, Vec<u32>) {
    match uniform {
        Some(w) => bfs_to(topo.n_cores() as usize, rev, dst, w),
        None => dijkstra_to(topo, rev, dst),
    }
}

/// [`routes_to`] when every link has latency `w` ticks. A core first
/// reached from level `h` is at `h + 1` hops; among its links into level
/// `h` — all seen before level `h + 1` is expanded — the lowest id wins,
/// which is exactly Dijkstra's (distance, hops, link id) order.
fn bfs_to(
    n: usize,
    rev: &[Vec<(CoreId, LinkId)>],
    dst: CoreId,
    w: u64,
) -> (Vec<u32>, Vec<u64>, Vec<u32>) {
    let mut dist = vec![u64::MAX; n];
    let mut hops = vec![u32::MAX; n];
    let mut next = vec![u32::MAX; n];
    dist[dst.index()] = 0;
    hops[dst.index()] = 0;
    let mut queue = Vec::with_capacity(n);
    queue.push(dst);
    let mut head = 0;
    while let Some(&c) = queue.get(head) {
        head += 1;
        let nh = hops[c.index()] + 1;
        for &(pred, link) in &rev[c.index()] {
            let p = pred.index();
            if hops[p] == u32::MAX {
                hops[p] = nh;
                dist[p] = u64::from(nh) * w;
                next[p] = link.0;
                queue.push(pred);
            } else if hops[p] == nh && link.0 < next[p] {
                next[p] = link.0;
            }
        }
    }
    (next, dist, hops)
}

/// [`routes_to`] for arbitrary link latencies: Dijkstra over
/// (distance, hops), settling ties on the lowest next-hop link id.
fn dijkstra_to(
    topo: &Topology,
    rev: &[Vec<(CoreId, LinkId)>],
    dst: CoreId,
) -> (Vec<u32>, Vec<u64>, Vec<u32>) {
    let n = topo.n_cores() as usize;
    let mut dist = vec![u64::MAX; n];
    let mut hops = vec![u32::MAX; n];
    let mut next = vec![u32::MAX; n];
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
        for &(pred, link) in &rev[c.index()] {
            let w = topo.link(link).latency.ticks();
            let nd = d + w;
            let nh = h + 1;
            let better = nd < dist[pred.index()]
                || (nd == dist[pred.index()] && nh < hops[pred.index()])
                || (nd == dist[pred.index()]
                    && nh == hops[pred.index()]
                    && link.0 < next[pred.index()]);
            if better {
                dist[pred.index()] = nd;
                hops[pred.index()] = nh;
                next[pred.index()] = link.0;
                heap.push(std::cmp::Reverse((nd, nh, pred.0)));
            }
        }
    }
    (next, dist, hops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{clustered_mesh, mesh_2d, ring, ClusterParams};

    /// The breadth-first sweep must be Dijkstra's table entry for entry:
    /// next-hop links (the tie-break), distances and hop counts, with and
    /// without dead links (a residual graph may be disconnected).
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
            let w = uniform_latency(&topo);
            assert_eq!(w.is_some(), topo.n_links() > 0, "builders use one latency");
            let n_links = topo.n_links() as usize;
            // No dead links; every third link dead; a cut isolating core 0.
            let cut: Vec<bool> = topo
                .links()
                .iter()
                .map(|l| l.src.0 == 0 || l.dst.0 == 0)
                .collect();
            let masks = [
                vec![false; n_links],
                (0..n_links).map(|i| i % 3 == 0).collect(),
                cut,
            ];
            for dead in masks {
                let rev = reverse_adjacency(&topo, |i| !dead[i]);
                for dst in topo.cores() {
                    assert_eq!(
                        routes_to(&topo, &rev, dst, w),
                        dijkstra_to(&topo, &rev, dst),
                        "{} cores, to {dst}",
                        topo.n_cores()
                    );
                }
            }
        }
        // Two latencies: not uniform, Dijkstra it is.
        assert_eq!(
            uniform_latency(&clustered_mesh(16, ClusterParams::paper(4))),
            None
        );
    }

    #[test]
    fn mesh_routes_are_minimal() {
        let topo = mesh_2d(16); // 4x4
        let rt = RoutingTable::build(&topo);
        // Opposite corners: 3+3 hops, 6 cycles at 1 cy/link.
        assert_eq!(rt.path_hops(CoreId(0), CoreId(15)), 6);
        assert_eq!(
            rt.path_latency(CoreId(0), CoreId(15)),
            VDuration::from_cycles(6)
        );
        assert_eq!(rt.path_hops(CoreId(5), CoreId(5)), 0);
        assert!(rt.next_link(CoreId(5), CoreId(5)).is_none());
    }

    #[test]
    fn route_materialization_is_valid() {
        let topo = mesh_2d(64);
        let rt = RoutingTable::build(&topo);
        for (s, d) in [(0u32, 63u32), (7, 56), (12, 12), (1, 62)] {
            let route = rt.route(&topo, CoreId(s), CoreId(d));
            assert_eq!(route.len() as u32, rt.path_hops(CoreId(s), CoreId(d)));
            let mut cur = CoreId(s);
            let mut total = VDuration::ZERO;
            for link in route {
                let props = topo.link(link);
                assert_eq!(props.src, cur, "route must chain");
                cur = props.dst;
                total += props.latency;
            }
            assert_eq!(cur, CoreId(d), "route must reach destination");
            assert_eq!(total, rt.path_latency(CoreId(s), CoreId(d)));
        }
    }

    #[test]
    fn routing_is_deterministic() {
        let topo = mesh_2d(36);
        let a = RoutingTable::build(&topo);
        let b = RoutingTable::build(&topo);
        for s in topo.cores() {
            for d in topo.cores() {
                assert_eq!(a.next_link(s, d), b.next_link(s, d));
            }
        }
    }

    #[test]
    fn clustered_routing_prefers_low_latency() {
        // On a clustered mesh, a path through the cluster interior (0.5
        // cy/link) can beat a hop-shorter path crossing boundaries (4 cy).
        let topo = clustered_mesh(64, ClusterParams::paper(4));
        let rt = RoutingTable::build(&topo);
        // Within one 4x4 tile: corner (0,0) to (3,3) = 6 fast hops = 3 cy.
        let inside = rt.path_latency(CoreId(0), CoreId(27)); // (3,3) = 3*8+3
        assert_eq!(inside, VDuration::from_cycles(3));
        // Crossing: (0,0) to (4,0) requires exactly one slow link plus three
        // fast hops along the row: 3 * 0.5 + 4 = 5.5 cycles.
        let crossing = rt.path_latency(CoreId(0), CoreId(4));
        assert_eq!(crossing, VDuration::from_half_cycles(11));
    }

    #[test]
    fn weighted_diameter_mesh() {
        let topo = mesh_2d(16);
        let rt = RoutingTable::build(&topo);
        assert_eq!(rt.weighted_diameter(), VDuration::from_cycles(6));
    }

    #[test]
    fn ring_routes_take_short_side() {
        let topo = ring(8);
        let rt = RoutingTable::build(&topo);
        assert_eq!(rt.path_hops(CoreId(0), CoreId(3)), 3);
        assert_eq!(rt.path_hops(CoreId(0), CoreId(5)), 3); // around the back
        assert_eq!(rt.path_hops(CoreId(0), CoreId(4)), 4);
    }

    #[test]
    fn build_avoiding_reroutes_around_dead_links() {
        let topo = mesh_2d(16); // 4x4
        let full = RoutingTable::build(&topo);
        // Kill both directions of the 0<->1 link: 0 -> 1 must detour.
        let mut dead = vec![false; topo.n_links() as usize];
        dead[topo.link_between(CoreId(0), CoreId(1)).unwrap().index()] = true;
        dead[topo.link_between(CoreId(1), CoreId(0)).unwrap().index()] = true;
        let (rt, partitioned) = RoutingTable::build_avoiding(&topo, &dead);
        assert!(!partitioned, "a mesh survives one dead link");
        assert!(rt.reachable(CoreId(0), CoreId(1)));
        assert_eq!(rt.path_hops(CoreId(0), CoreId(1)), 3); // 0-4-5-1
        assert!(rt.path_hops(CoreId(0), CoreId(1)) > full.path_hops(CoreId(0), CoreId(1)));
        for link in rt.route(&topo, CoreId(0), CoreId(1)) {
            assert!(!dead[link.index()], "route over a dead link");
        }
    }

    #[test]
    fn build_avoiding_reports_partition() {
        // A 4-ring with both directions of two opposite edges cut splits in
        // two.
        let topo = ring(4);
        let mut dead = vec![false; topo.n_links() as usize];
        for (u, v) in [(0u32, 1u32), (2, 3)] {
            dead[topo.link_between(CoreId(u), CoreId(v)).unwrap().index()] = true;
            dead[topo.link_between(CoreId(v), CoreId(u)).unwrap().index()] = true;
        }
        let (rt, partitioned) = RoutingTable::build_avoiding(&topo, &dead);
        assert!(partitioned);
        assert!(!rt.reachable(CoreId(0), CoreId(1)));
        assert!(rt.reachable(CoreId(1), CoreId(2)));
        assert!(rt.reachable(CoreId(0), CoreId(0)));
    }

    #[test]
    fn build_avoiding_nothing_matches_build() {
        let topo = mesh_2d(16);
        let full = RoutingTable::build(&topo);
        let dead = vec![false; topo.n_links() as usize];
        let (rt, partitioned) = RoutingTable::build_avoiding(&topo, &dead);
        assert!(!partitioned);
        for s in topo.cores() {
            for d in topo.cores() {
                assert_eq!(full.next_link(s, d), rt.next_link(s, d));
                assert!(rt.reachable(s, d));
            }
        }
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn disconnected_topology_rejected() {
        let mut t = Topology::new(3);
        t.add_default_link(CoreId(0), CoreId(1));
        let _ = RoutingTable::build(&t);
    }

    #[test]
    fn lazy_routes_match_dense_bit_exactly() {
        let topo = clustered_mesh(64, ClusterParams::paper(4));
        let dense = RoutingTable::build(&topo);
        let lazy = Routes::Lazy(LazyRoutes::new(&topo));
        let view = lazy.view(&topo);
        for s in topo.cores() {
            for d in topo.cores() {
                assert_eq!(view.next_link(s, d), dense.next_link(s, d));
                assert_eq!(view.path_latency(s, d), dense.path_latency(s, d));
                assert_eq!(view.path_hops(s, d), dense.path_hops(s, d));
                assert!(view.reachable(s, d));
            }
        }
    }

    #[test]
    fn lazy_row_cache_evicts_and_recomputes_consistently() {
        let topo = mesh_2d(64);
        let dense = RoutingTable::build(&topo);
        let lazy = Routes::for_topology(&topo); // small: dense
        assert!(matches!(lazy, Routes::Dense(_)));
        let lz = LazyRoutes::new(&topo);
        let routes = Routes::Lazy(lz);
        let view = routes.view(&topo);
        // Touch far more destinations than the cache cap, twice.
        for _ in 0..2 {
            for d in topo.cores() {
                assert_eq!(
                    view.path_latency(CoreId(0), d),
                    dense.path_latency(CoreId(0), d)
                );
            }
        }
    }

    #[test]
    fn for_topology_switches_representation_by_size() {
        assert!(matches!(
            Routes::for_topology(&mesh_2d(16)),
            Routes::Dense(_)
        ));
        assert!(matches!(
            Routes::for_topology(&ring(DENSE_ROUTING_MAX + 1)),
            Routes::Lazy(_)
        ));
    }

    /// A machine that routes nothing pays nothing: the reverse adjacency
    /// appears with the first row, not with the routes.
    #[test]
    fn lazy_routes_build_nothing_until_queried() {
        let topo = ring(DENSE_ROUTING_MAX + 1);
        let routes = Routes::for_topology(&topo);
        let Routes::Lazy(lz) = &routes else {
            panic!("a ring above DENSE_ROUTING_MAX routes lazily");
        };
        assert!(lz.rev.get().is_none(), "built at construction");
        assert_eq!(routes.view(&topo).path_hops(CoreId(0), CoreId(2)), 2);
        assert_eq!(lz.rev.get().map(Vec::len), Some(topo.n_cores() as usize));
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn lazy_routes_reject_disconnected_topology_at_construction() {
        let mut t = Topology::new(DENSE_ROUTING_MAX + 1);
        t.add_default_link(CoreId(0), CoreId(1));
        let _ = LazyRoutes::new(&t);
    }
}
