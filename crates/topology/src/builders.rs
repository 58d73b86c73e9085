//! Ready-made topology shapes.
//!
//! The paper's experiments use uniform 2D meshes of 8, 64, 256 and 1024
//! cores, clustered variants with 4 or 8 clusters, and polymorphic meshes
//! (which reuse the mesh shape and differ only in per-core speed, see
//! `simany_time::CoreSpeed`). A handful of extra classic shapes (torus,
//! ring, star, hypercube, fully-connected) round out the exploration space —
//! the paper stresses that "SiMany can handle arbitrary network
//! organizations".
//!
//! Every builder is a link generator run by [`Topology::generate`]: it
//! hands its connections to the [`LinkSink`] in [`Topology::add_link`]
//! order (`a -> b`, then `b -> a`, connection by connection), so link ids
//! are those of a link-by-link build while each link is written straight
//! into its adjacency row.

use crate::graph::{CoreId, LinkSink, Topology, DEFAULT_LINK_BANDWIDTH, DEFAULT_LINK_LATENCY};
use simany_time::VDuration;

/// [`LinkSink::connect`] with the paper's default latency and bandwidth.
fn connect_default(links: &mut LinkSink, a: CoreId, b: CoreId) {
    links.connect(a, b, DEFAULT_LINK_LATENCY, DEFAULT_LINK_BANDWIDTH);
}

/// Nearly square factorization of `n`: `(w, h)` with `w * h == n` and
/// `w >= h`, `w - h` minimal. Used to lay out `n`-core meshes even when `n`
/// is not a perfect square (e.g. 8 cores -> 4×2).
pub fn mesh_dims(n: u32) -> (u32, u32) {
    assert!(n > 0);
    let mut best = (n, 1);
    let mut h = 1;
    while h * h <= n {
        if n.is_multiple_of(h) {
            best = (n / h, h);
        }
        h += 1;
    }
    best
}

/// Uniform 2D mesh of `n` cores with default link parameters (1-cycle
/// latency, 128 B/cy). `n` is factored into the most-square grid.
pub fn mesh_2d(n: u32) -> Topology {
    mesh_2d_with(n, DEFAULT_LINK_LATENCY, DEFAULT_LINK_BANDWIDTH)
}

/// Uniform 2D mesh with explicit link parameters.
pub fn mesh_2d_with(n: u32, latency: VDuration, bandwidth: u32) -> Topology {
    let (w, h) = mesh_dims(n);
    let id = |x: u32, y: u32| CoreId(y * w + x);
    Topology::generate(n, |links| {
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    links.connect(id(x, y), id(x + 1, y), latency, bandwidth);
                }
                if y + 1 < h {
                    links.connect(id(x, y), id(x, y + 1), latency, bandwidth);
                }
            }
        }
    })
}

/// 2D torus (mesh with wrap-around links).
pub fn torus_2d(n: u32) -> Topology {
    let (w, h) = mesh_dims(n);
    let id = |x: u32, y: u32| CoreId(y * w + x);
    Topology::generate(n, |links| {
        for y in 0..h {
            for x in 0..w {
                // A wrap link is a self-loop along a side of 1 and repeats
                // the side's only link along a side of 2: both are left out.
                if x + 1 < w || w > 2 {
                    connect_default(links, id(x, y), id((x + 1) % w, y));
                }
                if y + 1 < h || h > 2 {
                    connect_default(links, id(x, y), id(x, (y + 1) % h));
                }
            }
        }
    })
}

/// Bidirectional ring of `n` cores.
pub fn ring(n: u32) -> Topology {
    assert!(n >= 2, "a ring needs at least two cores");
    Topology::generate(n, |links| {
        for i in 0..n {
            // On two cores the wrap link would repeat the only link.
            if i + 1 < n || n > 2 {
                connect_default(links, CoreId(i), CoreId((i + 1) % n));
            }
        }
    })
}

/// Star: core 0 is the hub, all others are leaves.
pub fn star(n: u32) -> Topology {
    assert!(n >= 2, "a star needs at least two cores");
    Topology::generate(n, |links| {
        for i in 1..n {
            connect_default(links, CoreId(0), CoreId(i));
        }
    })
}

/// Fully connected graph (every pair directly linked).
pub fn fully_connected(n: u32) -> Topology {
    Topology::generate(n, |links| {
        for a in 0..n {
            for b in (a + 1)..n {
                connect_default(links, CoreId(a), CoreId(b));
            }
        }
    })
}

/// Hypercube of dimension `dim` (`2^dim` cores).
pub fn hypercube(dim: u32) -> Topology {
    assert!(dim <= 16, "hypercube dimension too large");
    let n = 1u32 << dim;
    Topology::generate(n, |links| {
        for a in 0..n {
            for bit in 0..dim {
                let b = a ^ (1 << bit);
                if a < b {
                    connect_default(links, CoreId(a), CoreId(b));
                }
            }
        }
    })
}

/// Nearly cubic factorization of `n`: `(x, y, z)` with `x·y·z == n`,
/// minimizing the largest dimension.
pub fn mesh_dims_3d(n: u32) -> (u32, u32, u32) {
    assert!(n > 0);
    let mut best = (n, 1, 1);
    let score = |d: (u32, u32, u32)| d.0.max(d.1).max(d.2);
    let mut a = 1;
    while a * a * a <= n {
        if n.is_multiple_of(a) {
            let rest = n / a;
            let mut b = a;
            while b * b <= rest {
                if rest.is_multiple_of(b) {
                    let cand = (rest / b, b, a);
                    if score(cand) < score(best) {
                        best = cand;
                    }
                }
                b += 1;
            }
        }
        a += 1;
    }
    best
}

/// Uniform 3D mesh of `n` cores (default link parameters). Many-core
/// proposals beyond the paper's 2D meshes commonly assume stacked 3D
/// grids; `n` is factored into the most-cubic shape.
pub fn mesh_3d(n: u32) -> Topology {
    let (w, h, d) = mesh_dims_3d(n);
    let id = |x: u32, y: u32, z: u32| CoreId(z * w * h + y * w + x);
    Topology::generate(n, |links| {
        for z in 0..d {
            for y in 0..h {
                for x in 0..w {
                    if x + 1 < w {
                        connect_default(links, id(x, y, z), id(x + 1, y, z));
                    }
                    if y + 1 < h {
                        connect_default(links, id(x, y, z), id(x, y + 1, z));
                    }
                    if z + 1 < d {
                        connect_default(links, id(x, y, z), id(x, y, z + 1));
                    }
                }
            }
        }
    })
}

/// Parameters for clustered meshes (paper §V, *Architecture Exploration*).
///
/// The paper splits the same number of cores into 4 or 8 clusters; links
/// *between* clusters are slow (4× the base latency = 4 cycles) while links
/// *inside* a cluster are fast (half a cycle).
#[derive(Clone, Copy, Debug)]
pub struct ClusterParams {
    /// Number of clusters; must divide the core count.
    pub n_clusters: u32,
    /// Latency of links inside a cluster (default: 0.5 cycles).
    pub intra_latency: VDuration,
    /// Latency of links between clusters (default: 4 cycles).
    pub inter_latency: VDuration,
    /// Bandwidth of every link (default: 128 B/cy).
    pub bandwidth: u32,
}

impl ClusterParams {
    /// The paper's parameters with the given number of clusters.
    pub fn paper(n_clusters: u32) -> Self {
        ClusterParams {
            n_clusters,
            intra_latency: VDuration::from_half_cycles(1),
            inter_latency: VDuration::from_cycles(4),
            bandwidth: DEFAULT_LINK_BANDWIDTH,
        }
    }
}

/// Clustered 2D mesh: `n` cores arranged as a global 2D mesh whose links are
/// classified as intra- or inter-cluster.
///
/// Clusters are contiguous sub-meshes: the global `w × h` grid is cut into a
/// `cw × ch` grid of cluster tiles. A mesh link whose endpoints fall in the
/// same tile gets `intra_latency`; a link crossing a tile boundary gets
/// `inter_latency`. This preserves the paper's setup: same core count and
/// mesh shape as the uniform machine, only link latencies change.
pub fn clustered_mesh(n: u32, params: ClusterParams) -> Topology {
    let (tile_w, tile_h) = cluster_tiles(n, params.n_clusters).unwrap_or_else(|e| panic!("{e}"));
    let (w, h) = mesh_dims(n);
    let cw = w / tile_w;
    let cluster_of = |x: u32, y: u32| (y / tile_h) * cw + (x / tile_w);

    let id = |x: u32, y: u32| CoreId(y * w + x);
    let connect = |links: &mut LinkSink, x0: u32, y0: u32, x1: u32, y1: u32| {
        let lat = if cluster_of(x0, y0) == cluster_of(x1, y1) {
            params.intra_latency
        } else {
            params.inter_latency
        };
        links.connect(id(x0, y0), id(x1, y1), lat, params.bandwidth);
    };
    Topology::generate(n, |links| {
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    connect(links, x, y, x + 1, y);
                }
                if y + 1 < h {
                    connect(links, x, y, x, y + 1);
                }
            }
        }
    })
}

/// Cluster index of each core for a `clustered_mesh` with the same
/// parameters (useful for schedulers and reporting).
pub fn cluster_assignment(n: u32, n_clusters: u32) -> Vec<u32> {
    let (tile_w, tile_h) = cluster_tiles(n, n_clusters).unwrap_or_else(|e| panic!("{e}"));
    let (w, h) = mesh_dims(n);
    let cw = w / tile_w;
    let mut out = Vec::with_capacity(n as usize);
    for y in 0..h {
        for x in 0..w {
            out.push((y / tile_h) * cw + (x / tile_w));
        }
    }
    out
}

/// The tile, `(width, height)` in cores, that each of `n_clusters`
/// clusters covers in an `n`-core [`clustered_mesh`] — or why that
/// machine cannot be built: the cluster count must divide the core count,
/// and the cluster grid (`mesh_dims(n_clusters)`) must tile the mesh
/// (`mesh_dims(n)`).
pub fn cluster_tiles(n: u32, n_clusters: u32) -> Result<(u32, u32), String> {
    if n_clusters == 0 || !n.is_multiple_of(n_clusters) {
        return Err(format!(
            "cluster count {n_clusters} must divide core count {n}"
        ));
    }
    let (w, h) = mesh_dims(n);
    let (cw, ch) = mesh_dims(n_clusters);
    if !w.is_multiple_of(cw) || !h.is_multiple_of(ch) {
        return Err(format!("cluster grid {cw}x{ch} must tile mesh {w}x{h}"));
    }
    Ok((w / cw, h / ch))
}

/// Parameters for multi-chip hierarchical topologies ([`chiplet_mesh`],
/// [`cluster_of_clusters`]): the latency/bandwidth contrast between on-chip
/// wires and the slower, narrower links that cross a chiplet or package
/// boundary.
#[derive(Clone, Copy, Debug)]
pub struct ChipletParams {
    /// Latency of links inside one chiplet (default: 1 cycle).
    pub intra_latency: VDuration,
    /// Latency of links between adjacent chiplets (default: 4 cycles).
    pub inter_latency: VDuration,
    /// Bandwidth of on-chip links (default: 128 B/cy).
    pub intra_bandwidth: u32,
    /// Bandwidth of inter-chip links (default: 32 B/cy — crossing a package
    /// boundary is both slower and narrower).
    pub inter_bandwidth: u32,
}

impl Default for ChipletParams {
    fn default() -> Self {
        ChipletParams {
            intra_latency: DEFAULT_LINK_LATENCY,
            inter_latency: VDuration::from_cycles(4),
            intra_bandwidth: DEFAULT_LINK_BANDWIDTH,
            inter_bandwidth: 32,
        }
    }
}

/// Hierarchical multi-chip mesh: a `chips_x × chips_y` grid of chiplets,
/// each an internal `chip_w × chip_h` mesh, joined by slower inter-chip
/// links between facing border cores.
///
/// Core ids are chip-major (all cores of chiplet 0, then chiplet 1, ...),
/// so each chiplet occupies a contiguous id range; within a chiplet, local
/// ids are row-major. The chiplet index is attached as the core's region
/// (see [`Topology::set_regions`]), which lets the BFS partitioner keep
/// host-parallel tiles from straddling chiplet boundaries.
pub fn chiplet_mesh(
    chips_x: u32,
    chips_y: u32,
    chip_w: u32,
    chip_h: u32,
    params: ChipletParams,
) -> Topology {
    assert!(chips_x > 0 && chips_y > 0, "need at least one chiplet");
    assert!(chip_w > 0 && chip_h > 0, "chiplets need at least one core");
    let per_chip = chip_w * chip_h;
    let n = chips_x * chips_y * per_chip;
    let chip = |cx: u32, cy: u32| cy * chips_x + cx;
    let id = |cx: u32, cy: u32, x: u32, y: u32| CoreId(chip(cx, cy) * per_chip + y * chip_w + x);
    let (intra, inter) = (params.intra_latency, params.inter_latency);
    let (intra_bw, inter_bw) = (params.intra_bandwidth, params.inter_bandwidth);
    let mut t = Topology::generate(n, |links| {
        for cy in 0..chips_y {
            for cx in 0..chips_x {
                // Internal mesh of this chiplet.
                for y in 0..chip_h {
                    for x in 0..chip_w {
                        let here = id(cx, cy, x, y);
                        if x + 1 < chip_w {
                            links.connect(here, id(cx, cy, x + 1, y), intra, intra_bw);
                        }
                        if y + 1 < chip_h {
                            links.connect(here, id(cx, cy, x, y + 1), intra, intra_bw);
                        }
                    }
                }
                // Inter-chip links between facing borders.
                if cx + 1 < chips_x {
                    for y in 0..chip_h {
                        let (a, b) = (id(cx, cy, chip_w - 1, y), id(cx + 1, cy, 0, y));
                        links.connect(a, b, inter, inter_bw);
                    }
                }
                if cy + 1 < chips_y {
                    for x in 0..chip_w {
                        let (a, b) = (id(cx, cy, x, chip_h - 1), id(cx, cy + 1, x, 0));
                        links.connect(a, b, inter, inter_bw);
                    }
                }
            }
        }
    });
    let regions = (0..n).map(|i| i / per_chip).collect();
    t.set_regions(regions);
    t
}

/// Parameters for [`cluster_of_clusters`]: link latency at each level of
/// the hierarchy.
#[derive(Clone, Copy, Debug)]
pub struct HierarchyParams {
    /// Latency inside a leaf cluster (default: 0.5 cycles).
    pub intra_latency: VDuration,
    /// Latency between leaf clusters of the same group (default: 4 cycles).
    pub mid_latency: VDuration,
    /// Latency between groups (default: 16 cycles).
    pub outer_latency: VDuration,
    /// Bandwidth of every link (default: 128 B/cy).
    pub bandwidth: u32,
}

impl Default for HierarchyParams {
    fn default() -> Self {
        HierarchyParams {
            intra_latency: VDuration::from_half_cycles(1),
            mid_latency: VDuration::from_cycles(4),
            outer_latency: VDuration::from_cycles(16),
            bandwidth: DEFAULT_LINK_BANDWIDTH,
        }
    }
}

/// Cluster-of-clusters: `groups × leaves_per_group` leaf clusters, each an
/// internal mesh of `cores_per_leaf` cores. Within a group, the hub core
/// (local id 0) of every leaf is fully connected to every other leaf's hub
/// at `mid_latency`; the hub of each group's first leaf is fully connected
/// to the other group hubs at `outer_latency`.
///
/// Core ids are leaf-major (contiguous per leaf), and the leaf index is
/// attached as the core's region, so partition tiles respect leaf-cluster
/// boundaries exactly as for [`chiplet_mesh`].
pub fn cluster_of_clusters(
    groups: u32,
    leaves_per_group: u32,
    cores_per_leaf: u32,
    params: HierarchyParams,
) -> Topology {
    assert!(groups > 0 && leaves_per_group > 0, "empty hierarchy");
    assert!(cores_per_leaf > 0, "leaves need at least one core");
    let n_leaves = groups * leaves_per_group;
    let n = n_leaves * cores_per_leaf;
    let leaf_base = |g: u32, l: u32| (g * leaves_per_group + l) * cores_per_leaf;
    let (w, h) = mesh_dims(cores_per_leaf);
    let bw = params.bandwidth;
    let mut t = Topology::generate(n, |links| {
        // Leaf-internal meshes.
        for leaf in 0..n_leaves {
            let base = leaf * cores_per_leaf;
            let id = |x: u32, y: u32| CoreId(base + y * w + x);
            for y in 0..h {
                for x in 0..w {
                    if x + 1 < w {
                        links.connect(id(x, y), id(x + 1, y), params.intra_latency, bw);
                    }
                    if y + 1 < h {
                        links.connect(id(x, y), id(x, y + 1), params.intra_latency, bw);
                    }
                }
            }
        }
        // Mid level: leaf hubs fully connected within each group.
        for g in 0..groups {
            for a in 0..leaves_per_group {
                for b in (a + 1)..leaves_per_group {
                    let (a, b) = (CoreId(leaf_base(g, a)), CoreId(leaf_base(g, b)));
                    links.connect(a, b, params.mid_latency, bw);
                }
            }
        }
        // Outer level: group hubs fully connected.
        for a in 0..groups {
            for b in (a + 1)..groups {
                let (a, b) = (CoreId(leaf_base(a, 0)), CoreId(leaf_base(b, 0)));
                links.connect(a, b, params.outer_latency, bw);
            }
        }
    });
    let regions = (0..n).map(|i| i / cores_per_leaf).collect();
    t.set_regions(regions);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LinkProps;

    #[test]
    fn mesh_dims_square_and_rectangular() {
        assert_eq!(mesh_dims(64), (8, 8));
        assert_eq!(mesh_dims(8), (4, 2));
        assert_eq!(mesh_dims(1024), (32, 32));
        assert_eq!(mesh_dims(256), (16, 16));
        assert_eq!(mesh_dims(1), (1, 1));
        assert_eq!(mesh_dims(7), (7, 1));
    }

    /// The torus as it was built before the flat adjacency: link by link,
    /// skipping a wrap link that would be a self-loop or repeat a link.
    fn torus_link_by_link(n: u32) -> Topology {
        let (w, h) = mesh_dims(n);
        let mut t = Topology::new(n);
        let id = |x: u32, y: u32| CoreId(y * w + x);
        for y in 0..h {
            for x in 0..w {
                for next in [id((x + 1) % w, y), id(x, (y + 1) % h)] {
                    if next != id(x, y) && !t.are_neighbors(id(x, y), next) {
                        t.add_default_link(id(x, y), next);
                    }
                }
            }
        }
        t
    }

    /// The ring as it was built before the flat adjacency.
    fn ring_link_by_link(n: u32) -> Topology {
        let mut t = Topology::new(n);
        for i in 0..n {
            let next = CoreId((i + 1) % n);
            if !t.are_neighbors(CoreId(i), next) {
                t.add_default_link(CoreId(i), next);
            }
        }
        t
    }

    fn assert_same_graph(got: &Topology, want: &Topology) {
        assert_eq!(got.n_cores(), want.n_cores());
        assert!(got.links().eq(want.links()));
        for c in got.cores() {
            assert_eq!(got.neighbors(c), want.neighbors(c), "{c}");
        }
    }

    /// Every builder's one-pass topology equals feeding its connections,
    /// in order, through `Topology::new` + `add_link`; the torus and the
    /// ring, whose small sides drop wrap links, also equal their old
    /// link-by-link construction.
    #[test]
    fn builders_match_incremental_construction() {
        let mut built = Vec::new();
        for n in [1, 8, 12] {
            built.push(mesh_2d(n));
            built.push(mesh_3d(n));
            built.push(fully_connected(n));
        }
        built.push(mesh_2d_with(6, VDuration::from_cycles(3), 16));
        for n in [1, 2, 3, 4, 6, 9, 16] {
            let t = torus_2d(n);
            assert_same_graph(&t, &torus_link_by_link(n));
            built.push(t);
        }
        for n in [2, 3, 5] {
            let t = ring(n);
            assert_same_graph(&t, &ring_link_by_link(n));
            built.push(t);
            built.push(star(n));
        }
        for dim in [0, 1, 3] {
            built.push(hypercube(dim));
        }
        built.push(clustered_mesh(16, ClusterParams::paper(4)));
        built.push(clustered_mesh(32, ClusterParams::paper(8)));
        built.push(chiplet_mesh(1, 1, 1, 1, ChipletParams::default()));
        built.push(chiplet_mesh(2, 1, 3, 2, ChipletParams::default()));
        built.push(chiplet_mesh(2, 2, 4, 4, ChipletParams::default()));
        built.push(cluster_of_clusters(1, 1, 1, HierarchyParams::default()));
        built.push(cluster_of_clusters(2, 3, 4, HierarchyParams::default()));
        built.push(cluster_of_clusters(3, 2, 16, HierarchyParams::default()));
        for t in &built {
            let mut inc = Topology::new(t.n_cores());
            for pair in t.links().collect::<Vec<_>>().chunks(2) {
                let l = pair[0];
                assert_eq!(
                    pair[1],
                    LinkProps {
                        src: l.dst,
                        dst: l.src,
                        ..l
                    }
                );
                inc.add_link(l.src, l.dst, l.latency, l.bandwidth_bytes_per_cycle);
            }
            assert_same_graph(t, &inc);
        }
    }

    #[test]
    fn mesh_2d_structure() {
        let t = mesh_2d(64);
        assert_eq!(t.n_cores(), 64);
        // 2*w*h - w - h undirected edges, times 2 directions.
        assert_eq!(t.n_links(), 2 * (2 * 64 - 8 - 8));
        assert!(t.is_connected());
        // Mesh diameter = (w-1) + (h-1).
        assert_eq!(t.diameter_hops(), 14);
        // Corner degree 2, center degree 4.
        assert_eq!(t.degree(CoreId(0)), 2);
        assert_eq!(t.degree(CoreId(9)), 4);
    }

    #[test]
    fn rectangular_mesh_8_cores() {
        let t = mesh_2d(8); // 4x2
        assert!(t.is_connected());
        assert_eq!(t.diameter_hops(), 4);
    }

    #[test]
    fn torus_has_no_corners() {
        let t = torus_2d(16); // 4x4
        assert!(t.is_connected());
        for c in t.cores() {
            assert_eq!(t.degree(c), 4);
        }
        assert_eq!(t.diameter_hops(), 4); // 2+2
    }

    #[test]
    fn ring_structure() {
        let t = ring(8);
        assert!(t.is_connected());
        for c in t.cores() {
            assert_eq!(t.degree(c), 2);
        }
        assert_eq!(t.diameter_hops(), 4);
        // Tiny ring of 2 degenerates into a single pair.
        let t2 = ring(2);
        assert_eq!(t2.degree(CoreId(0)), 1);
    }

    #[test]
    fn star_structure() {
        let t = star(9);
        assert_eq!(t.degree(CoreId(0)), 8);
        for i in 1..9 {
            assert_eq!(t.degree(CoreId(i)), 1);
        }
        assert_eq!(t.diameter_hops(), 2);
    }

    #[test]
    fn fully_connected_diameter_one() {
        let t = fully_connected(6);
        assert_eq!(t.diameter_hops(), 1);
        assert_eq!(t.n_links(), 6 * 5);
    }

    #[test]
    fn hypercube_structure() {
        let t = hypercube(4);
        assert_eq!(t.n_cores(), 16);
        for c in t.cores() {
            assert_eq!(t.degree(c), 4);
        }
        assert_eq!(t.diameter_hops(), 4);
    }

    #[test]
    fn mesh_3d_structure() {
        assert_eq!(mesh_dims_3d(64), (4, 4, 4));
        assert_eq!(mesh_dims_3d(8), (2, 2, 2));
        assert_eq!(mesh_dims_3d(12), (3, 2, 2));
        let t = mesh_3d(64);
        assert!(t.is_connected());
        // 4x4x4 mesh: diameter 3+3+3 = 9 (vs 14 for the 8x8 2D mesh).
        assert_eq!(t.diameter_hops(), 9);
        // Corner degree 3, interior degree 6.
        assert_eq!(t.degree(CoreId(0)), 3);
        let interior = CoreId(16 + 4 + 1); // (1,1,1)
        assert_eq!(t.degree(interior), 6);
        // Undirected edges: 3 * 4^2 * 3 = 144; directed = 288.
        assert_eq!(t.n_links(), 288);
    }

    #[test]
    fn clustered_mesh_latencies() {
        let t = clustered_mesh(64, ClusterParams::paper(4));
        assert!(t.is_connected());
        assert_eq!(t.n_links(), mesh_2d(64).n_links());
        // Count fast and slow links.
        let fast = t
            .links()
            .filter(|l| l.latency == VDuration::from_half_cycles(1))
            .count();
        let slow = t
            .links()
            .filter(|l| l.latency == VDuration::from_cycles(4))
            .count();
        assert_eq!(fast + slow, t.n_links() as usize);
        // 4 clusters on an 8x8 mesh: each 4x4 tile has 24 internal undirected
        // edges => 96 fast links per tile-set = 4*24*2 = 192 directed fast.
        assert_eq!(fast, 192);
        // Boundary: 8 vertical + 8 horizontal crossing edges = 16 undirected.
        assert_eq!(slow, 32);
    }

    #[test]
    fn cluster_assignment_partitions_evenly() {
        let assign = cluster_assignment(64, 4);
        for k in 0..4 {
            assert_eq!(assign.iter().filter(|&&c| c == k).count(), 16);
        }
    }

    #[test]
    fn clustered_mesh_8_clusters() {
        let t = clustered_mesh(1024, ClusterParams::paper(8));
        assert!(t.is_connected());
        let assign = cluster_assignment(1024, 8);
        for k in 0..8 {
            assert_eq!(assign.iter().filter(|&&c| c == k).count(), 128);
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn clustered_mesh_rejects_bad_cluster_count() {
        clustered_mesh(10, ClusterParams::paper(3));
    }

    #[test]
    fn cluster_tiles_names_what_does_not_fit() {
        assert_eq!(cluster_tiles(64, 4), Ok((4, 4)));
        assert_eq!(cluster_tiles(1024, 8), Ok((8, 16)));
        assert!(cluster_tiles(16, 0).unwrap_err().contains("must divide"));
        assert!(cluster_tiles(10, 3).unwrap_err().contains("must divide"));
        // 12 cores are a 4x3 mesh; 4 clusters a 2x2 grid, which cannot cut
        // 3 rows evenly.
        assert_eq!(
            cluster_tiles(12, 4),
            Err("cluster grid 2x2 must tile mesh 4x3".to_string())
        );
    }

    #[test]
    fn chiplet_mesh_structure() {
        // 2x2 chiplets of 4x4 cores = 64 cores, 4 regions.
        let t = chiplet_mesh(2, 2, 4, 4, ChipletParams::default());
        assert_eq!(t.n_cores(), 64);
        assert!(t.is_connected());
        assert_eq!(t.n_regions(), 4);
        // Chip-major contiguous regions.
        assert_eq!(t.region_of(CoreId(0)), Some(0));
        assert_eq!(t.region_of(CoreId(15)), Some(0));
        assert_eq!(t.region_of(CoreId(16)), Some(1));
        assert_eq!(t.region_of(CoreId(63)), Some(3));
        // Every link within one region is intra, every cross-region link is
        // inter (slower and narrower).
        let p = ChipletParams::default();
        for l in t.links() {
            if t.region_of(l.src) == t.region_of(l.dst) {
                assert_eq!(l.latency, p.intra_latency);
                assert_eq!(l.bandwidth_bytes_per_cycle, p.intra_bandwidth);
            } else {
                assert_eq!(l.latency, p.inter_latency);
                assert_eq!(l.bandwidth_bytes_per_cycle, p.inter_bandwidth);
            }
        }
        // Inter-chip undirected edges: 2 horizontal seams x 4 rows + 2
        // vertical seams x 4 cols = 16; times 2 directions = 32 links.
        let inter = t
            .links()
            .filter(|l| t.region_of(l.src) != t.region_of(l.dst))
            .count();
        assert_eq!(inter, 32);
    }

    #[test]
    fn cluster_of_clusters_structure() {
        let t = cluster_of_clusters(2, 3, 16, HierarchyParams::default());
        assert_eq!(t.n_cores(), 96);
        assert!(t.is_connected());
        assert_eq!(t.n_regions(), 6);
        let p = HierarchyParams::default();
        // Hub-to-hub latencies at each level.
        let mid = t.link_between(CoreId(0), CoreId(16)).unwrap();
        assert_eq!(t.link(mid).latency, p.mid_latency);
        let outer = t.link_between(CoreId(0), CoreId(48)).unwrap();
        assert_eq!(t.link(outer).latency, p.outer_latency);
        // Leaf interiors are fast.
        let intra = t.link_between(CoreId(1), CoreId(2)).unwrap();
        assert_eq!(t.link(intra).latency, p.intra_latency);
    }
}
