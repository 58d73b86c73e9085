//! Topology partitioning into contiguous *tiles*.
//!
//! Nothing in the simulator calls this; the benchmark's construction probe
//! times it. Contiguity is the point of a tile: spatial synchronization is
//! purely local, so cores deep inside a tile interact only with cores of
//! the same tile, and cross-tile effects are confined to the tile
//! boundary.
//!
//! The partitioner cuts a BFS order of the adjacency into equal-size
//! chunks. BFS from core 0 keeps each chunk connected on meshes and tori
//! (a strip partition), degrades gracefully on irregular graphs, and is
//! fully deterministic: neighbor lists are sorted, so the visit order — and
//! therefore the partition — depends only on the topology and the tile
//! count.

use crate::graph::{CoreId, Topology};
use std::collections::VecDeque;

/// A partition of a topology's cores into `n_tiles` contiguous tiles.
#[derive(Clone, Debug)]
pub struct Partition {
    tile_of: Vec<u32>,
    tiles: Vec<Vec<CoreId>>,
    boundary: Vec<bool>,
}

impl Partition {
    /// Number of tiles.
    pub fn n_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Tile index of `core`.
    pub fn tile_of(&self, core: CoreId) -> usize {
        self.tile_of[core.index()] as usize
    }

    /// The cores of tile `t`, in BFS order.
    pub fn tile(&self, t: usize) -> &[CoreId] {
        &self.tiles[t]
    }

    /// True iff `core` has a topological neighbor in a different tile.
    ///
    /// O(1): the partitioner precomputes a boundary bitmap, so the hot
    /// paths of the parallel engine (per-message tile routing, publish
    /// gating) never rescan adjacency lists. The `topo` argument is kept
    /// for API stability and consistency checking in debug builds.
    pub fn is_boundary(&self, topo: &Topology, core: CoreId) -> bool {
        debug_assert_eq!(
            self.boundary[core.index()],
            topo.neighbors(core)
                .iter()
                .any(|&(n, _)| self.tile_of[n.index()] != self.tile_of[core.index()]),
            "boundary bitmap out of sync with the topology"
        );
        let _ = topo;
        self.boundary[core.index()]
    }

    /// Number of boundary cores (cores with a neighbor in another tile) —
    /// the surface area the parallel engine's cross-tile machinery pays
    /// for. Interior cores take none of the phase-B replay cost.
    pub fn boundary_count(&self) -> usize {
        self.boundary.iter().filter(|&&b| b).count()
    }
}

/// Partition `topo` into (at most) `n_tiles` contiguous tiles by cutting a
/// BFS order into balanced chunks. `n_tiles` is clamped to the core count;
/// requesting zero tiles yields one. Tile sizes differ by at most one.
/// Disconnected topologies are handled by restarting the BFS from the
/// lowest-numbered unvisited core.
///
/// When the topology carries region metadata (see
/// [`Topology::set_regions`]) and more than one tile is requested, the
/// partition is region-aware: with `n_tiles >= n_regions` every tile lies
/// entirely inside one region (tiles never straddle a chiplet boundary —
/// regions are split internally when they get several tiles); with fewer
/// tiles than regions, whole regions are packed so cuts still fall on
/// region boundaries. Region-free topologies partition exactly as before.
pub fn partition_bfs(topo: &Topology, n_tiles: usize) -> Partition {
    let n = topo.n_cores() as usize;
    let k = n_tiles.clamp(1, n.max(1));
    if topo.n_regions() > 1 && k > 1 {
        return partition_regions(topo, k);
    }
    let order = bfs_order(topo, |_| true);
    let mut tile_of = vec![0u32; n];
    let mut tiles = Vec::with_capacity(k);
    for t in 0..k {
        // Balanced chunk boundaries: floor(i*n/k) splits any n into k
        // parts whose sizes differ by at most one.
        let lo = t * n / k;
        let hi = (t + 1) * n / k;
        let chunk: Vec<CoreId> = order[lo..hi].to_vec();
        for &c in &chunk {
            tile_of[c.index()] = t as u32;
        }
        tiles.push(chunk);
    }
    finish(topo, tile_of, tiles)
}

/// BFS visit order over the cores accepted by `keep`, restarting from the
/// lowest-numbered unvisited accepted core (handles disconnected graphs and
/// region-restricted traversals alike). Fully deterministic: neighbor lists
/// are sorted.
fn bfs_order(topo: &Topology, keep: impl Fn(CoreId) -> bool) -> Vec<CoreId> {
    let n = topo.n_cores() as usize;
    let mut order: Vec<CoreId> = Vec::new();
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    for start in 0..n {
        let s = CoreId(start as u32);
        if seen[start] || !keep(s) {
            continue;
        }
        seen[start] = true;
        queue.push_back(s);
        while let Some(c) = queue.pop_front() {
            order.push(c);
            for &(m, _) in topo.neighbors(c) {
                if !seen[m.index()] && keep(m) {
                    seen[m.index()] = true;
                    queue.push_back(m);
                }
            }
        }
    }
    order
}

/// Region-aware partition: BFS orders are computed *within* each region, so
/// no traversal ever crosses a chiplet boundary; tiles are then allocated
/// to regions (largest-remainder shares when `k >= n_regions`, whole-region
/// packing otherwise) and each region's order is chunked independently.
fn partition_regions(topo: &Topology, k: usize) -> Partition {
    let n = topo.n_cores() as usize;
    let r = topo.n_regions() as usize;
    let orders: Vec<Vec<CoreId>> = (0..r)
        .map(|reg| bfs_order(topo, |c| topo.region_of(c) == Some(reg as u32)))
        .collect();
    debug_assert_eq!(orders.iter().map(Vec::len).sum::<usize>(), n);
    let mut tile_of = vec![0u32; n];
    let mut tiles: Vec<Vec<CoreId>> = Vec::new();
    if k >= r {
        // Largest-remainder tile shares, at least one tile per region.
        let mut share: Vec<usize> = orders.iter().map(|o| k * o.len() / n).collect();
        for s in share.iter_mut() {
            *s = (*s).max(1);
        }
        // Distribute (or claw back) the difference deterministically by
        // fractional remainder, region id breaking ties.
        let mut total: usize = share.iter().sum();
        let mut by_rem: Vec<usize> = (0..r).collect();
        by_rem.sort_by_key(|&reg| {
            let rem = (k * orders[reg].len()) % n;
            (std::cmp::Reverse(rem), reg)
        });
        let mut i = 0;
        while total < k {
            let reg = by_rem[i % r];
            share[reg] += 1;
            total += 1;
            i += 1;
        }
        i = 0;
        while total > k {
            let reg = by_rem[r - 1 - (i % r)];
            // Never drop a region to zero tiles, and never give a region
            // more tiles than cores.
            if share[reg] > 1 {
                share[reg] -= 1;
                total -= 1;
            }
            i += 1;
        }
        for (reg, order) in orders.iter().enumerate() {
            let s = share[reg].min(order.len().max(1));
            for t in 0..s {
                let lo = t * order.len() / s;
                let hi = (t + 1) * order.len() / s;
                let chunk: Vec<CoreId> = order[lo..hi].to_vec();
                for &c in &chunk {
                    tile_of[c.index()] = tiles.len() as u32;
                }
                tiles.push(chunk);
            }
        }
    } else {
        // Fewer tiles than regions: pack whole regions, cutting the region
        // sequence at balanced cumulative-size boundaries.
        let mut start = 0usize; // cumulative cores already assigned
        let mut cur: Vec<CoreId> = Vec::new();
        let mut cur_tile = 0usize;
        for order in orders.iter() {
            // The tile that owns this region: the chunk whose balanced
            // range [t*n/k, (t+1)*n/k) contains the region's start.
            let t = (start * k / n).min(k - 1);
            if t != cur_tile && !cur.is_empty() {
                for &c in &cur {
                    tile_of[c.index()] = tiles.len() as u32;
                }
                tiles.push(std::mem::take(&mut cur));
            }
            cur_tile = t;
            cur.extend_from_slice(order);
            start += order.len();
        }
        if !cur.is_empty() {
            for &c in &cur {
                tile_of[c.index()] = tiles.len() as u32;
            }
            tiles.push(cur);
        }
    }
    finish(topo, tile_of, tiles)
}

fn finish(topo: &Topology, tile_of: Vec<u32>, tiles: Vec<Vec<CoreId>>) -> Partition {
    let n = topo.n_cores() as usize;
    let boundary: Vec<bool> = (0..n)
        .map(|c| {
            let t = tile_of[c];
            topo.neighbors(CoreId(c as u32))
                .iter()
                .any(|&(m, _)| tile_of[m.index()] != t)
        })
        .collect();
    Partition {
        tile_of,
        tiles,
        boundary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{mesh_2d, ring};

    #[test]
    fn covers_every_core_exactly_once() {
        let topo = mesh_2d(64);
        let p = partition_bfs(&topo, 4);
        let mut count = vec![0u32; 64];
        for t in 0..p.n_tiles() {
            for &c in p.tile(t) {
                count[c.index()] += 1;
                assert_eq!(p.tile_of(c), t);
            }
        }
        assert!(count.iter().all(|&x| x == 1));
    }

    #[test]
    fn balanced_within_one() {
        for (n, k) in [(64usize, 3usize), (64, 7), (10, 4), (5, 8)] {
            let topo = ring(n as u32);
            let p = partition_bfs(&topo, k);
            let sizes: Vec<usize> = (0..p.n_tiles()).map(|t| p.tile(t).len()).collect();
            let (lo, hi) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "unbalanced tiles: {sizes:?}");
            assert_eq!(sizes.iter().sum::<usize>(), n);
        }
    }

    #[test]
    fn clamps_tile_count() {
        let topo = ring(4);
        assert_eq!(partition_bfs(&topo, 0).n_tiles(), 1);
        assert_eq!(partition_bfs(&topo, 100).n_tiles(), 4);
    }

    #[test]
    fn deterministic() {
        let topo = mesh_2d(256);
        let a = partition_bfs(&topo, 6);
        let b = partition_bfs(&topo, 6);
        for c in 0..256 {
            assert_eq!(a.tile_of(CoreId(c)), b.tile_of(CoreId(c)));
        }
    }

    #[test]
    fn boundary_detection() {
        let topo = ring(8);
        let p = partition_bfs(&topo, 2);
        let boundary: Vec<bool> = (0..8).map(|c| p.is_boundary(&topo, CoreId(c))).collect();
        // A 2-tile ring split has exactly two cut edges = four boundary cores.
        assert_eq!(boundary.iter().filter(|&&b| b).count(), 4);
        assert_eq!(p.boundary_count(), 4);
    }

    #[test]
    fn tiles_never_straddle_chiplet_boundaries() {
        use crate::builders::{chiplet_mesh, ChipletParams};
        let topo = chiplet_mesh(2, 2, 4, 4, ChipletParams::default());
        for k in [4usize, 5, 8, 16] {
            let p = partition_bfs(&topo, k);
            let mut count = vec![0u32; 64];
            for t in 0..p.n_tiles() {
                let regions: std::collections::BTreeSet<_> = p
                    .tile(t)
                    .iter()
                    .map(|&c| topo.region_of(c).unwrap())
                    .collect();
                assert_eq!(regions.len(), 1, "tile {t} straddles chiplets (k={k})");
                for &c in p.tile(t) {
                    count[c.index()] += 1;
                }
            }
            assert!(count.iter().all(|&x| x == 1), "not a partition (k={k})");
        }
    }

    #[test]
    fn fewer_tiles_than_regions_pack_whole_regions() {
        use crate::builders::{chiplet_mesh, ChipletParams};
        let topo = chiplet_mesh(2, 2, 4, 4, ChipletParams::default());
        let p = partition_bfs(&topo, 2);
        // Every region must live entirely inside one tile.
        for reg in 0..topo.n_regions() {
            let tiles: std::collections::BTreeSet<_> = topo
                .cores()
                .filter(|&c| topo.region_of(c) == Some(reg))
                .map(|c| p.tile_of(c))
                .collect();
            assert_eq!(tiles.len(), 1, "region {reg} split across tiles");
        }
        let total: usize = (0..p.n_tiles()).map(|t| p.tile(t).len()).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn region_tiles_balanced_and_deterministic() {
        use crate::builders::{chiplet_mesh, ChipletParams};
        let topo = chiplet_mesh(2, 2, 16, 16, ChipletParams::default());
        let p = partition_bfs(&topo, 8);
        assert_eq!(p.n_tiles(), 8);
        let sizes: Vec<usize> = (0..8).map(|t| p.tile(t).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 1024);
        assert!(sizes.iter().all(|&s| s == 128), "unbalanced: {sizes:?}");
        let q = partition_bfs(&topo, 8);
        for c in topo.cores() {
            assert_eq!(p.tile_of(c), q.tile_of(c));
        }
    }

    #[test]
    fn single_tile_has_no_boundary() {
        let topo = mesh_2d(16);
        let p = partition_bfs(&topo, 1);
        assert_eq!(p.boundary_count(), 0);
        for c in 0..16 {
            assert!(!p.is_boundary(&topo, CoreId(c)));
        }
    }
}
