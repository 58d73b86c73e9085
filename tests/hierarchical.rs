//! Hierarchical multi-chip topologies must uphold every engine contract
//! the flat meshes do — determinism per seed, sanitizer-quiet execution and
//! checkpoint/resume bit-identity, checked by the shared harness
//! (`tests/common`) on quicksort over 2×2 chiplets of 16×16 cores — plus
//! the guarantee that `partition_bfs` tiles never straddle a chiplet or
//! leaf-cluster boundary.

mod common;

use common::*;
use simany::presets;
use simany::topology::{cluster_of_clusters, partition_bfs, HierarchyParams};

/// The chiplet scenario, resumed from a checkpoint a quarter of the way in.
fn chiplet() -> Case {
    quicksort(Chiplet, SPATIAL, NoPlan, Resume)
}

/// Same seed, same config: identical outputs on the chiplet machine, with
/// no plan and with an empty one.
#[test]
fn chiplet_runs_are_deterministic() {
    assert_checks([chiplet()], &[Check::Repeat, Check::EmptyPlan]);
}

/// The invariant sanitizer stays quiet on hierarchical machines — the
/// slower inter-chip links must not trip drift, FIFO or causality checks —
/// and observing changes nothing.
#[test]
fn chiplet_sanitizer_is_quiet() {
    assert_checks([chiplet()], &[Check::Sanitizer]);
}

/// Checkpoint/resume is bit-exact on the hierarchical topology: the pooled
/// SoA state digests identically across a write/replay cycle.
#[test]
fn chiplet_resume_matches_uninterrupted() {
    assert_checks([chiplet()], &[Check::Cut]);
}

/// Partition tiles never straddle a region boundary, on both hierarchical
/// builders and for tile counts below, equal to and above the region
/// count. (The in-crate partition tests cover the same property on small
/// shapes; this exercises the exported API end to end.)
#[test]
fn partition_tiles_respect_hierarchy_boundaries() {
    let chiplets = presets::chiplet_dm(1024, 4).topo;
    let hierarchy = cluster_of_clusters(2, 4, 64, HierarchyParams::default());
    for (name, topo) in [
        ("chiplet_mesh", &chiplets),
        ("cluster_of_clusters", &hierarchy),
    ] {
        let regions = topo.n_regions() as usize;
        assert!(regions > 1, "{name}: no region metadata attached");
        for k in [2usize, regions, regions + 3, 2 * regions] {
            let p = partition_bfs(topo, k);
            let mut seen = vec![false; topo.n_cores() as usize];
            // Which tile owns each region; a region split across tiles is
            // a straddled boundary in either direction.
            let mut region_tile = vec![None; regions];
            for t in 0..p.n_tiles() {
                let tile = p.tile(t);
                assert!(!tile.is_empty(), "{name}: empty tile {t} (k={k})");
                let first = topo.region_of(tile[0]).unwrap();
                for &c in tile {
                    let r = topo.region_of(c).unwrap() as usize;
                    if k >= regions {
                        // Enough tiles: every tile lies inside one region.
                        assert_eq!(
                            r, first as usize,
                            "{name}: tile {t} straddles a region boundary (k={k})"
                        );
                    } else {
                        // Fewer tiles than regions: whole regions are
                        // packed, so no region is split across tiles.
                        match region_tile[r] {
                            None => region_tile[r] = Some(t),
                            Some(owner) => assert_eq!(
                                owner, t,
                                "{name}: region {r} split across tiles (k={k})"
                            ),
                        }
                    }
                    assert!(!seen[c.index()], "{name}: core {c:?} in two tiles");
                    seen[c.index()] = true;
                }
            }
            assert!(
                seen.iter().all(|&s| s),
                "{name}: some core is in no tile (k={k})"
            );
        }
    }
}
