//! Hierarchical multi-chip topologies must uphold every engine contract
//! the flat meshes do: determinism per seed, sanitizer-quiet execution and
//! checkpoint/resume bit-identity — plus the guarantee that
//! `partition_bfs` tiles never straddle a chiplet or leaf-cluster boundary.

use simany::core::{EngineConfig, SimStats, VDuration};
use simany::kernels::{kernel_by_name, Scale};
use simany::presets;
use simany::topology::{cluster_of_clusters, partition_bfs, HierarchyParams};

/// The counters a behavioral divergence would show up in.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    final_vtime_cycles: u64,
    stall_events: u64,
    late_messages: u64,
    on_time_messages: u64,
    scheduler_picks: u64,
    activities_started: u64,
    net_messages: u64,
    net_bytes: u64,
}

impl Fingerprint {
    fn of(stats: &SimStats) -> Self {
        Fingerprint {
            final_vtime_cycles: stats.final_vtime.cycles(),
            stall_events: stats.stall_events,
            late_messages: stats.late_messages,
            on_time_messages: stats.on_time_messages,
            scheduler_picks: stats.scheduler_picks,
            activities_started: stats.activities_started,
            net_messages: stats.net.messages,
            net_bytes: stats.net.bytes,
        }
    }
}

/// Quicksort on the issue's 4×(16×16) cluster-of-meshes: 2×2 chiplets,
/// each an internal 16×16 mesh, joined by 4-cycle / 32 B/cy links.
fn run_chiplet(tweak: impl FnOnce(&mut EngineConfig)) -> (Fingerprint, SimStats) {
    let mut spec = presets::chiplet_dm(1024, 4);
    assert_eq!(spec.topo.n_regions(), 4, "4 chiplets expected");
    tweak(&mut spec.engine);
    let kernel = kernel_by_name("Quicksort").unwrap();
    let res = kernel
        .run_sim(spec, Scale(0.1), 42)
        .expect("simulation failed");
    assert!(res.verified, "kernel output verification failed");
    let stats = res.out.stats;
    (Fingerprint::of(&stats), stats)
}

/// Same seed, same config — identical counters on the chiplet machine.
#[test]
fn chiplet_runs_are_deterministic() {
    let (a, _) = run_chiplet(|_| {});
    let (b, _) = run_chiplet(|_| {});
    assert_eq!(a, b, "two identical chiplet runs diverged");
}

/// The invariant sanitizer stays quiet on hierarchical machines — the
/// slower inter-chip links must not trip drift, FIFO or causality checks —
/// and observing changes nothing.
#[test]
fn chiplet_sanitizer_is_quiet() {
    let (plain, _) = run_chiplet(|_| {});
    let (sanitized, stats) = run_chiplet(|cfg| cfg.sanitize = true);
    assert_eq!(plain, sanitized, "sanitizer changed chiplet behavior");
    assert_eq!(
        stats.sanitizer_violations, 0,
        "sanitizer reported violations on a clean chiplet run"
    );
    assert!(stats.sanitizer_checks > 0, "sanitizer ran no checks");
}

/// Checkpoint/resume is bit-exact on the hierarchical topology: the
/// pooled SoA state digests identically across a write/replay cycle.
#[test]
fn chiplet_resume_matches_uninterrupted() {
    let dir = std::env::temp_dir().join("simany-hierarchical-resume");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cp = dir.join("chiplet.checkpoint");
    let (baseline, stats) = run_chiplet(|_| {});
    // Checkpoint roughly a quarter of the way through, so the watermark
    // lands strictly inside the run.
    let every = VDuration::from_cycles((stats.final_vtime.cycles() / 4).max(1));

    let cp2 = cp.clone();
    let (written, wstats) = run_chiplet(move |cfg| {
        cfg.checkpoint_every = Some(every);
        cfg.checkpoint_path = Some(cp2);
    });
    assert_eq!(baseline, written, "checkpointing changed chiplet behavior");
    assert!(wstats.checkpoints_written > 0, "no checkpoint was written");

    let (resumed, rstats) = run_chiplet(move |cfg| cfg.resume_from = Some(cp));
    assert_eq!(baseline, resumed, "resumed chiplet run diverged");
    assert_eq!(
        rstats.checkpoint_verifications, 1,
        "resume did not verify against the checkpoint"
    );
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
