//! Property tests: routing over arbitrary random connected topologies.

use proptest::prelude::*;
use simany_time::VDuration;
use simany_topology::{CoreId, LinkId, LinkProps, Routes, Topology};

/// The route from `src` along `row` as its links, and their latency sum.
fn walk(topo: &Topology, row: &[u32], src: CoreId) -> (Vec<LinkId>, VDuration) {
    let links: Vec<LinkId> = Routes::path(topo, row, src).map(|(l, _)| l).collect();
    let latency = links.iter().map(|&l| topo.link(l).latency).sum();
    (links, latency)
}

/// Build a random connected topology: a random spanning tree plus extra
/// edges, with random latencies in half-cycle ticks.
fn random_topology(n: u32, extra_edges: usize, seed: u64) -> Topology {
    use simany_time::Xoshiro256StarStar;
    let mut rng = Xoshiro256StarStar::seeded(seed);
    // Connections `(a, b, latency, bandwidth)`, and the pairs they join.
    let mut edges = Vec::new();
    let mut joined = std::collections::HashSet::new();
    // Spanning tree: connect i to a random earlier node.
    for i in 1..n {
        let j = rng.next_below(u64::from(i)) as u32;
        let lat = VDuration::from_half_cycles(rng.next_range(1, 8));
        edges.push((i, j, lat, 64 + rng.next_below(128) as u32));
        joined.insert((i.min(j), i.max(j)));
    }
    for _ in 0..extra_edges {
        let a = rng.next_below(u64::from(n)) as u32;
        let b = rng.next_below(u64::from(n)) as u32;
        if a != b && joined.insert((a.min(b), a.max(b))) {
            let lat = VDuration::from_half_cycles(rng.next_range(1, 8));
            edges.push((a, b, lat, 64 + rng.next_below(128) as u32));
        }
    }
    Topology::generate(n, |sink| {
        for &(a, b, lat, bw) in &edges {
            sink.connect(CoreId(a), CoreId(b), lat, bw);
        }
    })
}

/// Reference all-pairs shortest latency (Floyd-Warshall).
fn floyd_warshall(t: &Topology) -> Vec<Vec<u64>> {
    let n = t.n_cores() as usize;
    const INF: u64 = u64::MAX / 4;
    let mut d = vec![vec![INF; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0;
    }
    for l in t.links() {
        let (a, b) = (l.src.index(), l.dst.index());
        d[a][b] = d[a][b].min(l.latency.ticks());
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let via = d[i][k] + d[k][j];
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d
}

/// Oracle for `is_connected`: a depth-first search from core 0 along the
/// directed links.
fn dfs_reaches_every_core(t: &Topology) -> bool {
    let mut seen = vec![false; t.n_cores() as usize];
    let mut stack = vec![CoreId(0)];
    seen[0] = true;
    while let Some(c) = stack.pop() {
        for &(n, _) in t.neighbors(c) {
            if !std::mem::replace(&mut seen[n.index()], true) {
                stack.push(n);
            }
        }
    }
    seen.iter().all(|&s| s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `is_connected` answers directed reachability from core 0, as a
    /// depth-first search does: on random connected graphs with their
    /// cores renumbered (so paths from core 0 need not climb in id, and
    /// the index-order sweep can miss cores the search finds) and with
    /// random one-way links deleted.
    #[test]
    fn connectivity_matches_a_depth_first_search(
        n in 1u32..24,
        extra in 0usize..20,
        seed in 0u64..10_000,
        drop_per_mille in 0u64..300,
    ) {
        use simany_time::Xoshiro256StarStar;
        let full = random_topology(n, extra, seed);
        let mut rng = Xoshiro256StarStar::seeded(seed ^ 0xC0FFEE);
        let mut ids: Vec<u32> = (0..n).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.next_index(i + 1));
        }
        let kept: Vec<LinkProps> = full
            .links()
            .filter(|_| rng.next_below(1000) >= drop_per_mille)
            .map(|l| LinkProps {
                src: CoreId(ids[l.src.index()]),
                dst: CoreId(ids[l.dst.index()]),
                ..l
            })
            .collect();
        let topo = Topology::generate(n, |sink| {
            for &l in &kept {
                sink.link(l);
            }
        });
        prop_assert_eq!(topo.links().collect::<Vec<_>>(), kept);
        prop_assert_eq!(topo.is_connected(), dfs_reaches_every_core(&topo));
        if drop_per_mille == 0 {
            prop_assert!(topo.is_connected());
        }
    }

    /// Routes are valid, chained routes reaching the destination, with
    /// latencies matching the true shortest paths.
    #[test]
    fn routes_are_valid_and_minimal(
        n in 2u32..24,
        extra in 0usize..20,
        seed in 0u64..10_000,
    ) {
        let topo = random_topology(n, extra, seed);
        prop_assume!(topo.is_connected());
        let mut routes = Routes::for_topology(&topo);
        let reference = floyd_warshall(&topo);
        for d in topo.cores() {
            let row = routes.row(&topo, d);
            for s in topo.cores() {
                // Route validity: chains over real links, reaches d.
                let (_, latency) = walk(&topo, row, s);
                let mut cur = s;
                for (link, props) in Routes::path(&topo, row, s) {
                    prop_assert_eq!(props.src, cur);
                    prop_assert_eq!(topo.link_between(props.src, props.dst), Some(link));
                    cur = props.dst;
                }
                prop_assert_eq!(cur, d);
                // Latency optimality against Floyd-Warshall.
                prop_assert_eq!(
                    latency.ticks(),
                    reference[s.index()][d.index()],
                    "latency mismatch {} -> {}", s, d
                );
            }
        }
    }

    /// Every route's hop count lies between the hop distance and n - 1.
    #[test]
    fn diameter_bounds_hops(
        n in 2u32..16,
        extra in 0usize..10,
        seed in 0u64..10_000,
    ) {
        let topo = random_topology(n, extra, seed);
        prop_assume!(topo.is_connected());
        let mut routes = Routes::for_topology(&topo);
        for d in topo.cores() {
            let row = routes.row(&topo, d);
            for s in topo.cores() {
                // Latency-minimal routes may take more hops than the
                // hop-minimal path, but never more than n - 1.
                let hops = Routes::path(&topo, row, s).count();
                prop_assert!(hops < n as usize);
                prop_assert!(hops >= topo.hop_distances(s)[d.index()] as usize);
            }
        }
    }

    /// A route's per-hop latencies sum to the shortest path latency on
    /// random connected topologies, and its first hop leads to a core
    /// whose own route is exactly one link shorter in latency (the charge
    /// the interconnect model applies hop by hop is the end-to-end
    /// minimum, whichever source the walk starts from).
    #[test]
    fn hop_latencies_sum_to_path_latency(
        n in 2u32..20,
        extra in 0usize..16,
        seed in 0u64..10_000,
    ) {
        let topo = random_topology(n, extra, seed);
        prop_assume!(topo.is_connected());
        let mut routes = Routes::for_topology(&topo);
        let reference = floyd_warshall(&topo);
        for d in topo.cores() {
            let row = routes.row(&topo, d);
            for s in topo.cores() {
                let (_, total) = walk(&topo, row, s);
                prop_assert_eq!(total.ticks(), reference[s.index()][d.index()]);
                if let Some((_, props)) = Routes::path(&topo, row, s).next() {
                    prop_assert_eq!(
                        total,
                        props.latency + walk(&topo, row, props.dst).1
                    );
                }
            }
        }
    }

    /// Rows built avoiding dead links never route over one: surviving
    /// routes chain over live links only and reach the destination, and
    /// the two-sweep reachability check reports a partition exactly when
    /// some pair lost its route. A route whose base route crosses no dead
    /// link is the base route, link for link: the rule that lets the
    /// network model skip a fault epoch's rows for such a message. One
    /// `Routes` serves a random fail/repair sequence over several epochs,
    /// and each epoch's rows equal a fresh `Routes`' rows for its dead
    /// set. `shape` 0 is a random topology with mixed latencies (Dijkstra
    /// rows), 1 a uniform mesh and 2 a uniform torus (breadth-first rows).
    #[test]
    fn recompute_never_routes_over_dead_links(
        shape in 0u32..3,
        n in 2u32..16,
        extra in 0usize..12,
        seed in 0u64..10_000,
        kills in 0usize..4,
        epochs in 1usize..5,
    ) {
        use simany_time::Xoshiro256StarStar;
        use simany_topology::{mesh_2d, torus_2d};
        let topo = match shape {
            0 => random_topology(n, extra, seed),
            1 => mesh_2d(n + extra as u32),
            _ => torus_2d(n + extra as u32),
        };
        prop_assume!(topo.is_connected());
        let mut rng = Xoshiro256StarStar::seeded(seed ^ 0xDEAD);
        let mut dead = vec![false; topo.n_links() as usize];
        let ends = topo.link_ends();
        // Both directions of a physical pair change together, as the fault
        // plan does.
        let set_pair = |dead: &mut [bool], l: usize, down: bool| {
            dead[l] = down;
            let (src, dst) = ends[l];
            if let Some(back) = topo.link_between(dst, src) {
                dead[back.index()] = down;
            }
        };
        let mut routes = Routes::for_topology(&topo);
        for e in 0..epochs {
            // Repair about half of the dead links, then kill a few random
            // ones.
            for l in 0..dead.len() {
                if dead[l] && rng.chance(0.5) {
                    set_pair(&mut dead, l, false);
                }
            }
            for _ in 0..kills {
                let l = rng.next_below(u64::from(topo.n_links())) as usize;
                set_pair(&mut dead, l, true);
            }
            let is_dead = |l: LinkId| dead[l.index()];
            let partitioned = !topo.is_strongly_connected(is_dead);
            let mut fresh = Routes::for_topology(&topo);
            let mut any_unreachable = false;
            for d in topo.cores() {
                let base = routes.row(&topo, d).to_vec();
                let row = routes.row_avoiding(&topo, e, is_dead, d).to_vec();
                prop_assert_eq!(&row[..], fresh.row_avoiding(&topo, 0, is_dead, d), "epoch {} row to {}", e, d);
                for s in topo.cores() {
                    let (base_links, _) = walk(&topo, &base, s);
                    if !base_links.iter().any(|&l| is_dead(l)) {
                        prop_assert_eq!(
                            &walk(&topo, &row, s).0, &base_links,
                            "epoch {}: {} -> {} left a live base route", e, s, d
                        );
                    }
                    if s != d && row[s.index()] == Routes::NO_LINK {
                        any_unreachable = true;
                        continue;
                    }
                    let mut cur = s;
                    for (link, props) in Routes::path(&topo, &row, s) {
                        prop_assert!(!is_dead(link), "route {} -> {} crosses dead link", s, d);
                        prop_assert_eq!(props.src, cur);
                        cur = props.dst;
                    }
                    prop_assert_eq!(cur, d);
                }
            }
            prop_assert_eq!(partitioned, any_unreachable);
        }
    }

    /// Config round-trip preserves structure and link properties for
    /// arbitrary topologies.
    #[test]
    fn config_round_trip(
        n in 2u32..12,
        extra in 0usize..8,
        seed in 0u64..10_000,
    ) {
        let topo = random_topology(n, extra, seed);
        prop_assume!(topo.is_connected());
        let text = simany_topology::format_topology(&topo);
        let parsed = simany_topology::parse_topology(&text).unwrap();
        prop_assert_eq!(parsed.n_cores(), topo.n_cores());
        prop_assert_eq!(parsed.n_links(), topo.n_links());
        for a in topo.cores() {
            for b in topo.cores() {
                prop_assert_eq!(
                    topo.are_neighbors(a, b),
                    parsed.are_neighbors(a, b)
                );
                if let Some(l) = topo.link_between(a, b) {
                    let p = parsed.link_between(a, b).unwrap();
                    prop_assert_eq!(topo.link(l).latency, parsed.link(p).latency);
                    prop_assert_eq!(
                        topo.link(l).bandwidth_bytes_per_cycle,
                        parsed.link(p).bandwidth_bytes_per_cycle
                    );
                }
            }
        }
    }
}

/// FNV-1a over the `LinkId` sequence of every `(src, dst)` route, the
/// destination outer and the source inner, each route closed by a marker
/// word so that equal concatenations of different routes cannot collide.
/// `dead` picks the rows: `None` routes over every link, `Some` is fault
/// epoch 0 with that dead set.
fn route_digest(topo: &Topology, dead: Option<&dyn Fn(LinkId) -> bool>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut word = |w: u32| {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut routes = Routes::for_topology(topo);
    for d in topo.cores() {
        let row = match dead {
            None => routes.row(topo, d),
            Some(dead) => routes.row_avoiding(topo, 0, dead, d),
        };
        for s in topo.cores() {
            for (link, _) in Routes::path(topo, row, s) {
                word(link.0);
            }
            word(u32::MAX);
        }
    }
    h
}

/// Every route's link sequence, tie-breaks included, over uniform-latency
/// shapes (breadth-first rows) and two-latency ones (Dijkstra rows), and in
/// one fault epoch: the values were recorded when rows held link ids, and
/// any change to how rows are stored must keep them.
#[test]
fn route_link_sequences_are_pinned() {
    use simany_topology::{
        chiplet_mesh, clustered_mesh, mesh_2d, torus_2d, ChipletParams, ClusterParams,
    };
    let chiplet = chiplet_mesh(2, 2, 8, 8, ChipletParams::default());
    let mesh = mesh_2d(64);
    let dead = |l: LinkId| l.0 % 7 == 3;
    let cases: [(&str, u64, u64); 6] = [
        (
            "mesh_2d(64)",
            route_digest(&mesh, None),
            0xdf4f_74f3_0af2_63e5,
        ),
        (
            "clustered_mesh(64, 4)",
            route_digest(&clustered_mesh(64, ClusterParams::paper(4)), None),
            0xdf4f_74f3_0af2_63e5,
        ),
        (
            "chiplet_mesh(2, 2, 8, 8)",
            route_digest(&chiplet, None),
            0xd1be_9b34_ce15_8551,
        ),
        (
            "torus_2d(36)",
            route_digest(&torus_2d(36), None),
            0xf8b4_99d7_453c_0ac1,
        ),
        (
            "mesh_2d(64), epoch",
            route_digest(&mesh, Some(&dead)),
            0x39ad_f3e4_f3c9_1e99,
        ),
        (
            "chiplet_mesh(2, 2, 8, 8), epoch",
            route_digest(&chiplet, Some(&dead)),
            0x271f_923c_3b4a_b6f9,
        ),
    ];
    let wrong: Vec<String> = cases
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, _)| format!("{name}: {got:#018x}"))
        .collect();
    assert!(wrong.is_empty(), "route digests moved: {wrong:#?}");
}
