//! Links are stored by class: every link id must still read back the
//! `(src, dst, latency, bandwidth)` it was built with, and the class table
//! must stay invisible to routing and to the config format.

use simany_time::VDuration;
use simany_topology::builders::mesh_2d_with;
use simany_topology::{
    chiplet_mesh, cluster_of_clusters, clustered_mesh, format_topology, fully_connected, hypercube,
    mesh_2d, mesh_3d, parse_topology, ring, star, torus_2d, ChipletParams, ClusterParams, CoreId,
    HierarchyParams, LinkId, LinkProps, Topology, MAX_LINK_CLASSES,
};

/// FNV-1a over `(src, dst, latency ticks, bandwidth)` of every link, in
/// link-id order.
fn link_digest(t: &Topology) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for l in t.links() {
        let words = [
            u64::from(l.src.0),
            u64::from(l.dst.0),
            l.latency.ticks(),
            u64::from(l.bandwidth_bytes_per_cycle),
        ];
        for w in words {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

const CONFIG: &str = "\
cores 6
default latency=2 bandwidth=64
matrix
0 1 0 0 0 1
1 0 1 0 0 0
0 1 0 1 0 0
0 0 1 0 1 0
0 0 0 1 0 1
1 0 0 0 1 0
link 0 3 latency=0.5 bandwidth=256
link 1 2 latency=4
link 3 0 bandwidth=32
link 4 1 latency=1.5 bandwidth=16
";

/// Digests recorded when every link stored its own properties: the class
/// store must give every builder's and the parser's links back unchanged,
/// ids included.
#[test]
fn every_link_reads_back_as_built() {
    let shapes: [(&str, Topology, u64); 15] = [
        ("mesh_2d(64)", mesh_2d(64), 0xd721_a30d_f857_56a5),
        (
            "mesh_2d_with(12)",
            mesh_2d_with(12, VDuration::from_cycles(3), 16),
            0xff05_0ce3_787f_0d45,
        ),
        ("torus_2d(16)", torus_2d(16), 0xcd09_7357_5ac5_2725),
        ("ring(5)", ring(5), 0x09dd_6c24_bd29_01a5),
        ("star(9)", star(9), 0xcba4_3fb1_4b40_c4a5),
        (
            "fully_connected(6)",
            fully_connected(6),
            0x2ab3_8b48_55bc_2a45,
        ),
        ("hypercube(4)", hypercube(4), 0x7729_54d3_5d2a_6f25),
        ("mesh_3d(64)", mesh_3d(64), 0xa12f_2ff5_813f_6725),
        (
            "clustered_mesh(64, 4)",
            clustered_mesh(64, ClusterParams::paper(4)),
            0x3043_d3c5_23d3_8725,
        ),
        (
            "clustered_mesh(1024, 8)",
            clustered_mesh(1024, ClusterParams::paper(8)),
            0x675b_6358_e794_42d5,
        ),
        (
            "chiplet_mesh(2, 2, 4, 4)",
            chiplet_mesh(2, 2, 4, 4, ChipletParams::default()),
            0x2cfb_20b1_b958_aa25,
        ),
        (
            "chiplet_mesh(4, 2, 8, 8)",
            chiplet_mesh(4, 2, 8, 8, ChipletParams::default()),
            0x12a0_2366_e86b_5ee5,
        ),
        (
            "cluster_of_clusters(2, 3, 16)",
            cluster_of_clusters(2, 3, 16, HierarchyParams::default()),
            0x3398_710b_31a8_b565,
        ),
        (
            "cluster_of_clusters(3, 2, 4)",
            cluster_of_clusters(3, 2, 4, HierarchyParams::default()),
            0x3ff3_ec00_7ae8_3e25,
        ),
        (
            "parsed config",
            parse_topology(CONFIG).unwrap(),
            0x9cbc_4a92_daf4_8fe5,
        ),
    ];
    let mut wrong = Vec::new();
    for (name, t, want) in &shapes {
        let got = link_digest(t);
        assert_eq!(t.links().len(), t.n_links() as usize, "{name}");
        if got != *want {
            wrong.push(format!("{name}: {got:#018x}"));
        }
    }
    assert!(wrong.is_empty(), "digests moved: {wrong:#?}");
}

/// `cores` cores, then one `link` line per pair with a
/// bandwidth of its own: `pairs` distinct classes.
fn many_classes(cores: u32, pairs: usize) -> String {
    let mut text = format!("cores {cores}\n");
    let mut n = 0;
    'outer: for a in 0..cores {
        for b in a + 1..cores {
            if n == pairs {
                break 'outer;
            }
            n += 1;
            text.push_str(&format!("link {a} {b} bandwidth={n}\n"));
        }
    }
    assert_eq!(n, pairs, "too few cores for {pairs} pairs");
    text
}

/// The class index is a `u16`: a file needing one class more is refused
/// with a typed error naming the line, and the last size that fits parses.
#[test]
fn parser_refuses_more_classes_than_fit() {
    let fits = parse_topology(&many_classes(363, MAX_LINK_CLASSES)).unwrap();
    assert_eq!(fits.n_links() as usize, 2 * MAX_LINK_CLASSES);
    let e = parse_topology(&many_classes(363, MAX_LINK_CLASSES + 1)).unwrap_err();
    assert_eq!(e.line, MAX_LINK_CLASSES + 2);
    assert_eq!(
        e.message,
        "more than 65536 distinct link latency/bandwidth pairs"
    );
    // A matrix whose default pair is one too many is refused at `matrix`.
    let mut text = many_classes(363, MAX_LINK_CLASSES);
    text.push_str("default latency=9\nmatrix\n");
    for row in 0..363 {
        let bits: Vec<&str> = (0..363)
            .map(|col| if row == col { "0" } else { "1" })
            .collect();
        text.push_str(&bits.join(" "));
        text.push('\n');
    }
    let e = parse_topology(&text).unwrap_err();
    assert_eq!(e.line, MAX_LINK_CLASSES + 3);
}

/// Two classes with the same count and latency but different bandwidths
/// used to tie in a hash map, and its random order picked the `default`
/// line; the first class seen wins now.
#[test]
fn format_topology_is_deterministic() {
    let t = parse_topology("cores 3\nlink 0 1 bandwidth=128\nlink 1 2 bandwidth=256\n").unwrap();
    let first = format_topology(&t);
    for _ in 0..32 {
        assert_eq!(format_topology(&t), first);
    }
    assert!(
        first.contains("default latency=1 bandwidth=128\n"),
        "{first}"
    );
}

fn props(src: u32, dst: u32, latency: u64, bandwidth: u32) -> LinkProps {
    LinkProps {
        src: CoreId(src),
        dst: CoreId(dst),
        latency: VDuration::from_cycles(latency),
        bandwidth_bytes_per_cycle: bandwidth,
    }
}

/// Each link `links()` yields is the link its position names: the one
/// link between its ends, with that id's latency and bandwidth.
fn assert_ids_match(name: &str, t: &Topology) {
    assert_eq!(t.links().len(), t.n_links() as usize, "{name}");
    for (i, l) in t.links().enumerate() {
        let id = LinkId(i as u32);
        assert_eq!(t.link_between(l.src, l.dst), Some(id), "{name}: {l:?}");
        assert_eq!(t.link(id).latency, l.latency, "{name}: {l:?}");
        let bw = t.link(id).bandwidth_bytes_per_cycle;
        assert_eq!(bw, l.bandwidth_bytes_per_cycle, "{name}: {l:?}");
    }
}

/// `links()` gives every link back as it was pushed, in id order: a
/// hand-built graph's `add_link` and `add_directed_link` calls, the same
/// links handed to `from_links`, a parsed file's matrix entries (row-major)
/// and `link` lines, and every builder's links.
#[test]
fn links_come_back_in_push_order() {
    let mut t = Topology::new(4);
    let mut want = Vec::new();
    for (a, b, latency, bw) in [(2, 0, 3, 64), (0, 1, 1, 128), (3, 1, 2, 16)] {
        t.add_link(CoreId(a), CoreId(b), VDuration::from_cycles(latency), bw);
        want.extend([props(a, b, latency, bw), props(b, a, latency, bw)]);
    }
    t.add_directed_link(CoreId(1), CoreId(2), VDuration::from_cycles(5), 8);
    want.push(props(1, 2, 5, 8));
    assert_eq!(t.links().collect::<Vec<_>>(), want);
    assert_ids_match("hand-built", &t);

    let flat = Topology::from_links(4, want.iter().copied().collect());
    assert_eq!(flat.links().collect::<Vec<_>>(), want);

    let parsed = parse_topology(
        "cores 3\ndefault latency=2 bandwidth=64\nmatrix\n0 1 1\n1 0 0\n1 0 0\nlink 1 2 latency=4\n",
    )
    .unwrap();
    let want = [
        props(0, 1, 2, 64),
        props(0, 2, 2, 64),
        props(1, 0, 2, 64),
        props(2, 0, 2, 64),
        props(1, 2, 4, 64),
        props(2, 1, 4, 64),
    ];
    assert_eq!(parsed.links().collect::<Vec<_>>(), want);
    assert_ids_match("parsed", &parsed);

    let shapes: [(&str, Topology); 12] = [
        ("mesh_2d(64)", mesh_2d(64)),
        (
            "mesh_2d_with(12)",
            mesh_2d_with(12, VDuration::from_cycles(3), 16),
        ),
        ("torus_2d(16)", torus_2d(16)),
        ("ring(5)", ring(5)),
        ("star(9)", star(9)),
        ("fully_connected(6)", fully_connected(6)),
        ("hypercube(4)", hypercube(4)),
        ("mesh_3d(64)", mesh_3d(64)),
        (
            "clustered_mesh(64, 4)",
            clustered_mesh(64, ClusterParams::paper(4)),
        ),
        (
            "chiplet_mesh(4, 2, 8, 8)",
            chiplet_mesh(4, 2, 8, 8, ChipletParams::default()),
        ),
        (
            "cluster_of_clusters(2, 3, 16)",
            cluster_of_clusters(2, 3, 16, HierarchyParams::default()),
        ),
        ("parsed config", parse_topology(CONFIG).unwrap()),
    ];
    for (name, t) in &shapes {
        assert_ids_match(name, t);
    }
}
