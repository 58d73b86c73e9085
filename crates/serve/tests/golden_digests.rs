//! The shipped sweep specs expand to pinned labels, priorities and
//! identity digests, in order. Journals, `results.jsonl` records and the
//! service's dedup key on these digests, so a refactor of the spec
//! expander or the scenario must leave every row alone; a deliberate
//! change to what a digest covers updates the tables and says so.

use simany_serve::load_spec;

const DRIFT: &[(&str, i64, &str)] = &[
    ("drift/kernel=quicksort,drift=50", 1, "9186d873501f785d"),
    ("drift/kernel=quicksort,drift=100", 1, "ddbe1a5f05d0240c"),
    ("drift/kernel=quicksort,drift=500", 1, "4360b13828c63238"),
    ("drift/kernel=quicksort,drift=1000", 1, "24996c1889f17c7f"),
    ("drift/kernel=connected,drift=50", 1, "e1091505acf70565"),
    ("drift/kernel=connected,drift=100", 1, "0926d96de94ba654"),
    ("drift/kernel=connected,drift=500", 1, "f9e973f449d4a7c0"),
    ("drift/kernel=connected,drift=1000", 1, "f697fe4f17b59bcf"),
    ("drift/kernel=dijkstra,drift=50", 1, "3e3cbed50279454a"),
    ("drift/kernel=dijkstra,drift=100", 1, "6ed0d119922ca9b9"),
    ("drift/kernel=dijkstra,drift=500", 1, "96d27a7cfd022975"),
    ("drift/kernel=dijkstra,drift=1000", 1, "c2aacc35b12f85b4"),
    ("drift/kernel=barnes,drift=50", 1, "b4941a1672a87463"),
    ("drift/kernel=barnes,drift=100", 1, "29c034b96c0aa5dc"),
    ("drift/kernel=barnes,drift=500", 1, "1af727e0804ba3d8"),
    ("drift/kernel=barnes,drift=1000", 1, "562e0d208de1e0bd"),
    ("drift/kernel=spmxv,drift=50", 1, "ac94e81406c753fc"),
    ("drift/kernel=spmxv,drift=100", 1, "a7ecbe9e01a11815"),
    ("drift/kernel=spmxv,drift=500", 1, "9a4f4b8012f4f079"),
    ("drift/kernel=spmxv,drift=1000", 1, "bef551077d3035aa"),
    ("drift/kernel=octree,drift=50", 1, "86804f24397b36c2"),
    ("drift/kernel=octree,drift=100", 1, "2d0fff2351670061"),
    ("drift/kernel=octree,drift=500", 1, "cae54a43a428d56d"),
    ("drift/kernel=octree,drift=1000", 1, "3c9745713e4f4f88"),
    ("baseline/kernel=quicksort", 0, "ddbe1a5f05d0240c"),
    ("baseline/kernel=connected", 0, "0926d96de94ba654"),
    ("baseline/kernel=dijkstra", 0, "6ed0d119922ca9b9"),
    ("baseline/kernel=barnes", 0, "29c034b96c0aa5dc"),
    ("baseline/kernel=spmxv", 0, "a7ecbe9e01a11815"),
    ("baseline/kernel=octree", 0, "2d0fff2351670061"),
];

const PROTOCOLS: &[(&str, i64, &str)] = &[
    (
        "gossip/drop_prob=0,partition_heal=20000",
        1,
        "dad53bce3c74d390",
    ),
    (
        "gossip/drop_prob=0,partition_heal=40000",
        1,
        "ac39c55f3b793c36",
    ),
    (
        "gossip/drop_prob=0,partition_heal=80000",
        1,
        "5ddd861f7d1dc3fb",
    ),
    (
        "gossip/drop_prob=0.05,partition_heal=20000",
        1,
        "d04bb1d4731916ca",
    ),
    (
        "gossip/drop_prob=0.05,partition_heal=40000",
        1,
        "e328881340e4c684",
    ),
    (
        "gossip/drop_prob=0.05,partition_heal=80000",
        1,
        "6a386c80f3eab771",
    ),
    (
        "gossip/drop_prob=0.2,partition_heal=20000",
        1,
        "9e72b970ac09342a",
    ),
    (
        "gossip/drop_prob=0.2,partition_heal=40000",
        1,
        "cbfc83be5c73dda4",
    ),
    (
        "gossip/drop_prob=0.2,partition_heal=80000",
        1,
        "d3858b63f6b2e251",
    ),
    (
        "dht/drop_prob=0,partition_heal=20000",
        0,
        "5861973c9fffefb7",
    ),
    (
        "dht/drop_prob=0,partition_heal=40000",
        0,
        "f1f78a8aadd0771d",
    ),
    (
        "dht/drop_prob=0,partition_heal=80000",
        0,
        "4053c9ca6c2bef58",
    ),
    (
        "dht/drop_prob=0.05,partition_heal=20000",
        0,
        "a07e2bc31cac9a63",
    ),
    (
        "dht/drop_prob=0.05,partition_heal=40000",
        0,
        "a203a67cd0391789",
    ),
    (
        "dht/drop_prob=0.05,partition_heal=80000",
        0,
        "1af3c20f1d33269c",
    ),
    (
        "dht/drop_prob=0.2,partition_heal=20000",
        0,
        "123cc7bd9237ecc3",
    ),
    (
        "dht/drop_prob=0.2,partition_heal=40000",
        0,
        "d27404ba0196f229",
    ),
    (
        "dht/drop_prob=0.2,partition_heal=80000",
        0,
        "1d6687663b2ac87c",
    ),
    (
        "quorum/drop_prob=0,partition_heal=20000",
        0,
        "fcbe13f2e113672b",
    ),
    (
        "quorum/drop_prob=0,partition_heal=40000",
        0,
        "a78153d57e8951d1",
    ),
    (
        "quorum/drop_prob=0,partition_heal=80000",
        0,
        "2294c7aa6ca53ca4",
    ),
    (
        "quorum/drop_prob=0.05,partition_heal=20000",
        0,
        "e8a17d821ef07259",
    ),
    (
        "quorum/drop_prob=0.05,partition_heal=40000",
        0,
        "a902c96f18e94713",
    ),
    (
        "quorum/drop_prob=0.05,partition_heal=80000",
        0,
        "a48f607bee3e45a6",
    ),
    (
        "quorum/drop_prob=0.2,partition_heal=20000",
        0,
        "552f2fc4e5d17879",
    ),
    (
        "quorum/drop_prob=0.2,partition_heal=40000",
        0,
        "001c7e980de13273",
    ),
    (
        "quorum/drop_prob=0.2,partition_heal=80000",
        0,
        "4b0f0144477508c6",
    ),
];

fn assert_expands_to(spec: &str, golden: &[(&str, i64, &str)]) {
    let path = format!(
        "{}/../../examples/sweeps/{spec}",
        env!("CARGO_MANIFEST_DIR")
    );
    let got: Vec<(String, i64, String)> = load_spec(&path)
        .unwrap()
        .iter()
        .map(|s| (s.label.clone(), s.priority, s.digest_hex().unwrap()))
        .collect();
    let want: Vec<(String, i64, String)> = golden
        .iter()
        .map(|&(label, priority, digest)| (label.into(), priority, digest.into()))
        .collect();
    assert_eq!(got, want, "{spec}");
}

#[test]
fn drift_spec_digests_are_pinned() {
    assert_expands_to("drift.toml", DRIFT);
}

#[test]
fn protocols_spec_digests_are_pinned() {
    assert_expands_to("protocols.toml", PROTOCOLS);
}
