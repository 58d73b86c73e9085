//! Property test: the link ids a parsed configuration gets. Random files
//! (a symmetric matrix over a spanning ring, a `default` line, and `link`
//! lines that repeat pairs or add new ones) are parsed and their `links()`
//! compared, in id order, with a model of the format's rules:
//!
//! * matrix entries get ids in row-major order, a pair already declared
//!   keeping its link;
//! * a repeated pair is overridden in place, in both directions;
//! * a new pair gets `a -> b`, then `b -> a`.

use proptest::prelude::*;
use simany_time::{VDuration, Xoshiro256StarStar};
use simany_topology::{parse_topology, CoreId, LinkProps};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Directed links in id order, and where each `(src, dst)` pair sits.
#[derive(Default)]
struct Model {
    links: Vec<LinkProps>,
    index: HashMap<(u32, u32), usize>,
}

impl Model {
    /// Declare `a -> b` with these properties unless the pair has a link.
    fn declare(&mut self, a: u32, b: u32, latency: VDuration, bandwidth: u32) {
        if !self.index.contains_key(&(a, b)) {
            self.index.insert((a, b), self.links.len());
            self.links.push(LinkProps {
                src: CoreId(a),
                dst: CoreId(b),
                latency,
                bandwidth_bytes_per_cycle: bandwidth,
            });
        }
    }

    /// A `link a b` line: override both directions of a known pair, or
    /// add `a -> b`, then `b -> a`.
    fn link_line(&mut self, a: u32, b: u32, latency: VDuration, bandwidth: u32) {
        for (src, dst) in [(a, b), (b, a)] {
            if let Some(&i) = self.index.get(&(src, dst)) {
                self.links[i].latency = latency;
                self.links[i].bandwidth_bytes_per_cycle = bandwidth;
            }
            self.declare(src, dst, latency, bandwidth);
        }
    }
}

/// A latency of `half` half-cycles as the format writes it.
fn cycles(half: u64) -> String {
    format!("{}", half as f64 / 2.0)
}

/// One random `link` line, appended to `text` and applied to `model`:
/// half the time a pair that already has a link (either direction), else
/// any pair. Each key is left out a third of the time, so the line takes
/// the current default.
fn link_line(
    rng: &mut Xoshiro256StarStar,
    n: u32,
    default: (VDuration, u32),
    text: &mut String,
    model: &mut Model,
) {
    let (a, b) = if !model.links.is_empty() && rng.next_below(2) == 0 {
        let l = model.links[rng.next_index(model.links.len())];
        (l.src.0, l.dst.0)
    } else {
        let a = rng.next_below(u64::from(n)) as u32;
        let b = (a + 1 + rng.next_below(u64::from(n) - 1) as u32) % n;
        (a, b)
    };
    let (mut latency, mut bandwidth) = default;
    let _ = write!(text, "link {a} {b}");
    if rng.next_below(3) != 0 {
        let half = rng.next_below(9);
        latency = VDuration::from_half_cycles(half);
        let _ = write!(text, " latency={}", cycles(half));
    }
    if rng.next_below(3) != 0 {
        bandwidth = [16, 64, 128, 256][rng.next_index(4)];
        let _ = write!(text, " bandwidth={bandwidth}");
    }
    text.push('\n');
    model.link_line(a, b, latency, bandwidth);
}

/// A random configuration over `n` cores and the links it declares, in
/// id order: `before` link lines, a `default` line, the matrix (a ring
/// plus random chords, mirrored), then `after` link lines.
fn random_config(n: u32, seed: u64, before: usize, after: usize) -> (String, Vec<LinkProps>) {
    let mut rng = Xoshiro256StarStar::seeded(seed);
    let mut model = Model::default();
    let mut text = format!("cores {n}\n");
    let mut default = (VDuration::from_cycles(1), 128);
    for _ in 0..before {
        link_line(&mut rng, n, default, &mut text, &mut model);
    }
    let half = rng.next_range(1, 8);
    default = (
        VDuration::from_half_cycles(half),
        [32, 64, 128][rng.next_index(3)],
    );
    let _ = writeln!(
        text,
        "default latency={} bandwidth={}",
        cycles(half),
        default.1
    );
    let size = n as usize;
    let mut bits = vec![vec![false; size]; size];
    let mut join = |a: usize, b: usize| (bits[a][b], bits[b][a]) = (true, true);
    for i in 0..size {
        join(i, (i + 1) % size);
    }
    for _ in 0..rng.next_below(u64::from(n)) {
        let (a, b) = (rng.next_index(size), rng.next_index(size));
        if a != b {
            join(a, b);
        }
    }
    text.push_str("matrix\n");
    for (a, row) in bits.iter().enumerate() {
        let cells: Vec<&str> = row.iter().map(|&b| if b { "1" } else { "0" }).collect();
        let _ = writeln!(text, "{}", cells.join(" "));
        for (b, _) in row.iter().enumerate().filter(|&(_, &bit)| bit) {
            model.declare(a as u32, b as u32, default.0, default.1);
        }
    }
    for _ in 0..after {
        link_line(&mut rng, n, default, &mut text, &mut model);
    }
    (text, model.links)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A parsed file's links, in id order, are the model's.
    #[test]
    fn parsed_link_ids_follow_declaration_order(
        n in 2u32..10,
        seed in 0u64..1_000_000,
        before in 0usize..4,
        after in 0usize..12,
    ) {
        let (text, want) = random_config(n, seed, before, after);
        let got: Vec<LinkProps> = parse_topology(&text).unwrap().links().collect();
        prop_assert!(got == want, "{text}got  {got:?}\nwant {want:?}");
    }
}
