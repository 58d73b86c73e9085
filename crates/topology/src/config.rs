//! Text configuration format for topologies.
//!
//! The paper specifies network topology "in a configuration file as an
//! adjacency matrix that gives the connections between the cores", with
//! per-link latency and bandwidth independently tunable. The format here is
//! line-oriented plain text:
//!
//! ```text
//! # comments start with '#'; blank lines are ignored
//! cores 4
//! default latency=1 bandwidth=128
//! matrix
//! 0 1 0 1
//! 1 0 1 0
//! 0 1 0 1
//! 1 0 1 0
//! # optional per-link overrides (applied to both directions):
//! link 0 1 latency=0.5 bandwidth=256
//! # extra links not present in the matrix may also be declared:
//! link 0 2 latency=4
//! ```
//!
//! Latencies are in cycles and may use the `.5` half-cycle granularity of
//! the simulator's tick; bandwidth is in bytes per cycle.

use crate::graph::{
    CoreId, LinkId, LinkList, LinkProps, Topology, DEFAULT_LINK_BANDWIDTH, DEFAULT_LINK_LATENCY,
    MAX_LINK_CLASSES,
};
use simany_time::{VDuration, TICKS_PER_CYCLE};
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Error produced while parsing a topology configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line number of the offending line (0 for file-level errors).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "topology config: {}", self.message)
        } else {
            write!(f, "topology config line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ConfigError {}

fn err(line: usize, message: impl Into<String>) -> ConfigError {
    ConfigError {
        line,
        message: message.into(),
    }
}

/// Parse a latency expressed in cycles (integer or `.5` steps) into ticks.
fn parse_latency(s: &str, line: usize) -> Result<VDuration, ConfigError> {
    let val: f64 = s
        .parse()
        .map_err(|_| err(line, format!("invalid latency '{s}'")))?;
    if val < 0.0 || !val.is_finite() {
        return Err(err(line, format!("latency '{s}' must be non-negative")));
    }
    let ticks = val * TICKS_PER_CYCLE as f64;
    if (ticks - ticks.round()).abs() > 1e-9 {
        return Err(err(
            line,
            format!("latency '{s}' is not representable in half-cycle ticks"),
        ));
    }
    Ok(VDuration(ticks.round() as u64))
}

fn parse_kv(tok: &str, line: usize) -> Result<(&str, &str), ConfigError> {
    tok.split_once('=')
        .ok_or_else(|| err(line, format!("expected key=value, got '{tok}'")))
}

/// Parse a topology from the configuration text format.
///
/// The adjacency matrix must be symmetric: an entry without its mirror
/// would be a one-way link, which is refused with the entry named. A file
/// whose links use more than [`MAX_LINK_CLASSES`] distinct `(latency,
/// bandwidth)` pairs is refused at the `link` or `matrix` line that adds
/// one too many.
pub fn parse_topology(text: &str) -> Result<Topology, ConfigError> {
    let mut n_cores: Option<u32> = None;
    let mut default_latency = DEFAULT_LINK_LATENCY;
    let mut default_bw = DEFAULT_LINK_BANDWIDTH;
    // Directed links in declaration order (the `i`-th becomes `LinkId(i)`),
    // and where each `(src, dst)` pair sits in that list.
    let mut links = LinkList::default();
    let mut index: HashMap<(u32, u32), LinkId> = HashMap::new();
    let mut lines = text.lines().enumerate().peekable();

    while let Some((idx, raw)) = lines.next() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut toks = line.split_whitespace();
        let keyword = toks.next().unwrap();
        match keyword {
            "cores" => {
                let n: u32 = toks
                    .next()
                    .ok_or_else(|| err(lineno, "missing core count"))?
                    .parse()
                    .map_err(|_| err(lineno, "invalid core count"))?;
                if n == 0 {
                    return Err(err(lineno, "core count must be positive"));
                }
                n_cores = Some(n);
                links = LinkList::default();
                index.clear();
            }
            "default" => {
                for tok in toks {
                    let (k, v) = parse_kv(tok, lineno)?;
                    match k {
                        "latency" => default_latency = parse_latency(v, lineno)?,
                        "bandwidth" => {
                            default_bw = v.parse().map_err(|_| err(lineno, "invalid bandwidth"))?;
                            if default_bw == 0 {
                                return Err(err(lineno, "bandwidth must be non-zero"));
                            }
                        }
                        other => return Err(err(lineno, format!("unknown key '{other}'"))),
                    }
                }
            }
            "matrix" => {
                let n = n_cores.ok_or_else(|| err(lineno, "'matrix' before 'cores'"))? as usize;
                // The 1-entries above the diagonal, which every entry below
                // it must mirror.
                let mut upper: HashSet<(usize, usize)> = HashSet::new();
                for row in 0..n {
                    let (ridx, raw_row) = lines
                        .next()
                        .ok_or_else(|| err(lineno, format!("matrix truncated at row {row}")))?;
                    let rno = ridx + 1;
                    let row_line = raw_row.split('#').next().unwrap_or("").trim();
                    let entries: Vec<&str> = row_line.split_whitespace().collect();
                    if entries.len() != n {
                        return Err(err(
                            rno,
                            format!("matrix row has {} entries, expected {n}", entries.len()),
                        ));
                    }
                    for (col, e) in entries.iter().enumerate() {
                        let bit: u8 = e
                            .parse()
                            .map_err(|_| err(rno, format!("invalid matrix entry '{e}'")))?;
                        if bit > 1 {
                            return Err(err(
                                rno,
                                format!("matrix entry must be 0 or 1, got '{e}'"),
                            ));
                        }
                        if bit == 1 && row == col {
                            return Err(err(rno, "self-loop on matrix diagonal"));
                        }
                        if col < row && (bit == 1) != upper.contains(&(col, row)) {
                            return Err(err(
                                rno,
                                format!(
                                    "matrix entry ({row},{col}) is {bit} but ({col},{row}) is {}: \
                                     the matrix must be symmetric",
                                    1 - bit
                                ),
                            ));
                        }
                        if bit == 1 {
                            if row < col {
                                upper.insert((row, col));
                            }
                            // A pair already declared keeps its link.
                            let (a, b) = (row as u32, col as u32);
                            index.entry((a, b)).or_insert_with(|| {
                                links.push(LinkProps {
                                    src: CoreId(a),
                                    dst: CoreId(b),
                                    latency: default_latency,
                                    bandwidth_bytes_per_cycle: default_bw,
                                })
                            });
                        }
                    }
                }
            }
            "link" => {
                let n = n_cores.ok_or_else(|| err(lineno, "'link' before 'cores'"))?;
                let a: u32 = toks
                    .next()
                    .ok_or_else(|| err(lineno, "missing link endpoint"))?
                    .parse()
                    .map_err(|_| err(lineno, "invalid link endpoint"))?;
                let b: u32 = toks
                    .next()
                    .ok_or_else(|| err(lineno, "missing link endpoint"))?
                    .parse()
                    .map_err(|_| err(lineno, "invalid link endpoint"))?;
                if a >= n || b >= n {
                    return Err(err(lineno, format!("link endpoint out of range ({a},{b})")));
                }
                if a == b {
                    return Err(err(lineno, "self-loop link"));
                }
                let mut latency = default_latency;
                let mut bw = default_bw;
                for tok in toks {
                    let (k, v) = parse_kv(tok, lineno)?;
                    match k {
                        "latency" => latency = parse_latency(v, lineno)?,
                        "bandwidth" => {
                            bw = v.parse().map_err(|_| err(lineno, "invalid bandwidth"))?;
                            if bw == 0 {
                                return Err(err(lineno, "bandwidth must be non-zero"));
                            }
                        }
                        other => return Err(err(lineno, format!("unknown key '{other}'"))),
                    }
                }
                if let Some(&ab) = index.get(&(a, b)) {
                    // A repeated pair overrides both directions; every pair
                    // is declared both ways (matrices must be symmetric).
                    for id in [ab, index[&(b, a)]] {
                        links.set(id, latency, bw);
                    }
                } else {
                    for (src, dst) in [(a, b), (b, a)] {
                        let id = links.push(LinkProps {
                            src: CoreId(src),
                            dst: CoreId(dst),
                            latency,
                            bandwidth_bytes_per_cycle: bw,
                        });
                        index.insert((src, dst), id);
                    }
                }
            }
            other => return Err(err(lineno, format!("unknown keyword '{other}'"))),
        }
        if links.overflowed() {
            return Err(err(
                lineno,
                format!("more than {MAX_LINK_CLASSES} distinct link latency/bandwidth pairs"),
            ));
        }
    }

    let n = n_cores.ok_or_else(|| err(0, "missing 'cores' declaration"))?;
    let topo = Topology::from_links(n, links);
    if !topo.is_connected() {
        return Err(err(0, "topology is not connected"));
    }
    Ok(topo)
}

/// Serialize a topology back to the configuration format (matrix plus
/// overrides for links that differ from the most common latency/bandwidth).
pub fn format_topology(topo: &Topology) -> String {
    use std::fmt::Write as _;
    let n = topo.n_cores();
    // Most common (latency, bandwidth) pair becomes the default; among
    // equally common ones the lowest latency, then the first seen.
    let (def_lat, def_bw) = topo
        .link_classes()
        .enumerate()
        .max_by_key(|&(i, c)| (c.links, Reverse(c.latency), Reverse(i)))
        .map_or(
            (DEFAULT_LINK_LATENCY.ticks(), DEFAULT_LINK_BANDWIDTH),
            |(_, c)| (c.latency.ticks(), c.bandwidth),
        );

    let mut out = String::new();
    let _ = writeln!(out, "cores {n}");
    let _ = writeln!(
        out,
        "default latency={} bandwidth={def_bw}",
        def_lat as f64 / TICKS_PER_CYCLE as f64
    );
    let _ = writeln!(out, "matrix");
    for a in 0..n {
        let row: Vec<&str> = (0..n)
            .map(|b| {
                if topo.are_neighbors(CoreId(a), CoreId(b)) {
                    "1"
                } else {
                    "0"
                }
            })
            .collect();
        let _ = writeln!(out, "{}", row.join(" "));
    }
    for l in topo.links() {
        if l.src < l.dst && (l.latency.ticks() != def_lat || l.bandwidth_bytes_per_cycle != def_bw)
        {
            let _ = writeln!(
                out,
                "link {} {} latency={} bandwidth={}",
                l.src.0,
                l.dst.0,
                l.latency.ticks() as f64 / TICKS_PER_CYCLE as f64,
                l.bandwidth_bytes_per_cycle
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{clustered_mesh, mesh_2d, ClusterParams};

    const SAMPLE: &str = "\
# a 4-core ring with one fast chord
cores 4
default latency=1 bandwidth=128
matrix
0 1 0 1
1 0 1 0
0 1 0 1
1 0 1 0
link 0 2 latency=0.5 bandwidth=256
";

    #[test]
    fn parse_sample() {
        let t = parse_topology(SAMPLE).unwrap();
        assert_eq!(t.n_cores(), 4);
        assert!(t.are_neighbors(CoreId(0), CoreId(2)));
        let chord = t.link_between(CoreId(0), CoreId(2)).unwrap();
        assert_eq!(t.link(chord).latency, VDuration::from_half_cycles(1));
        assert_eq!(t.link(chord).bandwidth_bytes_per_cycle, 256);
        let ringl = t.link_between(CoreId(0), CoreId(1)).unwrap();
        assert_eq!(t.link(ringl).latency, VDuration::from_cycles(1));
    }

    #[test]
    fn link_override_of_matrix_edge() {
        let cfg = "cores 2\nmatrix\n0 1\n1 0\nlink 0 1 latency=4\n";
        let t = parse_topology(cfg).unwrap();
        let l = t.link_between(CoreId(0), CoreId(1)).unwrap();
        assert_eq!(t.link(l).latency, VDuration::from_cycles(4));
        let r = t.link_between(CoreId(1), CoreId(0)).unwrap();
        assert_eq!(t.link(r).latency, VDuration::from_cycles(4));
    }

    #[test]
    fn round_trip_mesh() {
        let orig = mesh_2d(16);
        let text = format_topology(&orig);
        let parsed = parse_topology(&text).unwrap();
        assert_eq!(parsed.n_cores(), orig.n_cores());
        assert_eq!(parsed.n_links(), orig.n_links());
        for a in orig.cores() {
            for b in orig.cores() {
                assert_eq!(orig.are_neighbors(a, b), parsed.are_neighbors(a, b));
                if let Some(l) = orig.link_between(a, b) {
                    let p = parsed.link_between(a, b).unwrap();
                    assert_eq!(orig.link(l).latency, parsed.link(p).latency);
                }
            }
        }
    }

    #[test]
    fn round_trip_clustered() {
        let orig = clustered_mesh(16, ClusterParams::paper(4));
        let text = format_topology(&orig);
        let parsed = parse_topology(&text).unwrap();
        for a in orig.cores() {
            for b in orig.cores() {
                if let Some(l) = orig.link_between(a, b) {
                    let p = parsed.link_between(a, b).unwrap();
                    assert_eq!(orig.link(l).latency, parsed.link(p).latency, "{a}->{b}");
                }
            }
        }
    }

    #[test]
    fn error_cases() {
        assert!(parse_topology("").unwrap_err().message.contains("cores"));
        assert!(parse_topology("cores 0").is_err());
        assert!(parse_topology("matrix")
            .unwrap_err()
            .message
            .contains("before"));
        assert!(parse_topology("cores 2\nmatrix\n0 1\n").is_err()); // truncated
        assert!(parse_topology("cores 2\nmatrix\n0 2\n2 0\n").is_err()); // bad entry
        assert!(parse_topology("cores 2\nmatrix\n1 1\n1 1\n").is_err()); // diagonal
        assert!(parse_topology("cores 2\nlink 0 0\n").is_err()); // self loop
        assert!(parse_topology("cores 2\nlink 0 5\n").is_err()); // range
        assert!(parse_topology("cores 2\nmatrix\n0 1\n1 0\nlink 0 1 latency=0.3\n").is_err());
        assert!(parse_topology("cores 3\nmatrix\n0 1 0\n1 0 0\n0 0 0\n").is_err()); // disconnected
        assert!(parse_topology("bogus 3").is_err());
    }

    /// A one-way entry used to become a one-way link, and the run then
    /// deadlocked on it; it is refused at the entry that breaks symmetry.
    #[test]
    fn asymmetric_matrix_rejected() {
        let e = parse_topology("cores 2\nmatrix\n0 1\n0 0\n").unwrap_err();
        assert_eq!(e.line, 4);
        assert_eq!(
            e.message,
            "matrix entry (1,0) is 0 but (0,1) is 1: the matrix must be symmetric"
        );
        let e = parse_topology("cores 3\nmatrix\n0 1 0\n1 0 0\n1 0 0\n").unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e
            .message
            .starts_with("matrix entry (2,0) is 1 but (0,2) is 0"));
    }

    /// Link ids follow declaration order, and a repeated `link` line
    /// overrides both directions of its pair in place.
    #[test]
    fn repeated_link_line_overrides_in_place() {
        let t = parse_topology("cores 3\nlink 0 1\nlink 1 2\nlink 1 0 latency=3\n").unwrap();
        assert_eq!(t.n_links(), 4);
        assert_eq!(t.link_between(CoreId(0), CoreId(1)), Some(LinkId(0)));
        assert_eq!(t.link_between(CoreId(1), CoreId(0)), Some(LinkId(1)));
        assert_eq!(t.link_between(CoreId(2), CoreId(1)), Some(LinkId(3)));
        assert_eq!(t.link(LinkId(0)).latency, VDuration::from_cycles(3));
        assert_eq!(t.link(LinkId(1)).latency, VDuration::from_cycles(3));
        assert_eq!(t.link(LinkId(2)).latency, VDuration::from_cycles(1));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let cfg = "\n# hi\ncores 2\n\nmatrix # the matrix\n0 1 # row\n1 0\n";
        assert!(parse_topology(cfg).is_ok());
    }

    #[test]
    fn error_reports_line_numbers() {
        let e = parse_topology("cores 2\nmatrix\n0 1\n1 junk\n").unwrap_err();
        assert_eq!(e.line, 4);
        assert!(format!("{e}").contains("line 4"));
    }
}
