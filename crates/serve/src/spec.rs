//! Sweep-spec parsing and cartesian expansion.
//!
//! A sweep spec is a TOML-subset or JSON file describing a queue of
//! scenarios. Shape:
//!
//! ```toml
//! # Optional defaults merged into every sweep block.
//! [defaults]
//! kernel = "quicksort"
//! cores = 64
//! scale = 0.25
//!
//! # Each [[sweep]] block expands the cartesian product of its
//! # array-valued axes. Scalars pin an axis to one value.
//! [[sweep]]
//! name = "drift"
//! priority = 1
//! drift = [50, 100, 500, 1000]
//! kernel = ["quicksort", "spmxv"]
//! ```
//!
//! The JSON form is the same shape: `{"defaults": {...}, "sweep": [{...}]}`.
//! Unknown keys are rejected — a typoed axis silently pinning a default
//! would corrupt a whole sweep. Labels are `name/axis=value,...` over the
//! axes that actually vary within the block, and must be unique across the
//! whole spec.

use crate::json::Json;
use crate::scenario::Scenario;

/// Axes a sweep block may set, in the fixed order used for cartesian
/// expansion and label construction.
const AXES: &[&str] = &[
    "kernel",
    "machine",
    "arch",
    "clusters",
    "cores",
    "scale",
    "seed",
    "sync",
    "drift",
    "threads",
    "link_fail_prob",
    "repair_after",
    "drop_prob",
    "corrupt_prob",
    "core_fail_prob",
    "fault_horizon",
    "partition_at",
    "partition_heal",
    "churn_cores",
    "churn_every",
];

/// Keys allowed in a `[[sweep]]` block beyond the axes.
const BLOCK_KEYS: &[&str] = &["name", "priority"];

/// Parse a sweep spec (TOML subset or JSON, auto-detected) and expand it
/// into the full scenario list, in deterministic order.
pub fn parse_spec(text: &str) -> Result<Vec<Scenario>, String> {
    let tree = if text.trim_start().starts_with('{') {
        Json::parse(text).map_err(|e| format!("bad JSON spec: {e}"))?
    } else {
        parse_toml(text)?
    };
    expand(&tree)
}

/// Read and parse a spec file.
pub fn load_spec(path: &str) -> Result<Vec<Scenario>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read spec {path}: {e}"))?;
    parse_spec(&text).map_err(|e| format!("{path}: {e}"))
}

// ---------------------------------------------------------------- expansion

fn expand(tree: &Json) -> Result<Vec<Scenario>, String> {
    let Json::Obj(top) = tree else {
        return Err("spec root must be a table/object".into());
    };
    let mut defaults: Vec<(String, Json)> = Vec::new();
    let mut sweeps: &[Json] = &[];
    for (key, value) in top {
        match key.as_str() {
            "defaults" => match value {
                Json::Obj(fields) => defaults = fields.clone(),
                _ => return Err("[defaults] must be a table".into()),
            },
            "sweep" => match value {
                Json::Arr(blocks) => sweeps = blocks,
                _ => return Err("sweep must be an array of tables ([[sweep]] blocks)".into()),
            },
            other => return Err(format!("unknown top-level key '{other}'")),
        }
    }
    for (key, _) in &defaults {
        if !AXES.contains(&key.as_str()) {
            return Err(format!("unknown key '{key}' in [defaults]"));
        }
    }
    if sweeps.is_empty() {
        return Err("spec contains no [[sweep]] blocks".into());
    }

    let mut scenarios = Vec::new();
    let mut labels = std::collections::HashSet::new();
    for (i, block) in sweeps.iter().enumerate() {
        let Json::Obj(fields) = block else {
            return Err(format!("[[sweep]] block {} is not a table", i + 1));
        };
        let name = block
            .get("name")
            .and_then(Json::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| format!("sweep{}", i + 1));
        let priority = match block.get("priority") {
            None => 0,
            Some(v) => v
                .as_f64()
                .filter(|x| x.fract() == 0.0)
                .map(|x| x as i64)
                .ok_or_else(|| format!("[[sweep]] '{name}': priority must be an integer"))?,
        };
        for (key, _) in fields {
            if !AXES.contains(&key.as_str()) && !BLOCK_KEYS.contains(&key.as_str()) {
                return Err(format!("unknown key '{key}' in [[sweep]] '{name}'"));
            }
        }

        // Per-axis value lists: block overrides defaults; absent axes keep
        // the Scenario default (a single implicit value).
        let mut axis_values: Vec<(&str, Vec<Json>)> = Vec::new();
        for axis in AXES {
            let v = block
                .get(axis)
                .or_else(|| defaults.iter().find(|(k, _)| k == axis).map(|(_, v)| v));
            let values = match v {
                None => continue,
                Some(Json::Arr(items)) if items.is_empty() => {
                    return Err(format!(
                        "[[sweep]] '{name}': axis '{axis}' is an empty array"
                    ))
                }
                Some(Json::Arr(items)) => items.clone(),
                Some(scalar) => vec![scalar.clone()],
            };
            axis_values.push((axis, values));
        }

        // Odometer loop over the cartesian product, in fixed axis order,
        // rightmost axis fastest.
        let mut index = vec![0usize; axis_values.len()];
        loop {
            let mut s = Scenario {
                priority,
                ..Scenario::default()
            };
            let mut label_parts = Vec::new();
            for (slot, (axis, values)) in index.iter().zip(&axis_values) {
                let value = &values[*slot];
                apply_axis(&mut s, axis, value).map_err(|e| format!("[[sweep]] '{name}': {e}"))?;
                if values.len() > 1 {
                    label_parts.push(format!("{axis}={}", scalar_label(value)));
                }
            }
            s.label = if label_parts.is_empty() {
                name.clone()
            } else {
                format!("{name}/{}", label_parts.join(","))
            };
            if !labels.insert(s.label.clone()) {
                return Err(format!(
                    "duplicate scenario label '{}' — give the [[sweep]] blocks distinct names",
                    s.label
                ));
            }
            scenarios.push(s);

            // Advance the odometer.
            let mut pos = index.len();
            loop {
                if pos == 0 {
                    break;
                }
                pos -= 1;
                index[pos] += 1;
                if index[pos] < axis_values[pos].1.len() {
                    break;
                }
                index[pos] = 0;
            }
            if index.iter().all(|&i| i == 0) {
                break;
            }
        }
    }
    Ok(scenarios)
}

fn scalar_label(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        Json::Num(x) => {
            if x.fract() == 0.0 && x.abs() < 1e15 {
                format!("{}", *x as i64)
            } else {
                format!("{x}")
            }
        }
        Json::Bool(b) => b.to_string(),
        other => format!("{other:?}"),
    }
}

fn apply_axis(s: &mut Scenario, axis: &str, v: &Json) -> Result<(), String> {
    let want_str = |v: &Json| {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("axis '{axis}' wants a string, got {v:?}"))
    };
    let want_u64 = |v: &Json| {
        v.as_u64()
            .ok_or_else(|| format!("axis '{axis}' wants a non-negative integer, got {v:?}"))
    };
    let want_f64 = |v: &Json| {
        v.as_f64()
            .ok_or_else(|| format!("axis '{axis}' wants a number, got {v:?}"))
    };
    match axis {
        "kernel" => s.kernel = want_str(v)?,
        "machine" => s.machine = want_str(v)?,
        "arch" => s.arch = want_str(v)?,
        "sync" => s.sync = want_str(v)?,
        "clusters" => s.clusters = want_u64(v)? as u32,
        "cores" => s.cores = want_u64(v)? as u32,
        "threads" => s.threads = want_u64(v)? as u32,
        "seed" => s.seed = want_u64(v)?,
        "drift" => s.drift = Some(want_u64(v)?),
        "repair_after" => s.faults.repair_after = Some(want_u64(v)?),
        "fault_horizon" => s.faults.fault_horizon = Some(want_u64(v)?),
        "partition_at" => s.faults.partition_at = Some(want_u64(v)?),
        "partition_heal" => s.faults.partition_heal = Some(want_u64(v)?),
        "churn_cores" => s.faults.churn_cores = want_u64(v)? as u32,
        "churn_every" => s.faults.churn_every = Some(want_u64(v)?),
        "scale" => s.scale = want_f64(v)?,
        "link_fail_prob" => s.faults.link_fail_prob = want_f64(v)?,
        "drop_prob" => s.faults.drop_prob = want_f64(v)?,
        "corrupt_prob" => s.faults.corrupt_prob = want_f64(v)?,
        "core_fail_prob" => s.faults.core_fail_prob = want_f64(v)?,
        other => return Err(format!("unknown axis '{other}'")),
    }
    Ok(())
}

// ------------------------------------------------------------- TOML subset

/// Parse the TOML subset used by sweep specs into the same [`Json`] tree
/// the JSON path produces. Supported: comments, `[table]`,
/// `[[array-of-tables]]`, `key = value` with string / integer / float /
/// bool / flat-array values.
pub fn parse_toml(text: &str) -> Result<Json, String> {
    let mut root: Vec<(String, Json)> = Vec::new();
    // Path into `root` where new keys land: None = top level, otherwise the
    // name of the current [table] or [[array-of-tables]] entry.
    let mut cursor: Option<(String, bool)> = None;

    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        let err = |msg: String| format!("line {}: {msg}", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            let name = name.trim();
            if name.is_empty() || name.contains('.') {
                return Err(err(format!("unsupported table name '{name}'")));
            }
            match root.iter_mut().find(|(k, _)| k == name) {
                Some((_, Json::Arr(items))) => items.push(Json::Obj(Vec::new())),
                Some(_) => return Err(err(format!("'{name}' is both a table and an array"))),
                None => root.push((name.to_string(), Json::Arr(vec![Json::Obj(Vec::new())]))),
            }
            cursor = Some((name.to_string(), true));
        } else if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let name = name.trim();
            if name.is_empty() || name.contains('.') {
                return Err(err(format!("unsupported table name '{name}'")));
            }
            if root.iter().any(|(k, _)| k == name) {
                return Err(err(format!("table '{name}' defined twice")));
            }
            root.push((name.to_string(), Json::Obj(Vec::new())));
            cursor = Some((name.to_string(), false));
        } else if let Some(eq) = line.find('=') {
            let key = line[..eq].trim();
            if key.is_empty()
                || !key
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
            {
                return Err(err(format!("bad key '{key}'")));
            }
            let value = parse_toml_value(line[eq + 1..].trim()).map_err(&err)?;
            let target = match &cursor {
                None => &mut root,
                Some((name, is_array)) => {
                    let entry = root
                        .iter_mut()
                        .find(|(k, _)| k == name)
                        .map(|(_, v)| v)
                        .expect("cursor points at existing entry");
                    match (entry, is_array) {
                        (Json::Arr(items), true) => match items.last_mut() {
                            Some(Json::Obj(fields)) => fields,
                            _ => unreachable!("array-of-tables entries are objects"),
                        },
                        (Json::Obj(fields), false) => fields,
                        _ => unreachable!("cursor kind matches entry kind"),
                    }
                }
            };
            if target.iter().any(|(k, _)| k == key) {
                return Err(err(format!("key '{key}' set twice")));
            }
            target.push((key.to_string(), value));
        } else {
            return Err(err(format!("cannot parse '{line}'")));
        }
    }
    Ok(Json::Obj(root))
}

fn strip_comment(line: &str) -> &str {
    // A '#' outside quotes starts a comment.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_toml_value(text: &str) -> Result<Json, String> {
    let text = text.trim();
    if text.is_empty() {
        return Err("missing value".into());
    }
    if let Some(inner) = text.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| "unterminated array (arrays must be on one line)".to_string())?;
        let mut items = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            items.push(parse_toml_value(part)?);
        }
        return Ok(Json::Arr(items));
    }
    if let Some(inner) = text.strip_prefix('"') {
        let inner = inner
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string {text}"))?;
        if inner.contains('"') || inner.contains('\\') {
            return Err(format!("escapes not supported in string {text}"));
        }
        return Ok(Json::Str(inner.to_string()));
    }
    match text {
        "true" => return Ok(Json::Bool(true)),
        "false" => return Ok(Json::Bool(false)),
        _ => {}
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("cannot parse value '{text}'"))
}

/// Split on commas that are not inside quotes (arrays are flat, so no
/// bracket nesting to track).
fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    const DRIFT_SPEC: &str = r#"
# EXPERIMENTS.md drift sweep as a spec.
[defaults]
cores = 64
scale = 0.25

[[sweep]]
name = "drift"
priority = 1
kernel = ["quicksort", "spmxv"]
drift = [50, 100, 500, 1000]

[[sweep]]
name = "baseline"
kernel = "quicksort"
"#;

    #[test]
    fn toml_expansion_is_cartesian_and_ordered() {
        let scenarios = parse_spec(DRIFT_SPEC).unwrap();
        assert_eq!(scenarios.len(), 2 * 4 + 1);
        // Fixed axis order: kernel before drift, rightmost (drift) fastest.
        assert_eq!(scenarios[0].label, "drift/kernel=quicksort,drift=50");
        assert_eq!(scenarios[1].label, "drift/kernel=quicksort,drift=100");
        assert_eq!(scenarios[4].label, "drift/kernel=spmxv,drift=50");
        assert_eq!(scenarios[8].label, "baseline");
        // Defaults applied everywhere.
        assert!(scenarios.iter().all(|s| s.cores == 64));
        assert!(scenarios.iter().all(|s| (s.scale - 0.25).abs() < 1e-12));
        assert_eq!(scenarios[0].priority, 1);
        assert_eq!(scenarios[8].priority, 0);
    }

    #[test]
    fn json_spec_parses_the_same() {
        let json = r#"{
            "defaults": {"cores": 64, "scale": 0.25},
            "sweep": [
                {"name": "drift", "priority": 1,
                 "kernel": ["quicksort", "spmxv"], "drift": [50, 100, 500, 1000]},
                {"name": "baseline", "kernel": "quicksort"}
            ]
        }"#;
        let a = parse_spec(DRIFT_SPEC).unwrap();
        let b = parse_spec(json).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn scripted_fault_axes_expand() {
        let spec = "[[sweep]]\nname = \"part\"\nkernel = \"gossip\"\n\
                    partition_at = [5000, 10000]\npartition_heal = 30000\n\
                    churn_cores = 2\nchurn_every = [1000, 2000]\n";
        let scenarios = parse_spec(spec).unwrap();
        assert_eq!(scenarios.len(), 4);
        assert_eq!(scenarios[0].faults.partition_at, Some(5_000));
        assert_eq!(scenarios[0].faults.partition_heal, Some(30_000));
        assert_eq!(scenarios[0].faults.churn_cores, 2);
        assert_eq!(scenarios[3].faults.churn_every, Some(2_000));
        assert!(scenarios.iter().all(|s| s.faults.any()));
    }

    #[test]
    fn unknown_keys_are_rejected() {
        assert!(parse_spec("[[sweep]]\ndrfit = [50]\n").is_err());
        assert!(parse_spec("[defaults]\ncoers = 64\n[[sweep]]\ndrift = [50]\n").is_err());
        assert!(parse_spec("[wat]\n").is_err());
        // A retired axis is an unknown key like any other.
        let err =
            parse_spec("[[sweep]]\nthreads = [1, 4]\nshard_phase_b = [true, false]\n").unwrap_err();
        assert!(err.contains("unknown key 'shard_phase_b'"), "{err}");
    }

    #[test]
    fn duplicate_labels_are_rejected() {
        let spec = "[[sweep]]\nname = \"x\"\nseed = 1\n[[sweep]]\nname = \"x\"\nseed = 2\n";
        let err = parse_spec(spec).unwrap_err();
        assert!(err.contains("duplicate scenario label"), "{err}");
    }

    #[test]
    fn empty_axis_and_empty_spec_are_rejected() {
        assert!(parse_spec("[[sweep]]\ndrift = []\n").is_err());
        assert!(parse_spec("[defaults]\ncores = 64\n").is_err());
    }

    #[test]
    fn toml_subset_edges() {
        let t = parse_toml("a = 1 # comment\nb = \"x # not comment\"\nc = [1, 2]\n").unwrap();
        assert_eq!(t.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(t.get("b").unwrap().as_str(), Some("x # not comment"));
        assert_eq!(t.get("c").unwrap().as_arr().unwrap().len(), 2);
        assert!(parse_toml("a = 1\na = 2\n").is_err());
        assert!(parse_toml("[a.b]\n").is_err());
        assert!(parse_toml("junk\n").is_err());
    }

    #[test]
    fn shipped_example_specs_parse() {
        let drift = include_str!("../../../examples/sweeps/drift.toml");
        assert!(!parse_spec(drift).unwrap().is_empty());

        // The protocol resilience sweep: 3 protocols x 3 drop rates x
        // 3 heal times, every scenario digest-distinct (the scripted
        // partition knobs must reach the digest, or the service would
        // dedup different heal times into one run).
        let protocols = include_str!("../../../examples/sweeps/protocols.toml");
        let scenarios = parse_spec(protocols).unwrap();
        assert_eq!(scenarios.len(), 27);
        let digests: std::collections::HashSet<_> =
            scenarios.iter().map(|s| s.digest().unwrap()).collect();
        assert_eq!(digests.len(), 27);
        assert!(scenarios.iter().all(|s| s.faults.any()));
        let quorum = scenarios.iter().find(|s| s.kernel == "quorum").unwrap();
        assert_eq!(quorum.faults.partition_at, Some(15_000));
    }
}
