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
//! An optional top-level `report = "fig8"` names the paper figure the
//! results reduce to ([`FIGURES`]); the service appends it to `report.md`.
//!
//! The JSON form is the same shape: `{"defaults": {...}, "sweep": [{...}]}`.
//! The axes are the scenario fields ([`crate::scenario::field_names`]),
//! and each value goes through [`Scenario::set`], so a value `simulate`
//! would refuse is refused here, before anything runs. Unknown keys are
//! rejected — a typoed axis silently pinning a default would corrupt a
//! whole sweep. Labels are `name/axis=value,...` over the axes that
//! actually vary within the block, and must be unique across the whole
//! spec.

use crate::figures::FIGURES;
use crate::json::Json;
use crate::scenario::{field_names, Scenario};

/// A parsed sweep spec.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    /// The expanded scenarios, in deterministic order.
    pub scenarios: Vec<Scenario>,
    /// The figure the results reduce to, if the spec names one.
    pub report: Option<String>,
}

/// Keys allowed in a `[[sweep]]` block beyond the axes (the scenario
/// fields).
const BLOCK_KEYS: &[&str] = &["name", "priority"];

/// Parse a sweep spec (TOML subset or JSON, auto-detected) and expand it
/// into the full scenario list, in deterministic order.
pub fn parse_spec(text: &str) -> Result<Spec, String> {
    let tree = if text.trim_start().starts_with('{') {
        Json::parse(text).map_err(|e| format!("bad JSON spec: {e}"))?
    } else {
        parse_toml(text)?
    };
    expand(&tree)
}

/// Read and parse a spec file.
pub fn load_spec(path: &str) -> Result<Spec, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read spec {path}: {e}"))?;
    parse_spec(&text).map_err(|e| format!("{path}: {e}"))
}

// ---------------------------------------------------------------- expansion

fn expand(tree: &Json) -> Result<Spec, String> {
    let Json::Obj(top) = tree else {
        return Err("spec root must be a table/object".into());
    };
    let mut defaults: Vec<(String, Json)> = Vec::new();
    let mut sweeps: &[Json] = &[];
    let mut report = None;
    for (key, value) in top {
        match key.as_str() {
            "report" => match value.as_str().filter(|name| FIGURES.contains(name)) {
                Some(name) => report = Some(name.to_string()),
                None => {
                    let (got, names) = (value.dump(), FIGURES.join(" | "));
                    return Err(format!("unknown report {got} (expected {names})"));
                }
            },
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
        if !field_names().any(|f| f == key) {
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
            if !field_names().any(|f| f == key) && !BLOCK_KEYS.contains(&key.as_str()) {
                return Err(format!("unknown key '{key}' in [[sweep]] '{name}'"));
            }
        }

        // Per-axis value lists, as text: block overrides defaults; absent
        // axes keep the Scenario default (a single implicit value).
        let mut axis_values: Vec<(&str, Vec<String>)> = Vec::new();
        for axis in field_names() {
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
                Some(Json::Arr(items)) => items.iter().map(|v| scalar_text(axis, v)).collect(),
                Some(scalar) => scalar_text(axis, scalar).map(|t| vec![t]),
            }
            .map_err(|e| format!("[[sweep]] '{name}': {e}"))?;
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
                s.set(axis, value)
                    .map_err(|e| format!("[[sweep]] '{name}': {}", e.message(axis, value)))?;
                if values.len() > 1 {
                    label_parts.push(format!("{axis}={value}"));
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

            // Advance the odometer; back at all zeros, the block is done.
            for (i, (_, values)) in index.iter_mut().zip(&axis_values).rev() {
                *i = (*i + 1) % values.len();
                if *i > 0 {
                    break;
                }
            }
            if index.iter().all(|&i| i == 0) {
                break;
            }
        }
    }
    Ok(Spec { scenarios, report })
}

/// A scalar axis value as the text [`Scenario::set`] parses and labels
/// show: integral numbers without a fraction.
fn scalar_text(axis: &str, v: &Json) -> Result<String, String> {
    match v {
        Json::Str(s) => Ok(s.clone()),
        Json::Num(x) if x.fract() == 0.0 && x.abs() < 1e15 => Ok(format!("{}", *x as i64)),
        Json::Num(x) => Ok(format!("{x}")),
        other => Err(format!(
            "axis '{axis}' wants a string or a number, got {other:?}"
        )),
    }
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
        let scenarios = parse_spec(DRIFT_SPEC).unwrap().scenarios;
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
        let scenarios = parse_spec(spec).unwrap().scenarios;
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
        let err = parse_spec("[[sweep]]\nshard_phase_b = [true, false]\n").unwrap_err();
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
    fn report_names_a_known_figure() {
        let spec = parse_spec("report = \"fig12\"\n[[sweep]]\nseed = 1\n").unwrap();
        assert_eq!(spec.report.as_deref(), Some("fig12"));
        assert_eq!(parse_spec("[[sweep]]\nseed = 1\n").unwrap().report, None);
        for bad in ["\"fig11\"", "\"Fig5\"", "5"] {
            let err = parse_spec(&format!("report = {bad}\n[[sweep]]\nseed = 1\n")).unwrap_err();
            assert!(
                err.starts_with(&format!("unknown report {bad} (expected fig5 |")),
                "{err}"
            );
        }
    }

    #[test]
    fn shipped_example_specs_parse() {
        let drift = parse_spec(include_str!("../../../examples/sweeps/drift.toml")).unwrap();
        assert!(!drift.scenarios.is_empty());
        assert_eq!(drift.report, None);

        // The paper's figures: scenario count (kernels x machines x cores
        // x T x 2 seeds) and the figure each reduces to.
        for (text, count, figure) in [
            (
                include_str!("../../../examples/sweeps/fig5.toml"),
                4 * 2 * 7 * 2,
                "fig5",
            ),
            (
                include_str!("../../../examples/sweeps/fig6.toml"),
                4 * 2 * 7 * 2,
                "fig6",
            ),
            (
                include_str!("../../../examples/sweeps/fig7.toml"),
                6 * 2 * 5 * 2,
                "fig7",
            ),
            (
                include_str!("../../../examples/sweeps/fig8.toml"),
                6 * 5 * 2,
                "fig8",
            ),
            (
                include_str!("../../../examples/sweeps/fig9.toml"),
                6 * 5 * 2,
                "fig9",
            ),
            (
                include_str!("../../../examples/sweeps/fig10.toml"),
                6 * 3 * 4 * 2,
                "fig10",
            ),
            (
                include_str!("../../../examples/sweeps/fig12.toml"),
                6 * 3 * 4 * 2,
                "fig12",
            ),
            (
                include_str!("../../../examples/sweeps/fig13.toml"),
                6 * 9 * 2,
                "fig13",
            ),
            (
                include_str!("../../../examples/sweeps/ablation.toml"),
                4 * 2,
                "ablation",
            ),
        ] {
            let spec = parse_spec(text).unwrap();
            assert_eq!(spec.report.as_deref(), Some(figure));
            assert_eq!(spec.scenarios.len(), count, "{figure}");
            for s in &spec.scenarios {
                s.build_spec()
                    .unwrap_or_else(|e| panic!("{}: {e}", s.label));
            }
        }

        // The protocol resilience sweep: 3 protocols x 3 drop rates x
        // 3 heal times, every scenario digest-distinct (the scripted
        // partition knobs must reach the digest, or the service would
        // dedup different heal times into one run).
        let protocols = include_str!("../../../examples/sweeps/protocols.toml");
        let scenarios = parse_spec(protocols).unwrap().scenarios;
        assert_eq!(scenarios.len(), 27);
        let digests: std::collections::HashSet<_> =
            scenarios.iter().map(|s| s.digest().unwrap()).collect();
        assert_eq!(digests.len(), 27);
        assert!(scenarios.iter().all(|s| s.faults.any()));
        let quorum = scenarios.iter().find(|s| s.kernel == "quorum").unwrap();
        assert_eq!(quorum.faults.partition_at, Some(15_000));
    }
}
