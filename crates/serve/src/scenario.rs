//! One fully-specified simulation run, and how to set/build/identify/launch
//! it.
//!
//! `Scenario` is the unit the sweep service schedules: a (kernel, machine,
//! cores, scale, seed, sync policy, drift, fault knobs) tuple.
//! This module is the one place that knows those fields: [`field_names`]
//! lists them in a fixed order, [`Scenario::set`] parses and checks one
//! from text and `Scenario::get` reads one back. The `simulate` CLI sets
//! them from `--name value` flags and builds a [`ProgramSpec`] in-process;
//! the sweep spec sets them from its axes; the service serializes them
//! back to `simulate` arguments for a worker subprocess — so the spec a
//! worker runs is by construction the spec the digest was computed over.

use simany::kernels::protocols::{all_protocols, protocol_by_name};
use simany::kernels::{all_kernels, kernel_by_name};
use simany::prelude::*;
use simany::presets;

/// Deterministic fault-injection knobs, all off by default. Grouped so a
/// run can ask whether it needs a fault plan at all.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultKnobs {
    /// Probability each physical link pair fails.
    pub link_fail_prob: f64,
    /// Repair failed links after this many cycles (`None` = permanent).
    pub repair_after: Option<u64>,
    /// Per-link message drop probability.
    pub drop_prob: f64,
    /// Per-link message corruption probability.
    pub corrupt_prob: f64,
    /// Probability each core (except core 0) fails.
    pub core_fail_prob: f64,
    /// Window in cycles for sampled failure instants.
    pub fault_horizon: Option<u64>,
    /// Scripted half/half partition start, in cycles.
    pub partition_at: Option<u64>,
    /// Scripted partition heal instant, in cycles (`None` = permanent
    /// once `partition_at` is set).
    pub partition_heal: Option<u64>,
    /// Scripted crash-stop churn: number of cores to kill (never core 0).
    pub churn_cores: u32,
    /// Interval between scripted churn failures, in cycles.
    pub churn_every: Option<u64>,
}

impl FaultKnobs {
    /// True when any fault probability is non-zero or a scripted layer
    /// (partition / churn) is requested (a fault plan will be built).
    pub fn any(&self) -> bool {
        self.link_fail_prob > 0.0
            || self.drop_prob > 0.0
            || self.corrupt_prob > 0.0
            || self.core_fail_prob > 0.0
            || self.partition_at.is_some()
            || self.churn_cores > 0
    }

    /// Lower these knobs into the engine's [`FaultConfig`].
    pub fn to_config(&self) -> FaultConfig {
        let mut cfg = FaultConfig {
            link_fail_prob: self.link_fail_prob,
            repair_after: self.repair_after.map(VDuration::from_cycles),
            drop_prob: self.drop_prob,
            corrupt_prob: self.corrupt_prob,
            core_fail_prob: self.core_fail_prob,
            partition_at: self.partition_at.map(VirtualTime::from_cycles),
            partition_heal: self.partition_heal.map(VirtualTime::from_cycles),
            churn_cores: self.churn_cores,
            ..FaultConfig::default()
        };
        if let Some(h) = self.fault_horizon {
            cfg.horizon = VirtualTime::from_cycles(h);
        }
        if let Some(e) = self.churn_every {
            cfg.churn_every = VDuration::from_cycles(e);
        }
        cfg
    }
}

/// A single sweep point: everything needed to run one simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Human-readable unique label, e.g. `drift/kernel=quicksort,drift=500`.
    pub label: String,
    /// Dwarf kernel or protocol workload name (`quicksort`, `gossip`,
    /// ...), as given: any case-insensitive prefix of one.
    pub kernel: String,
    /// Simulated core count.
    pub cores: u32,
    /// Machine preset: `mesh` | `mesh3d` | `clustered` | `chiplet` |
    /// `polymorphic` | `cycle-level` | `cycle-level-polymorphic`.
    pub machine: String,
    /// Memory architecture: `sm` | `dm` | `smc`.
    pub arch: String,
    /// Cluster count for `machine = "clustered"`, chiplet count for
    /// `machine = "chiplet"`; other machines ignore it.
    pub clusters: u32,
    /// Workload scale factor.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Synchronization policy name: `spatial` | `bounded-slack` |
    /// `conservative` | `unbounded`.
    pub sync: String,
    /// Drift bound / slack window `T` in cycles (policy-dependent;
    /// `None` keeps the preset default).
    pub drift: Option<u64>,
    /// Scheduling priority: higher runs earlier; ties resolve FIFO.
    pub priority: i64,
    /// Fault-injection knobs.
    pub faults: FaultKnobs,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            label: String::new(),
            kernel: "quicksort".into(),
            cores: 16,
            machine: "mesh".into(),
            arch: "sm".into(),
            clusters: 4,
            scale: 0.5,
            seed: 1,
            sync: "spatial".into(),
            drift: None,
            priority: 0,
            faults: FaultKnobs::default(),
        }
    }
}

/// Where [`Scenario::set`] writes a field, by how its text is checked.
enum Slot<'a> {
    Kernel(&'a mut String),
    /// A name [`Scenario::build_spec`] checks (machine, arch, sync policy).
    Name(&'a mut String),
    Count(&'a mut u32),
    Seed(&'a mut u64),
    /// Cycles; unset keeps the default.
    Cycles(&'a mut Option<u64>),
    Prob(&'a mut f64),
    Scale(&'a mut f64),
}

/// The place a field's value lives in a scenario.
type Accessor = fn(&mut Scenario) -> Slot<'_>;

/// Every field of a run's parameters, in the fixed order used for sweep
/// expansion, labels and worker arguments. The `simulate` flag of a field
/// is its name with `-` for `_`.
#[rustfmt::skip]
const FIELDS: &[(&str, Accessor)] = &[
    ("kernel",         |s| Slot::Kernel(&mut s.kernel)),
    ("machine",        |s| Slot::Name(&mut s.machine)),
    ("arch",           |s| Slot::Name(&mut s.arch)),
    ("clusters",       |s| Slot::Count(&mut s.clusters)),
    ("cores",          |s| Slot::Count(&mut s.cores)),
    ("scale",          |s| Slot::Scale(&mut s.scale)),
    ("seed",           |s| Slot::Seed(&mut s.seed)),
    ("sync",           |s| Slot::Name(&mut s.sync)),
    ("drift",          |s| Slot::Cycles(&mut s.drift)),
    ("link_fail_prob", |s| Slot::Prob(&mut s.faults.link_fail_prob)),
    ("repair_after",   |s| Slot::Cycles(&mut s.faults.repair_after)),
    ("drop_prob",      |s| Slot::Prob(&mut s.faults.drop_prob)),
    ("corrupt_prob",   |s| Slot::Prob(&mut s.faults.corrupt_prob)),
    ("core_fail_prob", |s| Slot::Prob(&mut s.faults.core_fail_prob)),
    ("fault_horizon",  |s| Slot::Cycles(&mut s.faults.fault_horizon)),
    ("partition_at",   |s| Slot::Cycles(&mut s.faults.partition_at)),
    ("partition_heal", |s| Slot::Cycles(&mut s.faults.partition_heal)),
    ("churn_cores",    |s| Slot::Count(&mut s.faults.churn_cores)),
    ("churn_every",    |s| Slot::Cycles(&mut s.faults.churn_every)),
];

/// The scenario fields' names, in their fixed order.
pub fn field_names() -> impl Iterator<Item = &'static str> {
    FIELDS.iter().map(|&(name, _)| name)
}

fn slot(name: &str) -> Option<Accessor> {
    FIELDS.iter().find(|&&(n, _)| n == name).map(|&(_, f)| f)
}

/// Why [`Scenario::set`] refused a value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FieldError {
    /// No scenario field has this name.
    Unknown,
    /// The text does not parse as the field's type, or is out of range.
    BadValue,
    /// The kernel names neither a dwarf kernel nor a protocol workload.
    UnknownKernel,
}

impl FieldError {
    /// The one-line refusal of `raw` for the field as the user spelled it
    /// (`drop_prob` in a spec, `--drop-prob` on the command line).
    pub fn message(self, name: &str, raw: &str) -> String {
        match self {
            FieldError::Unknown => format!("unknown field '{name}'"),
            FieldError::BadValue => format!("bad value for {name}: '{raw}'"),
            FieldError::UnknownKernel => {
                let kernels: Vec<_> = all_kernels().iter().map(|k| k.name()).collect();
                let protocols: Vec<_> = all_protocols().iter().map(|p| p.name()).collect();
                let (kernels, protocols) = (kernels.join(", "), protocols.join(", "));
                format!("unknown kernel '{raw}'; available: {kernels}; protocols: {protocols}")
            }
        }
    }
}

/// Map a sync-policy name + window to a [`SyncPolicy`]. `drift` falls back
/// to the paper default `T = 100` for windowed policies. A zero window is
/// refused under spatial sync, where no stalled core could ever be the
/// first to move (the run would end in a deadlock); bounded slack runs in
/// lock-step at zero and accepts it.
fn sync_policy(name: &str, drift: Option<u64>) -> Result<SyncPolicy, String> {
    let window = VDuration::from_cycles(drift.unwrap_or(100));
    Ok(match name {
        "spatial" if window.is_zero() => {
            return Err("bad value for --drift: '0' (spatial sync needs T >= 1)".into())
        }
        "spatial" => SyncPolicy::Spatial { t: window },
        "bounded-slack" => SyncPolicy::BoundedSlack { window },
        "conservative" => SyncPolicy::Conservative,
        "unbounded" => SyncPolicy::Unbounded,
        other => {
            return Err(format!(
                "unknown sync policy '{other}' (expected spatial | bounded-slack | \
                 conservative | unbounded)"
            ))
        }
    })
}

impl Scenario {
    /// Build the [`ProgramSpec`] this scenario describes. Mirrors the
    /// `simulate` CLI's spec construction exactly — `simulate` itself calls
    /// this — so a scenario's digest matches the worker's run.
    pub fn build_spec(&self) -> Result<ProgramSpec, String> {
        if self.cores == 0 {
            return Err("cores must be at least 1".into());
        }
        let mut spec = match self.machine.as_str() {
            "mesh" => presets::uniform_mesh_sm(self.cores),
            "mesh3d" => presets::mesh3d_sm(self.cores),
            "clustered" => {
                simany::topology::cluster_tiles(self.cores, self.clusters)
                    .map_err(|e| format!("machine 'clustered': {e}"))?;
                presets::clustered_dm(self.cores, self.clusters)
            }
            "chiplet" => {
                if self.clusters == 0 || !self.cores.is_multiple_of(self.clusters) {
                    return Err(format!(
                        "machine 'chiplet' needs cores ({}) divisible by clusters ({})",
                        self.cores, self.clusters
                    ));
                }
                presets::chiplet_dm(self.cores, self.clusters)
            }
            "polymorphic" => presets::polymorphic_sm(self.cores),
            "cycle-level" => presets::cycle_level(self.cores),
            "cycle-level-polymorphic" => presets::cycle_level_polymorphic(self.cores),
            other => {
                return Err(format!(
                    "unknown machine '{other}' (expected mesh | mesh3d | clustered | \
                     chiplet | polymorphic | cycle-level | cycle-level-polymorphic)"
                ))
            }
        };
        // The reference machines fix their own memory model.
        if !self.machine.starts_with("cycle-level") {
            spec.runtime = match self.arch.as_str() {
                "sm" => RuntimeParams::shared_memory(),
                "dm" => RuntimeParams::distributed_memory(),
                "smc" => RuntimeParams::shared_memory_coherent(),
                other => return Err(format!("unknown arch '{other}' (expected sm | dm | smc)")),
            };
        }
        // The preset's policy survives unless the spec asks for something:
        // cycle-level machines pin Conservative, and overriding it with the
        // default "spatial" would silently change what is being measured.
        if self.drift.is_some() || self.sync != "spatial" {
            spec.engine.sync = sync_policy(&self.sync, self.drift)?;
        }
        spec.engine = spec.engine.with_seed(self.seed);
        if self.faults.any() {
            let plan = FaultPlan::sample(&spec.topo, &self.faults.to_config(), self.seed);
            spec.engine = spec.engine.with_fault_plan(std::sync::Arc::new(plan));
        }
        Ok(spec)
    }

    /// The scenario's identity digest: the engine's 16-hex config digest
    /// (sync policy, seed, fault-plan shape, ...) folded with the
    /// workload identity the engine cannot see (kernel, machine, scale).
    /// Scenarios with equal digests produce bit-identical runs, so the
    /// service runs each digest once and fans the result out.
    pub fn digest(&self) -> Result<u64, String> {
        let spec = self.build_spec()?;
        let mut h = simany::core::config_digest(&spec.engine);
        for part in [
            self.kernel.as_str(),
            self.machine.as_str(),
            self.arch.as_str(),
        ] {
            h = fold_str(h, part);
        }
        if self.machine == "clustered" || self.machine == "chiplet" {
            h = fold_u64(h, self.clusters as u64);
        }
        h = fold_u64(h, self.cores as u64);
        h = fold_u64(h, self.scale.to_bits());
        h = fold_u64(h, self.seed);
        // The engine digest folds only the fault plan's *shape* (epoch
        // count, fault classes); two partitions at different instants — or
        // different churn schedules — would collide. Fold the scripted
        // knobs explicitly so every sweep point stays distinct.
        let f = &self.faults;
        if f.any() {
            // Same reasoning for the sampled knobs: two drop rates (say
            // 0.05 and 0.2) can sample plans with identical shapes, yet
            // the runs differ. Fold the raw knob values.
            h = fold_str(h, "fault_knobs");
            for p in [
                f.link_fail_prob,
                f.drop_prob,
                f.corrupt_prob,
                f.core_fail_prob,
            ] {
                h = fold_u64(h, p.to_bits());
            }
            h = fold_u64(h, f.repair_after.map_or(u64::MAX, |x| x));
            h = fold_u64(h, f.fault_horizon.map_or(u64::MAX, |x| x));
        }
        if let Some(t) = f.partition_at {
            h = fold_str(h, "partition_at");
            h = fold_u64(h, t);
            h = fold_u64(h, f.partition_heal.map_or(u64::MAX, |x| x));
        }
        if f.churn_cores > 0 {
            h = fold_str(h, "churn");
            h = fold_u64(h, u64::from(f.churn_cores));
            h = fold_u64(h, f.churn_every.unwrap_or(10_000));
        }
        Ok(h)
    }

    /// The digest as the canonical 16-hex string used in journals, file
    /// names and result records.
    pub fn digest_hex(&self) -> Result<String, String> {
        Ok(format!("{:016x}", self.digest()?))
    }

    /// Serialize back to `simulate` command-line arguments: every field
    /// that differs from the default, as `--name value` (everything except
    /// checkpoint/resume/json flags, which the service owns).
    pub fn to_simulate_args(&self) -> Vec<String> {
        let base = Scenario::default();
        let mut args = Vec::new();
        for name in field_names() {
            if let Some(v) = self
                .get(name)
                .filter(|v| Some(v) != base.get(name).as_ref())
            {
                args.extend([format!("--{}", name.replace('_', "-")), v]);
            }
        }
        args
    }

    /// Parse and check `raw` as field `name`, then store it: numbers must
    /// parse, probabilities lie in [0, 1], the scale is finite and above
    /// zero, and the kernel names a dwarf kernel or protocol workload.
    /// Names (kernel, machine, arch, sync) are stored as given. Checks that
    /// span two fields are [`Scenario::build_spec`]'s.
    pub fn set(&mut self, name: &str, raw: &str) -> Result<(), FieldError> {
        fn num<T: std::str::FromStr>(raw: &str) -> Result<T, FieldError> {
            raw.parse().map_err(|_| FieldError::BadValue)
        }
        let in_range =
            |ok: fn(f64) -> bool| num(raw).ok().filter(|&x| ok(x)).ok_or(FieldError::BadValue);
        match slot(name).ok_or(FieldError::Unknown)?(self) {
            Slot::Kernel(_) if kernel_by_name(raw).is_none() && protocol_by_name(raw).is_none() => {
                return Err(FieldError::UnknownKernel)
            }
            Slot::Kernel(text) | Slot::Name(text) => *text = raw.to_string(),
            Slot::Count(n) => *n = num(raw)?,
            Slot::Seed(n) => *n = num(raw)?,
            Slot::Cycles(t) => *t = Some(num(raw)?),
            Slot::Prob(p) => *p = in_range(|p| (0.0..=1.0).contains(&p))?,
            Slot::Scale(f) => *f = in_range(|f| f.is_finite() && f > 0.0)?,
        }
        Ok(())
    }

    /// Field `name` as the text [`Scenario::set`] takes, or `None` for an
    /// unset optional field or an unknown name.
    pub(crate) fn get(&self, name: &str) -> Option<String> {
        // The slots hand out `&mut`, so read through a copy.
        let mut copy = self.clone();
        Some(match slot(name)?(&mut copy) {
            Slot::Kernel(text) | Slot::Name(text) => text.clone(),
            Slot::Count(n) => n.to_string(),
            Slot::Seed(n) => n.to_string(),
            Slot::Cycles(t) => t.as_ref()?.to_string(),
            Slot::Prob(x) | Slot::Scale(x) => x.to_string(),
        })
    }
}

fn fold_u64(h: u64, x: u64) -> u64 {
    // Same FNV-1a-style fold as the engine's config digest, applied to the
    // workload identity on top of the engine digest.
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = h;
    for byte in x.to_le_bytes() {
        h = (h ^ byte as u64).wrapping_mul(PRIME);
    }
    h
}

fn fold_str(h: u64, s: &str) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = h;
    for byte in s.bytes() {
        h = (h ^ byte as u64).wrapping_mul(PRIME);
    }
    // Terminator so ("ab","c") and ("a","bc") fold differently.
    (h ^ 0xff).wrapping_mul(PRIME)
}

/// Locate a sibling binary of the current executable (e.g. `simulate` next
/// to `simany-serve`, or one directory up from a test executable living in
/// `target/<profile>/deps/`). Returns `None` if not found.
pub fn sibling_binary(name: &str) -> Option<std::path::PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let file = format!("{name}{}", std::env::consts::EXE_SUFFIX);
    let mut dir = exe.parent()?;
    for _ in 0..3 {
        let candidate = dir.join(&file);
        if candidate.is_file() {
            return Some(candidate);
        }
        dir = dir.parent()?;
    }
    None
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_discriminating() {
        let a = Scenario::default();
        let b = Scenario::default();
        assert_eq!(a.digest().unwrap(), b.digest().unwrap());

        let mut c = Scenario::default();
        c.seed = 2;
        assert_ne!(a.digest().unwrap(), c.digest().unwrap());

        let mut d = Scenario::default();
        d.kernel = "connected".into();
        assert_ne!(a.digest().unwrap(), d.digest().unwrap());

        let mut e = Scenario::default();
        e.drift = Some(500);
        assert_ne!(a.digest().unwrap(), e.digest().unwrap());
    }

    #[test]
    fn scripted_fault_knobs_flow_through() {
        let mut s = Scenario::default();
        s.faults.partition_at = Some(5_000);
        s.faults.partition_heal = Some(30_000);
        s.faults.churn_cores = 3;
        s.faults.churn_every = Some(2_000);
        assert!(s.faults.any());
        let spec = s.build_spec().unwrap();
        let plan = spec.engine.fault.as_ref().expect("scripted plan installed");
        assert!(plan.epoch_count() > 1, "partition creates link epochs");
        assert!(plan.has_core_faults(), "churn kills cores");
        let args = s.to_simulate_args();
        assert!(args.windows(2).any(|w| w == ["--partition-at", "5000"]));
        assert!(args.windows(2).any(|w| w == ["--partition-heal", "30000"]));
        assert!(args.windows(2).any(|w| w == ["--churn-cores", "3"]));
        assert!(args.windows(2).any(|w| w == ["--churn-every", "2000"]));
        // Two partitions at different instants must be distinct sweep
        // points even though the engine digest only sees the plan shape.
        let mut t = s.clone();
        t.faults.partition_at = Some(10_000);
        assert_ne!(s.digest().unwrap(), t.digest().unwrap());
        assert_ne!(s.digest().unwrap(), Scenario::default().digest().unwrap());
    }

    #[test]
    fn label_is_not_part_of_identity() {
        let mut a = Scenario::default();
        a.label = "first".into();
        let mut b = Scenario::default();
        b.label = "second".into();
        assert_eq!(a.digest().unwrap(), b.digest().unwrap());
    }

    #[test]
    fn priority_is_not_part_of_identity() {
        let mut a = Scenario::default();
        a.priority = 5;
        assert_eq!(a.digest().unwrap(), Scenario::default().digest().unwrap());
    }

    #[test]
    fn bad_machine_and_sync_are_rejected() {
        let mut s = Scenario::default();
        s.machine = "torus".into();
        assert!(s.build_spec().is_err());

        let mut s = Scenario::default();
        s.sync = "psychic".into();
        assert!(s.build_spec().is_err());

        // A clustered machine whose cluster grid does not tile its mesh.
        let mut s = Scenario::default();
        s.machine = "clustered".into();
        for (cores, clusters, why) in [
            (16, 0, "cluster count 0 must divide core count 16"),
            (12, 4, "cluster grid 2x2 must tile mesh 4x3"),
        ] {
            (s.cores, s.clusters) = (cores, clusters);
            let err = s.build_spec().err().expect("refused");
            assert_eq!(err, format!("machine 'clustered': {why}"));
        }
        (s.cores, s.clusters) = (16, 4);
        assert!(s.build_spec().is_ok());
    }

    #[test]
    fn cycle_level_keeps_conservative_sync() {
        let mut s = Scenario::default();
        s.machine = "cycle-level".into();
        let spec = s.build_spec().unwrap();
        assert!(matches!(spec.engine.sync, SyncPolicy::Conservative));
    }

    /// Read `simulate` arguments back the way `simulate` does: each
    /// `--name value` pair is `set` on a default scenario.
    fn from_simulate_args(args: &[String]) -> Scenario {
        let mut s = Scenario::default();
        for pair in args.chunks(2) {
            let name = pair[0].strip_prefix("--").unwrap().replace('-', "_");
            s.set(&name, &pair[1]).unwrap();
        }
        s
    }

    #[test]
    fn simulate_args_roundtrip_shape() {
        let mut s = Scenario::default();
        s.drift = Some(500);
        s.sync = "bounded-slack".into();
        s.faults.drop_prob = 0.01;
        let args = s.to_simulate_args();
        assert!(args.windows(2).any(|w| w == ["--drift", "500"]));
        assert!(args.windows(2).any(|w| w == ["--sync", "bounded-slack"]));
        assert!(args.windows(2).any(|w| w == ["--drop-prob", "0.01"]));
        assert!(!args.iter().any(|a| a == "--clusters"));
        assert_eq!(from_simulate_args(&args), s);

        // Every field, one at a time and all at once, at a value other
        // than its default.
        let other = [
            ("kernel", "gossip"),
            ("machine", "chiplet"),
            ("arch", "dm"),
            ("clusters", "8"),
            ("cores", "64"),
            ("scale", "0.1"),
            ("seed", "18446744073709551615"),
            ("sync", "conservative"),
            ("drift", "0"),
            ("link_fail_prob", "0.001"),
            ("repair_after", "5000"),
            ("drop_prob", "1"),
            ("corrupt_prob", "0.3"),
            ("core_fail_prob", "1e-5"),
            ("fault_horizon", "90000"),
            ("partition_at", "15000"),
            ("partition_heal", "40000"),
            ("churn_cores", "3"),
            ("churn_every", "2000"),
        ];
        assert!(field_names().eq(other.iter().map(|&(name, _)| name)));
        let mut all = Scenario::default();
        for (name, raw) in other {
            let mut one = Scenario::default();
            one.set(name, raw).unwrap();
            assert_ne!(one, Scenario::default(), "{name} = {raw}");
            assert_eq!(from_simulate_args(&one.to_simulate_args()), one, "{name}");
            all.set(name, raw).unwrap();
        }
        assert_eq!(from_simulate_args(&all.to_simulate_args()), all);

        // And every scenario of every shipped spec.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/sweeps");
        let mut specs = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            for s in crate::spec::load_spec(path.to_str().unwrap())
                .unwrap()
                .scenarios
            {
                let args = s.to_simulate_args();
                let back = Scenario {
                    label: s.label.clone(),
                    priority: s.priority,
                    ..from_simulate_args(&args)
                };
                assert_eq!(back, s, "{args:?}");
            }
            specs += 1;
        }
        assert!(specs >= 2, "examples/sweeps/ holds {specs} specs");
    }

    #[test]
    fn set_refuses_what_simulate_refuses() {
        let mut s = Scenario::default();
        for (name, raw) in [
            ("drop_prob", "1.5"),
            ("core_fail_prob", "-0.1"),
            ("link_fail_prob", "NaN"),
            ("scale", "-1"),
            ("scale", "0"),
            ("scale", "inf"),
            ("cores", "x"),
            ("seed", "-3"),
            ("drift", "1.5"),
        ] {
            assert_eq!(
                s.set(name, raw),
                Err(FieldError::BadValue),
                "{name} = {raw}"
            );
        }
        assert_eq!(s.set("kernel", "nosuch"), Err(FieldError::UnknownKernel));
        assert_eq!(s.set("wat", "1"), Err(FieldError::Unknown));
        assert_eq!(s, Scenario::default(), "a refused value is not stored");
        // Names are stored as given: the digest folds the kernel string.
        s.set("kernel", "Quick").unwrap();
        assert_eq!(s.kernel, "Quick");
        assert_eq!(
            FieldError::BadValue.message("--drop-prob", "2"),
            "bad value for --drop-prob: '2'"
        );
    }
}
