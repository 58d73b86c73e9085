#![warn(missing_docs)]

//! # simany-fault — deterministic, seeded fault-injection plans
//!
//! At the 1000+-core scale SiMany targets, link and core failures are the
//! norm, not the exception. This crate provides the *fault plan*: a
//! precompiled, bit-reproducible schedule of what goes wrong and when,
//! shared by the network model (`simany-net`), the engine (`simany-core`)
//! and the task run-time system (`simany-runtime`).
//!
//! A [`FaultPlan`] describes, against one specific [`Topology`]:
//!
//! * **Link failures and recoveries** at virtual-time instants. The plan
//!   splits the timeline into *epochs* (maximal intervals with a constant
//!   dead-link set); the network model routes each epoch's traffic around
//!   its dead links, and the plan flags an epoch as *partitioned* when
//!   some pair of cores has no surviving route.
//! * **Per-link message drop / delay / corruption probabilities**, sampled
//!   at send time from a dedicated PRNG stream owned by the network model.
//! * **Permanent core failures** at virtual-time instants: a failed core
//!   stops accepting new work (probes are denied, spawns and migrations
//!   avoid it) while its NoC router keeps forwarding traffic.
//!
//! Plans come from two sources: an explicit [`FaultPlanBuilder`] (exact
//! scripted scenarios, e.g. "cut the mesh in half at t = 0"), or
//! [`FaultPlan::sample`], which draws a random scenario from a
//! [`FaultConfig`] using `SplitMix64`-derived streams so the whole run
//! stays bit-reproducible from one seed.
//!
//! The **empty plan is free**: a plan with no faults compiles to a single
//! epoch with no dead links and no message-fault flags, and the
//! consumers are written so that this path performs no PRNG draws and no
//! extra arithmetic — results are bit-identical to a run with no plan at
//! all (asserted by the determinism suite).

use simany_time::prng::Xoshiro256StarStar;
use simany_time::{VDuration, VirtualTime};
use simany_topology::{CoreId, LinkId, Topology};

/// PRNG stream index used by [`FaultPlan::sample`] (derived from the master
/// seed; distinct from every stream the engine or runtime uses).
pub const SAMPLE_STREAM: u64 = 0xFA01_75A3;

/// PRNG stream index the network model uses for per-message fault draws.
pub const NET_STREAM: u64 = 0xF_A017_04E7;

/// A fault plan referenced something the topology doesn't have, or carried
/// a nonsensical probability. Produced by [`FaultPlanBuilder::try_build`]
/// at compile time — a plan naming an out-of-range core or link would
/// otherwise be silently meaningless (or panic deep inside the network
/// model at some arbitrary send).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlanError {
    /// A link event or per-link probability names a link the topology
    /// doesn't have.
    LinkOutOfRange {
        /// The offending link id.
        link: LinkId,
        /// Number of links in the topology the plan was compiled against.
        n_links: u32,
    },
    /// A core-failure entry names a core the topology doesn't have.
    CoreOutOfRange {
        /// The offending core id.
        core: CoreId,
        /// Number of cores in the topology the plan was compiled against.
        n_cores: u32,
    },
    /// A per-message probability is not a real number in `[0, 1]`.
    BadProbability {
        /// Which table the probability was destined for
        /// (`"drop"`/`"delay"`/`"corrupt"`).
        what: &'static str,
        /// The link the probability was attached to.
        link: LinkId,
        /// The offending value.
        p: f64,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultPlanError::LinkOutOfRange { link, n_links } => write!(
                f,
                "fault plan names {link:?}, but the topology has only {n_links} links"
            ),
            FaultPlanError::CoreOutOfRange { core, n_cores } => write!(
                f,
                "fault plan names {core:?}, but the topology has only {n_cores} cores"
            ),
            FaultPlanError::BadProbability { what, link, p } => write!(
                f,
                "fault plan sets {what} probability {p} on {link:?}; must be in [0, 1]"
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// One maximal virtual-time interval with a constant dead-link set.
#[derive(Debug)]
struct Epoch {
    /// Links down during this epoch, ascending by id: their only record.
    dead_links: Vec<LinkId>,
    /// True when some ordered pair of cores has no surviving route.
    partitioned: bool,
}

/// A compiled fault schedule for one topology. Build with
/// [`FaultPlanBuilder`] or [`FaultPlan::sample`]; share via `Arc` through
/// `EngineConfig`.
#[derive(Debug)]
pub struct FaultPlan {
    n_cores: u32,
    n_links: u32,
    /// Epoch start times, ascending; `boundaries[0] == ZERO`.
    boundaries: Vec<VirtualTime>,
    epochs: Vec<Epoch>,
    /// Per-link message-fault parameters (empty-plan fast path keys off
    /// `any_msg_faults`).
    drop_prob: Vec<f64>,
    delay_prob: Vec<f64>,
    delay: Vec<VDuration>,
    corrupt_prob: Vec<f64>,
    any_msg_faults: bool,
    /// Per-core permanent failure instants.
    core_fail_at: Vec<Option<VirtualTime>>,
    any_core_faults: bool,
}

impl FaultPlan {
    /// A plan with no faults at all (single epoch, no overrides). Running
    /// with this plan is bit-identical to running with no plan.
    pub fn empty(topo: &Topology) -> Self {
        FaultPlanBuilder::new().build(topo)
    }

    /// Sample a random fault scenario from `config`, deterministically from
    /// `seed` (an independent `SplitMix64`-derived stream, untouched by any
    /// other consumer of the master seed).
    ///
    /// Physical (bidirectional) link pairs fail together; core 0 is never
    /// failed by sampling so the root task always has a home — script that
    /// explicitly with [`FaultPlanBuilder::fail_core`] if needed.
    pub fn sample(topo: &Topology, config: &FaultConfig, seed: u64) -> Self {
        let mut rng = Xoshiro256StarStar::stream(seed, SAMPLE_STREAM);
        let mut b = FaultPlanBuilder::new();
        let horizon = config.horizon.cycles().max(1);
        for (i, l) in topo.links().enumerate() {
            let link = LinkId(i as u32);
            // Sample each physical pair once, from its lower-id direction.
            if let Some(partner) = topo.link_between(l.dst, l.src) {
                if partner.index() < i {
                    continue;
                }
                if rng.chance(config.link_fail_prob) {
                    let at = VirtualTime::from_cycles(rng.next_below(horizon));
                    b = b.fail_link(link, at).fail_link(partner, at);
                    if let Some(repair) = config.repair_after {
                        b = b
                            .recover_link(link, at + repair)
                            .recover_link(partner, at + repair);
                    }
                }
            } else if rng.chance(config.link_fail_prob) {
                let at = VirtualTime::from_cycles(rng.next_below(horizon));
                b = b.fail_link(link, at);
                if let Some(repair) = config.repair_after {
                    b = b.recover_link(link, at + repair);
                }
            }
        }
        for i in 0..topo.n_links() {
            let link = LinkId(i);
            if config.drop_prob > 0.0 {
                b = b.drop_prob(link, config.drop_prob);
            }
            if config.delay_prob > 0.0 {
                b = b.delay(link, config.delay_prob, config.delay);
            }
            if config.corrupt_prob > 0.0 {
                b = b.corrupt_prob(link, config.corrupt_prob);
            }
        }
        for c in 1..topo.n_cores() {
            if rng.chance(config.core_fail_prob) {
                let at = VirtualTime::from_cycles(rng.next_below(horizon));
                b = b.fail_core(CoreId(c), at);
            }
        }
        // Scripted layers (no PRNG draws: the sampled scenario above is
        // bit-identical whether or not these are active).
        if let Some(at) = config.partition_at {
            b = b.partition_halves(topo, at, config.partition_heal);
        }
        if config.churn_cores > 0 {
            b = b.churn(
                topo,
                config.churn_start,
                config.churn_every,
                config.churn_cores,
            );
        }
        b.build(topo)
    }

    // ----- schedule queries -------------------------------------------------

    /// True iff the plan schedules no faults whatsoever.
    pub fn is_empty(&self) -> bool {
        self.epochs.len() == 1
            && self.epochs[0].dead_links.is_empty()
            && !self.any_msg_faults
            && !self.any_core_faults
    }

    /// Number of cores of the topology the plan was compiled against.
    pub fn n_cores(&self) -> u32 {
        self.n_cores
    }

    /// Number of links of the topology the plan was compiled against.
    pub fn n_links(&self) -> u32 {
        self.n_links
    }

    /// Number of epochs (constant-dead-set intervals); at least 1.
    pub fn epoch_count(&self) -> usize {
        self.epochs.len()
    }

    /// Index of the epoch containing virtual time `t`.
    #[inline]
    pub fn epoch_at(&self, t: VirtualTime) -> usize {
        // boundaries[0] == ZERO, so the partition point is at least 1.
        self.boundaries.partition_point(|&b| b <= t) - 1
    }

    /// Start time of epoch `e`.
    pub fn boundary(&self, e: usize) -> VirtualTime {
        self.boundaries[e]
    }

    /// Links down during epoch `e`, ascending by id.
    pub fn epoch_dead_links(&self, e: usize) -> &[LinkId] {
        &self.epochs[e].dead_links
    }

    /// True iff `link` is down during epoch `e` (a binary search).
    #[inline]
    pub fn link_dead(&self, e: usize, link: LinkId) -> bool {
        self.epochs[e].dead_links.binary_search(&link).is_ok()
    }

    /// True iff epoch `e` leaves the machine partitioned.
    pub fn epoch_partitioned(&self, e: usize) -> bool {
        self.epochs[e].partitioned
    }

    // ----- message faults ---------------------------------------------------

    /// True iff any link has a nonzero drop/delay/corruption probability
    /// (consumers skip all per-message draws when false, keeping the
    /// empty-plan path bit-exact).
    #[inline]
    pub fn has_message_faults(&self) -> bool {
        self.any_msg_faults
    }

    /// Per-message drop probability of `link`.
    #[inline]
    pub fn drop_prob(&self, link: LinkId) -> f64 {
        self.drop_prob[link.index()]
    }

    /// Per-message extra-delay probability of `link`.
    #[inline]
    pub fn delay_prob(&self, link: LinkId) -> f64 {
        self.delay_prob[link.index()]
    }

    /// Extra delay charged when `link` delays a message.
    #[inline]
    pub fn delay_of(&self, link: LinkId) -> VDuration {
        self.delay[link.index()]
    }

    /// Per-message corruption probability of `link` (a corrupted message
    /// traverses — charging the links — and is discarded on arrival).
    #[inline]
    pub fn corrupt_prob(&self, link: LinkId) -> f64 {
        self.corrupt_prob[link.index()]
    }

    // ----- core failures ----------------------------------------------------

    /// True iff any core is scheduled to fail.
    #[inline]
    pub fn has_core_faults(&self) -> bool {
        self.any_core_faults
    }

    /// The instant `core` fails permanently, if scheduled.
    #[inline]
    pub fn core_fail_time(&self, core: CoreId) -> Option<VirtualTime> {
        self.core_fail_at[core.index()]
    }

    /// True iff `core` has failed by virtual time `t`.
    #[inline]
    pub fn core_failed(&self, core: CoreId, t: VirtualTime) -> bool {
        match self.core_fail_at[core.index()] {
            Some(at) => at <= t,
            None => false,
        }
    }
}

/// Knobs for [`FaultPlan::sample`].
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Probability that a physical link fails at some instant in the
    /// horizon.
    pub link_fail_prob: f64,
    /// Downtime before a failed link recovers; `None` = permanent failure.
    pub repair_after: Option<VDuration>,
    /// Uniform per-link per-message drop probability.
    pub drop_prob: f64,
    /// Uniform per-link per-message extra-delay probability.
    pub delay_prob: f64,
    /// The extra delay charged when a link delays a message.
    pub delay: VDuration,
    /// Uniform per-link per-message corruption probability.
    pub corrupt_prob: f64,
    /// Probability that a core (other than core 0) fails permanently at
    /// some instant in the horizon.
    pub core_fail_prob: f64,
    /// Failure instants are drawn uniformly from `[0, horizon)` cycles.
    pub horizon: VirtualTime,
    /// Scripted bisection: cut every link crossing the index-`n/2`
    /// boundary at this instant (see
    /// [`FaultPlanBuilder::partition_halves`]). Deterministic — layered on
    /// top of the sampled faults without consuming any PRNG draws.
    pub partition_at: Option<VirtualTime>,
    /// Heal the scripted bisection at this instant (`None` = permanent).
    pub partition_heal: Option<VirtualTime>,
    /// Scripted crash-stop churn: fail this many cores (never core 0),
    /// spread evenly over the id space, one every `churn_every` starting at
    /// `churn_start` (see [`FaultPlanBuilder::churn`]).
    pub churn_cores: u32,
    /// First scripted churn failure instant.
    pub churn_start: VirtualTime,
    /// Interval between scripted churn failures.
    pub churn_every: VDuration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            link_fail_prob: 0.0,
            repair_after: None,
            drop_prob: 0.0,
            delay_prob: 0.0,
            delay: VDuration::from_cycles(50),
            corrupt_prob: 0.0,
            core_fail_prob: 0.0,
            horizon: VirtualTime::from_cycles(1_000_000),
            partition_at: None,
            partition_heal: None,
            churn_cores: 0,
            churn_start: VirtualTime::from_cycles(10_000),
            churn_every: VDuration::from_cycles(10_000),
        }
    }
}

/// Explicit fault-schedule builder (scripted scenarios).
#[derive(Clone, Debug, Default)]
pub struct FaultPlanBuilder {
    link_events: Vec<(VirtualTime, LinkId, bool)>, // (at, link, down?)
    drop: Vec<(LinkId, f64)>,
    delay: Vec<(LinkId, f64, VDuration)>,
    corrupt: Vec<(LinkId, f64)>,
    core_fail: Vec<(CoreId, VirtualTime)>,
}

impl FaultPlanBuilder {
    /// Fresh, empty builder.
    pub fn new() -> Self {
        FaultPlanBuilder::default()
    }

    /// Take `link` down at `at`.
    pub fn fail_link(mut self, link: LinkId, at: VirtualTime) -> Self {
        self.link_events.push((at, link, true));
        self
    }

    /// Bring `link` back up at `at`.
    pub fn recover_link(mut self, link: LinkId, at: VirtualTime) -> Self {
        self.link_events.push((at, link, false));
        self
    }

    /// Set the per-message drop probability of `link`.
    pub fn drop_prob(mut self, link: LinkId, p: f64) -> Self {
        self.drop.push((link, p));
        self
    }

    /// Set the per-message extra-delay probability and amount of `link`.
    pub fn delay(mut self, link: LinkId, p: f64, d: VDuration) -> Self {
        self.delay.push((link, p, d));
        self
    }

    /// Set the per-message corruption probability of `link`.
    pub fn corrupt_prob(mut self, link: LinkId, p: f64) -> Self {
        self.corrupt.push((link, p));
        self
    }

    /// Fail `core` permanently at `at`.
    pub fn fail_core(mut self, core: CoreId, at: VirtualTime) -> Self {
        self.core_fail.push((core, at));
        self
    }

    /// Script a clean bisection: every link crossing the index-`n/2`
    /// boundary (in both directions) goes down at `at`; with
    /// `heal = Some(t)` they all come back at `t`. The classic
    /// partition-then-heal scenario the resilience protocols are tested
    /// against — deterministic, no sampling.
    pub fn partition_halves(
        mut self,
        topo: &Topology,
        at: VirtualTime,
        heal: Option<VirtualTime>,
    ) -> Self {
        let half = topo.n_cores() / 2;
        let crosses = |c: CoreId| c.0 < half;
        for (i, l) in topo.links().enumerate() {
            if crosses(l.src) != crosses(l.dst) {
                let link = LinkId(i as u32);
                self = self.fail_link(link, at);
                if let Some(h) = heal {
                    self = self.recover_link(link, h);
                }
            }
        }
        self
    }

    /// Script crash-stop churn: permanently fail `count` cores — never
    /// core 0 — spread evenly over the id space, one every `every` starting
    /// at `start`. Deterministic, no sampling; combine with
    /// [`FaultPlan::sample`]'s probabilistic knobs freely.
    pub fn churn(
        mut self,
        topo: &Topology,
        start: VirtualTime,
        every: VDuration,
        count: u32,
    ) -> Self {
        let n = topo.n_cores();
        if n <= 1 {
            return self;
        }
        for i in 0..count {
            // Even spread over [1, n): the i-th victim of `count`.
            let victim = 1 + (u64::from(i) * u64::from(n - 1) / u64::from(count.max(1))) as u32;
            let at = start + VDuration::from_cycles(every.cycles() * u64::from(i));
            self = self.fail_core(CoreId(victim.min(n - 1)), at);
        }
        self
    }

    /// Compile against `topo`, like [`Self::build`], but reject plans that
    /// reference out-of-range cores or nonexistent links — or carry
    /// non-real probabilities — with a typed [`FaultPlanError`] instead of
    /// panicking (or silently indexing past the tables at runtime).
    pub fn try_build(self, topo: &Topology) -> Result<FaultPlan, FaultPlanError> {
        let n_links = topo.n_links();
        let n_cores = topo.n_cores();
        let check_link = |link: LinkId| {
            if link.0 >= n_links {
                Err(FaultPlanError::LinkOutOfRange { link, n_links })
            } else {
                Ok(())
            }
        };
        let check_prob = |what: &'static str, link: LinkId, p: f64| {
            if !(0.0..=1.0).contains(&p) {
                Err(FaultPlanError::BadProbability { what, link, p })
            } else {
                Ok(())
            }
        };
        for &(_, link, _) in &self.link_events {
            check_link(link)?;
        }
        for &(link, p) in &self.drop {
            check_link(link)?;
            check_prob("drop", link, p)?;
        }
        for &(link, p, _) in &self.delay {
            check_link(link)?;
            check_prob("delay", link, p)?;
        }
        for &(link, p) in &self.corrupt {
            check_link(link)?;
            check_prob("corrupt", link, p)?;
        }
        for &(core, _) in &self.core_fail {
            if core.0 >= n_cores {
                return Err(FaultPlanError::CoreOutOfRange { core, n_cores });
            }
        }
        Ok(self.build_validated(topo))
    }

    /// Compile against `topo`: split the timeline into epochs, flag the
    /// partitioned ones, and freeze the per-link
    /// probability tables. Panics on a plan [`Self::try_build`] would
    /// reject.
    pub fn build(self, topo: &Topology) -> FaultPlan {
        match self.try_build(topo) {
            Ok(plan) => plan,
            Err(e) => panic!("{e}"),
        }
    }

    fn build_validated(self, topo: &Topology) -> FaultPlan {
        let n_links = topo.n_links() as usize;
        let n_cores = topo.n_cores() as usize;

        // Per-link event streams, time-ordered; on a tie a recovery wins
        // (down-then-up at the same instant leaves the link up).
        let mut events = self.link_events;
        events.sort_by_key(|&(at, link, down)| (at, link.0, !down));

        // Epoch boundaries: 0 plus every distinct event time.
        let mut boundaries = vec![VirtualTime::ZERO];
        for &(at, _, _) in &events {
            if *boundaries.last().expect("nonempty") != at {
                boundaries.push(at);
            }
        }
        boundaries.sort_unstable();
        boundaries.dedup();

        let mut epochs = Vec::with_capacity(boundaries.len());
        let mut dead = vec![false; n_links];
        let mut cursor = 0usize;
        for &start in &boundaries {
            while cursor < events.len() && events[cursor].0 <= start {
                let (_, link, down) = events[cursor];
                dead[link.index()] = down;
                cursor += 1;
            }
            let dead_links: Vec<LinkId> = dead
                .iter()
                .enumerate()
                .filter(|&(_, &d)| d)
                .map(|(i, _)| LinkId(i as u32))
                .collect();
            let partitioned =
                !dead_links.is_empty() && !topo.is_strongly_connected(|l| dead[l.index()]);
            epochs.push(Epoch {
                dead_links,
                partitioned,
            });
        }

        let mut drop_prob = vec![0.0; n_links];
        for (link, p) in self.drop {
            drop_prob[link.index()] = p.clamp(0.0, 1.0);
        }
        let mut delay_prob = vec![0.0; n_links];
        let mut delay = vec![VDuration::ZERO; n_links];
        for (link, p, d) in self.delay {
            delay_prob[link.index()] = p.clamp(0.0, 1.0);
            delay[link.index()] = d;
        }
        let mut corrupt_prob = vec![0.0; n_links];
        for (link, p) in self.corrupt {
            corrupt_prob[link.index()] = p.clamp(0.0, 1.0);
        }
        let any_msg_faults = drop_prob.iter().any(|&p| p > 0.0)
            || delay_prob.iter().any(|&p| p > 0.0)
            || corrupt_prob.iter().any(|&p| p > 0.0);

        let mut core_fail_at = vec![None; n_cores];
        for (core, at) in self.core_fail {
            let slot = &mut core_fail_at[core.index()];
            // Earliest scheduled failure wins.
            *slot = Some(slot.map_or(at, |prev: VirtualTime| prev.min(at)));
        }
        let any_core_faults = core_fail_at.iter().any(|f| f.is_some());

        FaultPlan {
            n_cores: topo.n_cores(),
            n_links: topo.n_links(),
            boundaries,
            epochs,
            drop_prob,
            delay_prob,
            delay,
            corrupt_prob,
            any_msg_faults,
            core_fail_at,
            any_core_faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simany_topology::{mesh_2d, ring};

    fn t(c: u64) -> VirtualTime {
        VirtualTime::from_cycles(c)
    }

    #[test]
    fn empty_plan_is_single_live_epoch() {
        let topo = mesh_2d(16);
        let plan = FaultPlan::empty(&topo);
        assert!(plan.is_empty());
        assert_eq!(plan.epoch_count(), 1);
        assert_eq!(plan.epoch_at(VirtualTime::ZERO), 0);
        assert_eq!(plan.epoch_at(t(1_000_000)), 0);
        assert!(plan.epoch_dead_links(0).is_empty());
        assert!(!plan.epoch_partitioned(0));
        assert!(!plan.has_message_faults());
        assert!(!plan.has_core_faults());
    }

    #[test]
    fn epochs_track_down_and_up() {
        let topo = mesh_2d(16);
        let link = LinkId(0);
        let plan = FaultPlanBuilder::new()
            .fail_link(link, t(100))
            .recover_link(link, t(300))
            .build(&topo);
        assert_eq!(plan.epoch_count(), 3);
        assert_eq!(plan.epoch_at(t(99)), 0);
        assert_eq!(plan.epoch_at(t(100)), 1);
        assert_eq!(plan.epoch_at(t(299)), 1);
        assert_eq!(plan.epoch_at(t(300)), 2);
        assert!(!plan.link_dead(0, link));
        assert!(plan.link_dead(1, link));
        assert!(!plan.link_dead(2, link));
        // Only the dead epoch has dead links, and one dead link of a mesh
        // leaves every pair connected.
        assert!(plan.epoch_dead_links(0).is_empty());
        assert_eq!(plan.epoch_dead_links(1), &[link]);
        assert!(plan.epoch_dead_links(2).is_empty());
        assert!(!plan.epoch_partitioned(1));
    }

    #[test]
    fn partition_flagged() {
        let topo = ring(4);
        let mut b = FaultPlanBuilder::new();
        for (u, v) in [(0u32, 1u32), (2, 3)] {
            b = b
                .fail_link(topo.link_between(CoreId(u), CoreId(v)).unwrap(), t(50))
                .fail_link(topo.link_between(CoreId(v), CoreId(u)).unwrap(), t(50));
        }
        let plan = b.build(&topo);
        assert_eq!(plan.epoch_count(), 2);
        assert!(!plan.epoch_partitioned(0));
        assert!(plan.epoch_partitioned(1));
    }

    #[test]
    fn core_failures_step_at_instant() {
        let topo = mesh_2d(4);
        let plan = FaultPlanBuilder::new()
            .fail_core(CoreId(2), t(500))
            .build(&topo);
        assert!(plan.has_core_faults());
        assert!(!plan.core_failed(CoreId(2), t(499)));
        assert!(plan.core_failed(CoreId(2), t(500)));
        assert!(!plan.core_failed(CoreId(1), t(10_000)));
        assert_eq!(plan.core_fail_time(CoreId(2)), Some(t(500)));
    }

    #[test]
    fn sampling_is_deterministic_and_pairs_links() {
        let topo = mesh_2d(16);
        let cfg = FaultConfig {
            link_fail_prob: 0.3,
            repair_after: Some(VDuration::from_cycles(1_000)),
            drop_prob: 0.05,
            core_fail_prob: 0.2,
            horizon: t(10_000),
            ..FaultConfig::default()
        };
        let a = FaultPlan::sample(&topo, &cfg, 42);
        let b = FaultPlan::sample(&topo, &cfg, 42);
        assert_eq!(a.boundaries, b.boundaries);
        for e in 0..a.epoch_count() {
            assert_eq!(a.epoch_dead_links(e), b.epoch_dead_links(e));
        }
        assert_eq!(a.core_fail_at, b.core_fail_at);
        let c = FaultPlan::sample(&topo, &cfg, 43);
        assert!(
            a.boundaries != c.boundaries || a.core_fail_at != c.core_fail_at,
            "different seeds should give different scenarios"
        );
        // Physical pairs fail together: whenever a link is dead in some
        // epoch, so is its reverse.
        let ends = topo.link_ends();
        for e in 0..a.epoch_count() {
            for &l in a.epoch_dead_links(e) {
                let (src, dst) = ends[l.index()];
                let back = topo.link_between(dst, src).unwrap();
                assert!(a.link_dead(e, back), "pair of {l:?} not dead");
            }
        }
        // Core 0 is never failed by sampling.
        assert_eq!(a.core_fail_time(CoreId(0)), None);
        assert!(a.has_message_faults());
    }

    #[test]
    fn try_build_rejects_out_of_range_references() {
        let topo = mesh_2d(16);
        let bad_link = LinkId(topo.n_links() + 5);
        let err = FaultPlanBuilder::new()
            .fail_link(bad_link, t(10))
            .try_build(&topo)
            .unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::LinkOutOfRange {
                link: bad_link,
                n_links: topo.n_links()
            }
        );
        let err = FaultPlanBuilder::new()
            .drop_prob(LinkId(9999), 0.5)
            .try_build(&topo)
            .unwrap_err();
        assert!(matches!(err, FaultPlanError::LinkOutOfRange { .. }));
        let err = FaultPlanBuilder::new()
            .fail_core(CoreId(16), t(10))
            .try_build(&topo)
            .unwrap_err();
        assert_eq!(
            err,
            FaultPlanError::CoreOutOfRange {
                core: CoreId(16),
                n_cores: 16
            }
        );
        let err = FaultPlanBuilder::new()
            .corrupt_prob(LinkId(0), f64::NAN)
            .try_build(&topo)
            .unwrap_err();
        assert!(matches!(
            err,
            FaultPlanError::BadProbability {
                what: "corrupt",
                ..
            }
        ));
        let err = FaultPlanBuilder::new()
            .delay(LinkId(0), 1.5, VDuration::from_cycles(10))
            .try_build(&topo)
            .unwrap_err();
        assert!(matches!(
            err,
            FaultPlanError::BadProbability { what: "delay", .. }
        ));
        // Errors render something a human can act on.
        assert!(err.to_string().contains("delay"));
        // The valid equivalents still build.
        assert!(FaultPlanBuilder::new()
            .fail_link(LinkId(0), t(10))
            .fail_core(CoreId(15), t(10))
            .drop_prob(LinkId(0), 1.0)
            .try_build(&topo)
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "16 cores")]
    fn build_panics_with_typed_message() {
        let topo = mesh_2d(16);
        let _ = FaultPlanBuilder::new()
            .fail_core(CoreId(99), t(0))
            .build(&topo);
    }

    #[test]
    fn partition_halves_cuts_and_heals() {
        let topo = mesh_2d(16); // halves = {0..8} vs {8..16}
        let plan = FaultPlanBuilder::new()
            .partition_halves(&topo, t(100), Some(t(500)))
            .build(&topo);
        assert_eq!(plan.epoch_count(), 3);
        assert!(!plan.epoch_partitioned(0));
        assert!(plan.epoch_partitioned(plan.epoch_at(t(100))));
        assert!(!plan.epoch_partitioned(plan.epoch_at(t(500))));
        // Every link crossing the cut is down, none other.
        let e = plan.epoch_at(t(200));
        for (i, l) in topo.links().enumerate() {
            let crosses = (l.src.0 < 8) != (l.dst.0 < 8);
            assert_eq!(plan.link_dead(e, LinkId(i as u32)), crosses);
        }
    }

    #[test]
    fn churn_schedule_spreads_and_spares_core_zero() {
        let topo = mesh_2d(16);
        let plan = FaultPlanBuilder::new()
            .churn(&topo, t(1_000), VDuration::from_cycles(500), 4)
            .build(&topo);
        assert!(plan.has_core_faults());
        assert_eq!(plan.core_fail_time(CoreId(0)), None);
        let failed: Vec<u32> = (0..16)
            .filter(|&c| plan.core_fail_time(CoreId(c)).is_some())
            .collect();
        assert_eq!(failed.len(), 4, "churn of 4 distinct victims: {failed:?}");
        // One failure per period, starting at the start instant.
        let mut times: Vec<u64> = failed
            .iter()
            .map(|&c| plan.core_fail_time(CoreId(c)).unwrap().cycles())
            .collect();
        times.sort_unstable();
        assert_eq!(times, vec![1_000, 1_500, 2_000, 2_500]);
    }

    #[test]
    fn sampled_scenario_unchanged_by_scripted_layers() {
        let topo = mesh_2d(8);
        let base = FaultConfig {
            link_fail_prob: 0.2,
            drop_prob: 0.02,
            core_fail_prob: 0.1,
            horizon: t(10_000),
            ..FaultConfig::default()
        };
        let with_script = FaultConfig {
            partition_at: Some(t(50_000)),
            partition_heal: Some(t(60_000)),
            churn_cores: 2,
            churn_start: t(70_000),
            ..base
        };
        let a = FaultPlan::sample(&topo, &base, 7);
        let b = FaultPlan::sample(&topo, &with_script, 7);
        // The sampled draws are identical: every sampled core failure and
        // every pre-partition epoch matches.
        for c in 0..topo.n_cores() {
            let fa = a.core_fail_time(CoreId(c));
            let fb = b.core_fail_time(CoreId(c));
            if fa != fb {
                // Only scripted churn may add failures, never change one.
                assert!(fa.is_none() && fb.is_some());
                assert!(fb.unwrap() >= t(70_000));
            }
        }
        for e in 0..a.epoch_count() {
            if a.boundary(e) < t(50_000) {
                let eb = b.epoch_at(a.boundary(e));
                assert_eq!(a.epoch_dead_links(e), b.epoch_dead_links(eb));
            }
        }
        assert!(b.epoch_partitioned(b.epoch_at(t(55_000))));
    }

    #[test]
    fn same_instant_down_up_leaves_link_alive() {
        let topo = mesh_2d(4);
        let plan = FaultPlanBuilder::new()
            .fail_link(LinkId(1), t(10))
            .recover_link(LinkId(1), t(10))
            .build(&topo);
        let e = plan.epoch_at(t(10));
        assert!(!plan.link_dead(e, LinkId(1)));
    }
}
