//! # Protocol workload pack — the resilience testbed
//!
//! Where the dwarf kernels stress the simulator's *performance* fidelity,
//! these workloads stress its *fault* fidelity: three classic distributed
//! protocols whose entire point is to make progress while the fault plan
//! partitions the mesh, drops messages and kills cores underneath them.
//!
//! * [`gossip`] — epidemic rumor spreading with per-round fanout,
//!   duplicate suppression and retry-with-backoff on dropped sends.
//! * [`dht`] — Chord-style key lookup over per-core finger tables, with
//!   timeout-driven re-issue through alternate fingers and graceful
//!   degradation to scoped flooding when the table decays.
//! * [`quorum`] — a Raft-flavored leader/quorum protocol: heartbeats,
//!   term-numbered elections and majority commit, surviving partitions
//!   and leader churn.
//!
//! All three are ordinary task programs over [`TaskCtx`]'s protocol seam
//! (`send_app` / `recv_deadline` / `core_failed`): node tasks are pinned
//! one-per-core with `spawn_pinned`, exchange `AppMsg`s whose losses are
//! decided by the active fault plan, and time their re-issues with the
//! fault-immune self-send deadline timer. Every protocol follows the
//! simulator's determinism contract — node state lives in `BTreeMap`s /
//! `BTreeSet`s, randomness comes from the per-task PRNG — so a run is
//! bit-identical for a fixed seed.
//!
//! [`TaskCtx`]: simany_runtime::TaskCtx

pub mod dht;
pub mod gossip;
pub mod quorum;

use crate::shape::run_tasks;
use crate::Scale;
use simany_runtime::{CoreId, ProgramSpec, RunOutput, SimError, TaskCtx};
use std::cell::RefCell;
use std::rc::Rc;

/// Resilience metrics one protocol run reports. The raw latency samples
/// are kept so callers (bench / simulate) can summarize them with
/// whatever percentile machinery they carry — this crate stays free of a
/// stats dependency.
#[derive(Clone, Debug, Default)]
pub struct ProtocolMetrics {
    /// Payloads the protocol set out to deliver: rumor × node pairs,
    /// lookups issued, commands proposed.
    pub expected: u64,
    /// Payloads actually delivered / resolved / committed.
    pub delivered: u64,
    /// Application messages spent in total (`send_app` calls).
    pub payload_msgs: u64,
    /// Timeout-driven re-issues (lookup retries, election restarts).
    pub reissues: u64,
    /// Operations that fell back to a degraded mode (flooding after the
    /// finger table decayed, elections forced by leader loss).
    pub degraded: u64,
    /// Distinct `(term, leader)` pairs observed (quorum; 0 elsewhere).
    pub leader_changes: u64,
    /// End-to-end latency of each delivered payload, in cycles.
    pub latencies: Vec<u64>,
}

impl ProtocolMetrics {
    /// Delivery coverage in `[0, 1]`; `None` when nothing was expected
    /// (e.g. a quorum that never elected a leader proposed nothing).
    pub fn coverage(&self) -> Option<f64> {
        (self.expected > 0).then(|| self.delivered as f64 / self.expected as f64)
    }

    /// Messages spent per delivered payload (the cost of resilience);
    /// `None` when nothing was delivered.
    pub fn msgs_per_delivery(&self) -> Option<f64> {
        (self.delivered > 0).then(|| self.payload_msgs as f64 / self.delivered as f64)
    }
}

/// Result of one simulated protocol run.
#[derive(Debug)]
pub struct ProtocolOutcome {
    /// Simulation output (virtual time, engine + runtime statistics).
    pub out: RunOutput,
    /// Protocol-level safety checks passed (owner correctness, at most
    /// one leader per term, rumor payload integrity).
    pub verified: bool,
    /// Resilience metrics.
    pub metrics: ProtocolMetrics,
}

impl ProtocolOutcome {
    /// Completion virtual time in cycles.
    pub fn cycles(&self) -> u64 {
        self.out.vtime_cycles()
    }
}

/// Uniform interface over the protocol workloads (the resilience
/// counterpart of [`crate::DwarfKernel`]).
pub trait ProtocolKernel {
    /// Display name ("Gossip", "DHT Lookup", "Quorum").
    fn name(&self) -> &'static str;

    /// Simulate the protocol on the machine described by `spec`. `scale`
    /// stretches the protocol horizon (rounds / ticks); the fault plan —
    /// if any — rides in `spec.engine.fault`.
    fn run_sim(
        &self,
        spec: ProgramSpec,
        scale: Scale,
        seed: u64,
    ) -> Result<ProtocolOutcome, SimError>;
}

/// The protocol pack, in fixed order.
pub fn all_protocols() -> Vec<Box<dyn ProtocolKernel>> {
    vec![
        Box::new(gossip::Gossip),
        Box::new(dht::DhtLookup),
        Box::new(quorum::Quorum),
    ]
}

/// Look a protocol up by (case-insensitive) name prefix.
pub fn protocol_by_name(name: &str) -> Option<Box<dyn ProtocolKernel>> {
    crate::by_prefix(all_protocols(), name, |p| p.name())
}

/// Run one `node` task per core: cores 1..n pinned in order, then node 0
/// on the root task. Returns each node's slot, indexed by node; a node
/// whose pinned spawn was dropped keeps the default slot.
fn run_nodes<S: Clone + Default + 'static>(
    spec: ProgramSpec,
    name: &'static str,
    node: impl Fn(&mut TaskCtx<'_>, usize) -> S + 'static,
) -> Result<(RunOutput, Vec<S>), SimError> {
    struct Nodes<F, S> {
        node: F,
        slots: RefCell<Vec<S>>,
    }
    let n = spec.topo.n_cores() as usize;
    let (out, nodes) = run_tasks(
        spec,
        move |_| Nodes {
            node,
            slots: RefCell::new(vec![S::default(); n]),
        },
        move |tc, nodes, group| {
            for k in 1..n {
                let nodes = Rc::clone(nodes);
                let body = move |tc: &mut TaskCtx<'_>| {
                    let slot = (nodes.node)(tc, k);
                    nodes.slots.borrow_mut()[k] = slot;
                };
                tc.spawn_pinned(CoreId(k as u32), Some(group), name, Box::new(body));
            }
            let slot = (nodes.node)(tc, 0);
            nodes.slots.borrow_mut()[0] = slot;
        },
    )?;
    let slots = nodes.slots.take();
    Ok((out, slots))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_has_three_protocols() {
        let names: Vec<_> = all_protocols().iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["Gossip", "DHT Lookup", "Quorum"]);
    }

    #[test]
    fn protocol_lookup_by_prefix() {
        assert_eq!(protocol_by_name("gos").unwrap().name(), "Gossip");
        assert_eq!(protocol_by_name("DHT").unwrap().name(), "DHT Lookup");
        assert_eq!(protocol_by_name("quo").unwrap().name(), "Quorum");
        assert!(protocol_by_name("paxos").is_none());
        // No collision with the dwarf suite's prefixes.
        for p in all_protocols() {
            assert!(crate::kernel_by_name(p.name()).is_none());
        }
    }

    #[test]
    fn metrics_ratios_are_safe() {
        let m = ProtocolMetrics::default();
        assert_eq!(m.coverage(), None);
        assert_eq!(m.msgs_per_delivery(), None);
        // Messages spent, nothing delivered: no ratio, not the raw count.
        let m = ProtocolMetrics {
            payload_msgs: 6066,
            ..Default::default()
        };
        assert_eq!(m.msgs_per_delivery(), None);
        let m = ProtocolMetrics {
            expected: 10,
            delivered: 8,
            payload_msgs: 40,
            ..Default::default()
        };
        assert!((m.coverage().unwrap() - 0.8).abs() < 1e-9);
        assert!((m.msgs_per_delivery().unwrap() - 5.0).abs() < 1e-9);
    }
}
