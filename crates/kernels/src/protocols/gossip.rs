//! Epidemic gossip / rumor broadcast.
//!
//! Core 0 starts with a rumor; every informed node pushes it to `FANOUT`
//! uniformly-random peers each round. Duplicate receipts are suppressed
//! (counted, not re-recorded), lost sends are retried by the runtime's
//! exponential-backoff policy, and a node whose core the fault plan kills
//! falls silent (crash-stop). The protocol's resilience signature is its
//! *delivery coverage* (fraction of nodes informed by the horizon) and the
//! distribution of *first-receipt latencies* — under a partition, the cut
//! half plateaus at zero coverage until the heal, then the epidemic wave
//! resumes and the latency tail stretches by the partition length.

use crate::protocols::{run_nodes, ProtocolKernel, ProtocolMetrics, ProtocolOutcome};
use crate::Scale;
use simany_core::{SimError, VirtualTime};
use simany_runtime::{ProgramSpec, TaskCtx};
use simany_topology::CoreId;

/// Gossip round length in cycles.
const PERIOD: u64 = 2_000;
/// Peers pushed to per informed node per round.
const FANOUT: u64 = 2;
/// Base number of rounds (scaled by [`Scale`]).
const BASE_ROUNDS: usize = 32;
/// Payload integrity sentinel carried by every rumor copy.
const MAGIC: u64 = 0x9E37_79B9_7F4A_7C15;
/// The rumor message tag.
const TAG_RUMOR: u32 = 1;

/// Per-node outcome, written once by the owning node task.
#[derive(Clone, Copy, Default)]
struct NodeSlot {
    informed: bool,
    /// First-receipt latency (cycles since the rumor's birth).
    latency: u64,
    /// Duplicate rumor copies received after the first.
    dups: u64,
    /// Rumor copies pushed out.
    sent: u64,
    /// Every received copy carried the intact payload sentinel.
    intact: bool,
    crashed: bool,
}

/// The epidemic gossip protocol workload.
pub struct Gossip;

impl ProtocolKernel for Gossip {
    fn name(&self) -> &'static str {
        "Gossip"
    }

    fn run_sim(
        &self,
        spec: ProgramSpec,
        scale: Scale,
        _seed: u64,
    ) -> Result<ProtocolOutcome, SimError> {
        let rounds = scale.apply(BASE_ROUNDS, 8);
        let (out, slots) = run_nodes(spec, "gossip-node", move |tc, k| {
            // Node 0, on the root, is the rumor's origin. Its birth stamp
            // is the end-to-end latency reference for every node.
            let origin = (k == 0).then(|| tc.now());
            node_loop(tc, rounds, origin)
        })?;
        let delivered = slots.iter().filter(|s| s.informed).count() as u64;
        let latencies: Vec<u64> = slots
            .iter()
            .filter(|s| s.informed)
            .map(|s| s.latency)
            .collect();
        let verified = delivered >= 1
            && slots.iter().filter(|s| s.informed).all(|s| s.intact)
            && delivered as usize == latencies.len();
        let metrics = ProtocolMetrics {
            expected: slots.len() as u64,
            delivered,
            payload_msgs: slots.iter().map(|s| s.sent).sum(),
            // Backoff retransmissions of dropped rumor pushes.
            reissues: out.rt.send_retries,
            degraded: slots.iter().filter(|s| s.crashed).count() as u64,
            leader_changes: 0,
            latencies,
        };
        Ok(ProtocolOutcome {
            out,
            verified,
            metrics,
        })
    }
}

/// One gossip node: `origin` is `Some(birth)` on node 0 (informed from the
/// start), `None` elsewhere.
fn node_loop(tc: &mut TaskCtx<'_>, rounds: usize, origin: Option<VirtualTime>) -> NodeSlot {
    let n = u64::from(tc.n_cores());
    let me = u64::from(tc.core().0);
    let mut slot = NodeSlot {
        intact: true,
        ..NodeSlot::default()
    };
    // The rumor's birth stamp, learned on first receipt (origin knows it).
    let mut stamp: u64 = 0;
    if let Some(birth) = origin {
        slot.informed = true;
        slot.latency = 0;
        stamp = birth.ticks();
    }
    for r in 0..rounds {
        if tc.core_failed() {
            slot.crashed = true;
            return slot;
        }
        let tick = VirtualTime::from_cycles((r as u64 + 1) * PERIOD);
        // Drain every rumor copy arriving before this round's tick.
        while let Some(m) = tc.recv_deadline(tick) {
            if m.tag != TAG_RUMOR {
                continue;
            }
            tc.work(20);
            if m.data[1] != MAGIC {
                slot.intact = false;
            }
            if slot.informed {
                slot.dups += 1;
            } else {
                slot.informed = true;
                stamp = m.data[0];
                slot.latency = tc.now().saturating_since(VirtualTime(stamp)).cycles();
            }
        }
        // Informed nodes push the rumor to FANOUT random peers.
        if slot.informed && n > 1 {
            for _ in 0..FANOUT {
                let pick = tc.rand_below(n - 1);
                let peer = if pick >= me { pick + 1 } else { pick };
                tc.send_app(CoreId(peer as u32), TAG_RUMOR, [stamp, MAGIC, 0, 0]);
                slot.sent += 1;
            }
        }
    }
    if tc.core_failed() {
        slot.crashed = true;
    }
    slot
}

#[cfg(test)]
mod tests {
    use super::*;
    use simany_core::FaultPlanBuilder;
    use simany_topology::mesh_2d;
    use std::sync::Arc;

    #[test]
    fn gossip_saturates_a_healthy_mesh() {
        let o = Gossip
            .run_sim(ProgramSpec::new(mesh_2d(16)), Scale(0.5), 7)
            .unwrap();
        assert!(o.verified);
        assert_eq!(o.metrics.delivered, 16, "healthy mesh must reach everyone");
        assert_eq!(o.metrics.coverage(), Some(1.0));
        assert_eq!(o.metrics.latencies.len(), 16);
    }

    #[test]
    fn gossip_survives_partition_then_heal() {
        let topo = mesh_2d(16);
        let plan = FaultPlanBuilder::new()
            .partition_halves(
                &topo,
                VirtualTime::from_cycles(5_000),
                Some(VirtualTime::from_cycles(30_000)),
            )
            .build(&topo);
        let mut spec = ProgramSpec::new(topo);
        spec.engine = spec
            .engine
            .with_fault_plan(Arc::new(plan))
            .with_sanitize(true);
        let o = Gossip.run_sim(spec, Scale(1.0), 7).unwrap();
        assert!(o.verified);
        // 32 rounds x 2000 cycles = 64k horizon: plenty of post-heal mixing.
        assert_eq!(o.metrics.delivered, 16, "coverage must recover after heal");
        // The cut half's first receipts happen after the heal.
        assert!(
            o.metrics.latencies.iter().any(|&l| l > 30_000),
            "some latencies should reflect the partition"
        );
    }

    #[test]
    fn gossip_is_deterministic() {
        let run = || {
            Gossip
                .run_sim(ProgramSpec::new(mesh_2d(16)), Scale(0.5), 11)
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.cycles(), b.cycles());
        assert_eq!(a.metrics.delivered, b.metrics.delivered);
        assert_eq!(a.metrics.payload_msgs, b.metrics.payload_msgs);
        assert_eq!(a.metrics.latencies, b.metrics.latencies);
    }
}
