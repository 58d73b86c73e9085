//! Chord-style DHT key lookup.
//!
//! Cores form a ring; key `k` is owned by core `k mod n`. Every core keeps
//! a finger table (`me + 2^j mod n`) and forwards lookups greedily without
//! overshooting the owner. Resilience machinery, in escalation order:
//!
//! 1. **Retry-with-backoff** on each hop (the runtime's `RetryPolicy`
//!    inside `send_app`).
//! 2. **Timeout-driven re-issue**: the origin keeps a deadline per
//!    outstanding lookup; an expiry re-routes through an *alternate*
//!    finger (each attempt skips one more preferred entry).
//! 3. **Graceful degradation to flooding**: after `MAX_ATTEMPTS` expiries
//!    — or when every usable finger is marked dead — the lookup is
//!    broadcast over the remaining fingers with a TTL and a seen-set for
//!    duplicate suppression.
//!
//! A finger is marked dead when a send to it exhausts its retries, and
//! revived when any message from that core arrives (the table heals after
//! a partition heals). Safety check: every resolved lookup must name the
//! true owner (`key mod n`).

use crate::protocols::{run_nodes, ProtocolKernel, ProtocolMetrics, ProtocolOutcome};
use crate::Scale;
use simany_core::{SimError, VDuration, VirtualTime};
use simany_runtime::{AppMsg, ProgramSpec, TaskCtx};
use simany_topology::CoreId;
use std::collections::{BTreeMap, BTreeSet};

/// Tick length in cycles.
const TICK: u64 = 2_000;
/// Base number of ticks (scaled by [`Scale`]).
const BASE_TICKS: usize = 32;
/// Lookups issued per node.
const LOOKUPS_PER_NODE: usize = 2;
/// Re-issue timeout in cycles.
const TIMEOUT: u64 = 8_000;
/// Expiries before a lookup degrades to flooding.
const MAX_ATTEMPTS: u32 = 3;

const TAG_LOOKUP: u32 = 1;
const TAG_RESULT: u32 = 2;
const TAG_FLOOD: u32 = 3;

/// An outstanding lookup at its origin.
struct Pending {
    key: u64,
    issued: VirtualTime,
    deadline: VirtualTime,
    attempt: u32,
}

/// Per-node outcome, written once by the owning node task.
#[derive(Clone, Default)]
struct NodeSlot {
    issued: u64,
    resolved: u64,
    sent: u64,
    reissues: u64,
    floods: u64,
    wrong_owner: u64,
    latencies: Vec<u64>,
    crashed: bool,
}

/// Routing + protocol state of one node.
struct Node {
    me: u64,
    n: u64,
    /// Finger targets, sorted by decreasing clockwise advance.
    fingers: Vec<u64>,
    alive: Vec<bool>,
    pending: BTreeMap<u64, Pending>,
    next_seq: u64,
    /// `(origin, seq, attempt)` flood waves already relayed by this node.
    /// Keying the *wave* (not just the lookup) means a re-issued flood is
    /// not suppressed by its predecessor's traces.
    seen: BTreeSet<(u64, u64, u64)>,
    slot: NodeSlot,
}

impl Node {
    fn new(me: u64, n: u64) -> Self {
        let mut fingers: Vec<u64> = Vec::new();
        let mut step = 1u64;
        while step < n {
            let f = (me + step) % n;
            if f != me && !fingers.contains(&f) {
                fingers.push(f);
            }
            step *= 2;
        }
        // Longest stride first: greedy routing tries the biggest
        // non-overshooting jump.
        fingers.sort_by_key(|&f| std::cmp::Reverse((f + n - me) % n));
        let alive = vec![true; fingers.len()];
        Node {
            me,
            n,
            fingers,
            alive,
            pending: BTreeMap::new(),
            next_seq: 0,
            seen: BTreeSet::new(),
            slot: NodeSlot::default(),
        }
    }

    fn owner(&self, key: u64) -> u64 {
        key % self.n
    }

    /// Clockwise ring distance from `me` to `c`.
    fn advance(&self, c: u64) -> u64 {
        (c + self.n - self.me) % self.n
    }

    fn flood_ttl(&self) -> u64 {
        (64 - (self.n.max(2) - 1).leading_zeros() as u64) + 2
    }

    fn send(&mut self, tc: &mut TaskCtx<'_>, dst: u64, tag: u32, data: [u64; 4]) -> bool {
        self.slot.sent += 1;
        let ok = tc.send_app(CoreId(dst as u32), tag, data);
        // The engine's send model tells the sender each attempt's fate, so
        // the finger table tracks reachability exactly: a failed send
        // marks the finger dead, a successful one revives it.
        if let Some(i) = self.fingers.iter().position(|&f| f == dst) {
            self.alive[i] = ok;
        }
        ok
    }

    /// Route a lookup one hop toward `key`'s owner. `attempt` doubles as
    /// the alternate-route selector (skip that many preferred fingers)
    /// and as the flood-wave id. Falls back to flooding when no candidate
    /// finger accepts the message.
    fn route_lookup(
        &mut self,
        tc: &mut TaskCtx<'_>,
        key: u64,
        origin: u64,
        seq: u64,
        attempt: u64,
    ) {
        let owner = self.owner(key);
        if owner == self.me {
            self.deliver_result(tc, key, origin, seq);
            return;
        }
        let budget = self.advance(owner);
        let candidates: Vec<u64> = self
            .fingers
            .iter()
            .enumerate()
            .filter(|&(i, &f)| self.alive[i] && self.advance(f) <= budget)
            .map(|(_, &f)| f)
            .collect();
        for f in candidates.into_iter().skip(attempt as usize) {
            if self.send(tc, f, TAG_LOOKUP, [key, origin, seq, attempt]) {
                return;
            }
        }
        // The table has decayed (or every usable entry was skipped):
        // degrade to scoped flooding.
        self.slot.floods += 1;
        self.flood(tc, key, origin, seq, self.flood_ttl(), attempt);
    }

    /// Owner-side delivery: answer the origin (or resolve locally).
    fn deliver_result(&mut self, tc: &mut TaskCtx<'_>, key: u64, origin: u64, seq: u64) {
        if origin == self.me {
            self.resolve(tc, key, self.me, seq);
        } else {
            self.send(tc, origin, TAG_RESULT, [key, self.me, seq, 0]);
        }
    }

    /// Broadcast a lookup wave over *every* finger — dead ones included:
    /// flooding is the desperate mode, and probing a dead finger is how
    /// the table discovers a healed partition.
    fn flood(
        &mut self,
        tc: &mut TaskCtx<'_>,
        key: u64,
        origin: u64,
        seq: u64,
        ttl: u64,
        wave: u64,
    ) {
        self.seen.insert((origin, seq, wave));
        for i in 0..self.fingers.len() {
            let f = self.fingers[i];
            self.send(tc, f, TAG_FLOOD, [key, origin, seq, ttl | (wave << 32)]);
        }
    }

    /// Origin-side resolution of lookup `seq` answered by `responder`.
    fn resolve(&mut self, tc: &mut TaskCtx<'_>, key: u64, responder: u64, seq: u64) {
        let Some(p) = self.pending.remove(&seq) else {
            return; // Stale duplicate (re-issue raced the original).
        };
        if responder != self.owner(key) || p.key != key {
            self.slot.wrong_owner += 1;
            return;
        }
        self.slot.resolved += 1;
        self.slot
            .latencies
            .push(tc.now().saturating_since(p.issued).cycles());
    }

    fn handle(&mut self, tc: &mut TaskCtx<'_>, m: AppMsg) {
        tc.work(30);
        // Hearing from a finger proves it reachable again.
        let from = u64::from(m.from.0);
        if let Some(i) = self.fingers.iter().position(|&f| f == from) {
            self.alive[i] = true;
        }
        match m.tag {
            TAG_LOOKUP => self.route_lookup(tc, m.data[0], m.data[1], m.data[2], m.data[3]),
            TAG_RESULT => self.resolve(tc, m.data[0], m.data[1], m.data[2]),
            TAG_FLOOD => {
                let (key, origin, seq) = (m.data[0], m.data[1], m.data[2]);
                let ttl = m.data[3] & 0xffff_ffff;
                let wave = m.data[3] >> 32;
                if self.seen.contains(&(origin, seq, wave)) {
                    return;
                }
                if self.owner(key) == self.me {
                    self.seen.insert((origin, seq, wave));
                    self.deliver_result(tc, key, origin, seq);
                } else if ttl > 0 {
                    self.flood(tc, key, origin, seq, ttl - 1, wave);
                }
            }
            _ => {}
        }
    }

    fn issue(&mut self, tc: &mut TaskCtx<'_>) {
        let key = tc.rand_below(self.n * 64);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slot.issued += 1;
        let now = tc.now();
        self.pending.insert(
            seq,
            Pending {
                key,
                issued: now,
                deadline: now + VDuration::from_cycles(TIMEOUT),
                attempt: 0,
            },
        );
        self.route_lookup(tc, key, self.me, seq, 0);
    }

    /// Expire overdue lookups: re-issue through an alternate finger, then
    /// degrade to flooding past the attempt budget.
    fn check_timeouts(&mut self, tc: &mut TaskCtx<'_>) {
        let now = tc.now();
        let overdue: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.deadline <= now)
            .map(|(&s, _)| s)
            .collect();
        for seq in overdue {
            let (key, attempt) = {
                let p = self.pending.get_mut(&seq).expect("overdue pending");
                p.attempt += 1;
                p.deadline = now + VDuration::from_cycles(TIMEOUT);
                (p.key, p.attempt)
            };
            self.slot.reissues += 1;
            if attempt > MAX_ATTEMPTS {
                self.slot.floods += 1;
                let ttl = self.flood_ttl();
                self.flood(tc, key, self.me, seq, ttl, u64::from(attempt));
            } else {
                self.route_lookup(tc, key, self.me, seq, u64::from(attempt));
            }
        }
    }
}

/// The DHT lookup protocol workload.
pub struct DhtLookup;

impl ProtocolKernel for DhtLookup {
    fn name(&self) -> &'static str {
        "DHT Lookup"
    }

    fn run_sim(
        &self,
        spec: ProgramSpec,
        scale: Scale,
        _seed: u64,
    ) -> Result<ProtocolOutcome, SimError> {
        let ticks = scale.apply(BASE_TICKS, 8);
        let (out, slots) = run_nodes(spec, "dht-node", move |tc, _| node_loop(tc, ticks))?;
        let mut latencies = Vec::new();
        for s in slots.iter() {
            latencies.extend_from_slice(&s.latencies);
        }
        let delivered: u64 = slots.iter().map(|s| s.resolved).sum();
        let verified = slots.iter().all(|s| s.wrong_owner == 0);
        let metrics = ProtocolMetrics {
            expected: slots.iter().map(|s| s.issued).sum(),
            delivered,
            payload_msgs: slots.iter().map(|s| s.sent).sum(),
            reissues: slots.iter().map(|s| s.reissues).sum(),
            degraded: slots.iter().map(|s| s.floods).sum(),
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

fn node_loop(tc: &mut TaskCtx<'_>, ticks: usize) -> NodeSlot {
    let n = u64::from(tc.n_cores());
    let me = u64::from(tc.core().0);
    let mut node = Node::new(me, n);
    for r in 0..ticks {
        if tc.core_failed() {
            node.slot.crashed = true;
            return node.slot;
        }
        let tick = VirtualTime::from_cycles((r as u64 + 1) * TICK);
        while let Some(m) = tc.recv_deadline(tick) {
            node.handle(tc, m);
        }
        node.check_timeouts(tc);
        // Each node issues its lookups early, leaving the rest of the
        // horizon for retries to ride out partitions.
        if (1..1 + 2 * LOOKUPS_PER_NODE).contains(&r) && (r - 1) % 2 == 0 {
            node.issue(tc);
        }
    }
    node.slot
}

#[cfg(test)]
mod tests {
    use super::*;
    use simany_core::FaultPlanBuilder;
    use simany_topology::mesh_2d;
    use std::sync::Arc;

    #[test]
    fn finger_tables_route_without_overshooting() {
        let node = Node::new(3, 16);
        // Fingers of 3 on a 16-ring: 4, 5, 7, 11 (advance 1, 2, 4, 8).
        assert_eq!(node.fingers, vec![11, 7, 5, 4]);
        assert_eq!(node.owner(35), 3);
        assert_eq!(node.advance(11), 8);
    }

    #[test]
    fn dht_resolves_all_lookups_on_a_healthy_mesh() {
        let o = DhtLookup
            .run_sim(ProgramSpec::new(mesh_2d(16)), Scale(0.5), 7)
            .unwrap();
        assert!(o.verified, "every result must come from the true owner");
        assert_eq!(o.metrics.expected, 32, "2 lookups x 16 nodes");
        assert!(
            o.metrics.coverage() == Some(1.0),
            "healthy mesh resolves everything: {}/{}",
            o.metrics.delivered,
            o.metrics.expected
        );
    }

    #[test]
    fn dht_reissues_and_recovers_across_a_partition() {
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
        let o = DhtLookup.run_sim(spec, Scale(1.0), 7).unwrap();
        assert!(o.verified);
        assert!(
            o.metrics.reissues > 0,
            "cross-partition lookups must time out and re-issue"
        );
        assert!(
            o.metrics.coverage().is_some_and(|c| c > 0.9),
            "post-heal retries should resolve nearly everything: {}/{}",
            o.metrics.delivered,
            o.metrics.expected
        );
    }

    #[test]
    fn dht_is_deterministic() {
        let run = || {
            DhtLookup
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
