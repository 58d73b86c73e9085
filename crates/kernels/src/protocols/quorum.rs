//! Quorum / leader protocol (Raft-flavored).
//!
//! Every core is a voter. A leader emits periodic heartbeats and proposes
//! commands, which commit once a majority of acknowledgements arrive.
//! Followers whose randomized election timeout expires start a
//! term-numbered election (`VOTE_REQ` / `VOTE_GRANT`, one vote per term);
//! a candidate with a majority becomes the new leader. Under a partition
//! the minority side can elect nobody and commits nothing — the classic
//! quorum-safety property — while the majority side keeps committing;
//! leader churn (the old leader isolated, a new one elected at a higher
//! term) is survived by term comparison. Safety check after the run:
//! across every node's observations, **at most one leader per term**.

use crate::protocols::{run_nodes, ProtocolKernel, ProtocolMetrics, ProtocolOutcome};
use crate::Scale;
use simany_core::{SimError, VDuration, VirtualTime};
use simany_runtime::{AppMsg, ProgramSpec, TaskCtx};
use simany_topology::CoreId;
use std::collections::{BTreeMap, BTreeSet};

/// Tick length in cycles.
const TICK: u64 = 1_000;
/// Base number of ticks (scaled by [`Scale`]).
const BASE_TICKS: usize = 64;
/// Leader heartbeat period, in ticks.
const HEARTBEAT_EVERY: usize = 2;
/// Leader proposal period, in ticks.
const PROPOSE_EVERY: usize = 4;
/// Election timeout: base + uniform jitter, in cycles.
const ELECTION_BASE: u64 = 6_000;
const ELECTION_JITTER: u64 = 4_000;

const TAG_VOTE_REQ: u32 = 1;
const TAG_VOTE_GRANT: u32 = 2;
const TAG_HEARTBEAT: u32 = 3;
const TAG_APPEND: u32 = 4;
const TAG_ACK: u32 = 5;

#[derive(Clone, Copy, PartialEq)]
enum Role {
    Follower,
    Candidate,
    Leader,
}

/// Per-node outcome, written once by the owning node task.
#[derive(Clone, Default)]
struct NodeSlot {
    proposals: u64,
    commits: u64,
    elections: u64,
    sent: u64,
    latencies: Vec<u64>,
    /// `(term, leader)` pairs this node observed (heartbeats + own wins).
    observed: BTreeSet<(u64, u64)>,
    crashed: bool,
}

struct Node {
    me: u64,
    n: u64,
    role: Role,
    term: u64,
    voted_for: Option<u64>,
    leader: Option<u64>,
    election_deadline: VirtualTime,
    /// Grants received for my candidacy in the current term.
    votes: BTreeSet<u64>,
    /// Highest commit index learned (leader's committed count).
    commit_index: u64,
    /// Leader-side: next proposal index.
    next_index: u64,
    /// Leader-side: proposals awaiting a majority of acks.
    pending: BTreeMap<u64, (VirtualTime, BTreeSet<u64>)>,
    slot: NodeSlot,
}

impl Node {
    fn majority(&self) -> usize {
        (self.n / 2 + 1) as usize
    }

    fn reset_election_deadline(&mut self, tc: &mut TaskCtx<'_>) {
        let jitter = tc.rand_below(ELECTION_JITTER);
        self.election_deadline = tc.now() + VDuration::from_cycles(ELECTION_BASE + jitter);
    }

    fn send_all(&mut self, tc: &mut TaskCtx<'_>, tag: u32, data: [u64; 4]) {
        for c in 0..self.n {
            if c != self.me {
                self.slot.sent += 1;
                tc.send_app(CoreId(c as u32), tag, data);
            }
        }
    }

    fn send_one(&mut self, tc: &mut TaskCtx<'_>, dst: u64, tag: u32, data: [u64; 4]) {
        self.slot.sent += 1;
        tc.send_app(CoreId(dst as u32), tag, data);
    }

    /// Step down if a message carries a newer term.
    fn observe_term(&mut self, term: u64) {
        if term > self.term {
            self.term = term;
            self.role = Role::Follower;
            self.voted_for = None;
            self.leader = None;
            self.votes.clear();
            self.pending.clear();
        }
    }

    fn become_leader(&mut self, tc: &mut TaskCtx<'_>) {
        self.role = Role::Leader;
        self.leader = Some(self.me);
        self.slot.observed.insert((self.term, self.me));
        // Assert authority immediately.
        let hb = [self.term, self.me, self.commit_index, 0];
        self.send_all(tc, TAG_HEARTBEAT, hb);
    }

    fn start_election(&mut self, tc: &mut TaskCtx<'_>) {
        self.term += 1;
        self.role = Role::Candidate;
        self.voted_for = Some(self.me);
        self.leader = None;
        self.votes = BTreeSet::from([self.me]);
        self.pending.clear();
        self.slot.elections += 1;
        self.reset_election_deadline(tc);
        if self.votes.len() >= self.majority() {
            self.become_leader(tc); // n == 1
        } else {
            self.send_all(tc, TAG_VOTE_REQ, [self.term, 0, 0, 0]);
        }
    }

    fn propose(&mut self, tc: &mut TaskCtx<'_>) {
        let index = self.next_index;
        self.next_index += 1;
        self.slot.proposals += 1;
        let now = tc.now();
        let mut acks = BTreeSet::from([self.me]);
        if acks.len() >= self.majority() {
            // n == 1: self-ack commits instantly.
            self.commit(tc, now);
        } else {
            acks.insert(self.me);
            self.pending.insert(index, (now, acks));
            self.send_all(tc, TAG_APPEND, [self.term, index, now.ticks(), 0]);
        }
    }

    fn commit(&mut self, tc: &mut TaskCtx<'_>, proposed: VirtualTime) {
        self.slot.commits += 1;
        self.commit_index += 1;
        self.slot
            .latencies
            .push(tc.now().saturating_since(proposed).cycles());
    }

    fn handle(&mut self, tc: &mut TaskCtx<'_>, m: AppMsg) {
        tc.work(25);
        let from = u64::from(m.from.0);
        let term = m.data[0];
        self.observe_term(term);
        match m.tag {
            TAG_VOTE_REQ
                if term == self.term
                    && (self.voted_for.is_none() || self.voted_for == Some(from)) =>
            {
                self.voted_for = Some(from);
                self.reset_election_deadline(tc);
                self.send_one(tc, from, TAG_VOTE_GRANT, [term, 0, 0, 0]);
            }
            TAG_VOTE_GRANT if self.role == Role::Candidate && term == self.term => {
                self.votes.insert(from);
                if self.votes.len() >= self.majority() {
                    self.become_leader(tc);
                }
            }
            TAG_HEARTBEAT if term == self.term => {
                let leader = m.data[1];
                if leader != self.me {
                    self.role = Role::Follower;
                }
                self.leader = Some(leader);
                self.slot.observed.insert((term, leader));
                self.commit_index = self.commit_index.max(m.data[2]);
                self.reset_election_deadline(tc);
            }
            TAG_APPEND if term == self.term => {
                if from != self.me {
                    self.role = Role::Follower;
                    self.leader = Some(from);
                    self.slot.observed.insert((term, from));
                }
                self.reset_election_deadline(tc);
                self.send_one(tc, from, TAG_ACK, [term, m.data[1], m.data[2], 0]);
            }
            TAG_ACK if self.role == Role::Leader && term == self.term => {
                let index = m.data[1];
                let majority = self.majority();
                if let Some((proposed, acks)) = self.pending.get_mut(&index) {
                    acks.insert(from);
                    if acks.len() >= majority {
                        let proposed = *proposed;
                        self.pending.remove(&index);
                        self.commit(tc, proposed);
                    }
                }
            }
            _ => {}
        }
    }
}

/// The quorum / leader protocol workload.
pub struct Quorum;

impl ProtocolKernel for Quorum {
    fn name(&self) -> &'static str {
        "Quorum"
    }

    fn run_sim(
        &self,
        spec: ProgramSpec,
        scale: Scale,
        _seed: u64,
    ) -> Result<ProtocolOutcome, SimError> {
        let ticks = scale.apply(BASE_TICKS, 16);
        let (out, slots) = run_nodes(spec, "quorum-node", move |tc, _| node_loop(tc, ticks))?;
        // Safety: merge every node's observations; a term with two
        // distinct leaders is a split-brain violation.
        let mut observed: BTreeSet<(u64, u64)> = BTreeSet::new();
        for s in slots.iter() {
            observed.extend(s.observed.iter().copied());
        }
        let mut terms_seen: BTreeSet<u64> = BTreeSet::new();
        let mut split_brain = false;
        for &(term, _) in &observed {
            if !terms_seen.insert(term) {
                split_brain = true;
            }
        }
        let mut latencies = Vec::new();
        for s in slots.iter() {
            latencies.extend_from_slice(&s.latencies);
        }
        let metrics = ProtocolMetrics {
            expected: slots.iter().map(|s| s.proposals).sum(),
            delivered: slots.iter().map(|s| s.commits).sum(),
            payload_msgs: slots.iter().map(|s| s.sent).sum(),
            reissues: out.rt.send_retries,
            degraded: slots.iter().map(|s| s.elections).sum(),
            leader_changes: observed.len() as u64,
            latencies,
        };
        Ok(ProtocolOutcome {
            out,
            verified: !split_brain,
            metrics,
        })
    }
}

fn node_loop(tc: &mut TaskCtx<'_>, ticks: usize) -> NodeSlot {
    let n = u64::from(tc.n_cores());
    let me = u64::from(tc.core().0);
    let mut node = Node {
        me,
        n,
        role: Role::Follower,
        term: 0,
        voted_for: None,
        leader: None,
        election_deadline: VirtualTime::ZERO,
        votes: BTreeSet::new(),
        commit_index: 0,
        next_index: 1,
        pending: BTreeMap::new(),
        slot: NodeSlot::default(),
    };
    node.reset_election_deadline(tc);
    for r in 0..ticks {
        if tc.core_failed() {
            node.slot.crashed = true;
            return node.slot;
        }
        let tick = VirtualTime::from_cycles((r as u64 + 1) * TICK);
        while let Some(m) = tc.recv_deadline(tick) {
            node.handle(tc, m);
        }
        if node.role == Role::Leader {
            if r % HEARTBEAT_EVERY == 0 {
                let hb = [node.term, node.me, node.commit_index, 0];
                node.send_all(tc, TAG_HEARTBEAT, hb);
            }
            if r % PROPOSE_EVERY == 1 {
                node.propose(tc);
            }
        } else if tc.now() >= node.election_deadline {
            node.start_election(tc);
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
    fn quorum_elects_and_commits_on_a_healthy_mesh() {
        let o = Quorum
            .run_sim(ProgramSpec::new(mesh_2d(16)), Scale(1.0), 7)
            .unwrap();
        assert!(o.verified, "at most one leader per term");
        assert!(o.metrics.degraded >= 1, "someone must win an election");
        assert!(o.metrics.delivered > 0, "the leader must commit commands");
        assert!(o.metrics.coverage().is_some_and(|c| c > 0.5));
        assert!(o.metrics.leader_changes >= 1);
    }

    #[test]
    fn quorum_survives_partition_and_leader_churn() {
        let topo = mesh_2d(16);
        let plan = FaultPlanBuilder::new()
            .partition_halves(
                &topo,
                VirtualTime::from_cycles(15_000),
                Some(VirtualTime::from_cycles(40_000)),
            )
            .build(&topo);
        let mut spec = ProgramSpec::new(topo);
        spec.engine = spec
            .engine
            .with_fault_plan(Arc::new(plan))
            .with_sanitize(true);
        let o = Quorum.run_sim(spec, Scale(1.0), 7).unwrap();
        assert!(
            o.verified,
            "no split brain: a 8/8 partition leaves no majority on either side \
             until the heal, and term numbering serializes later leaders"
        );
        assert!(o.metrics.delivered > 0, "commits must resume post-heal");
    }

    #[test]
    fn quorum_is_deterministic() {
        let run = || {
            Quorum
                .run_sim(ProgramSpec::new(mesh_2d(16)), Scale(0.5), 11)
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.cycles(), b.cycles());
        assert_eq!(a.metrics.delivered, b.metrics.delivered);
        assert_eq!(a.metrics.leader_changes, b.metrics.leader_changes);
        assert_eq!(a.metrics.latencies, b.metrics.latencies);
    }
}
