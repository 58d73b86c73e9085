//! Per-link traffic state: contention on individual links.
//!
//! Each directed link serializes transmissions: while one message's bytes
//! occupy the wire, a later message must wait. The paper distinguishes
//! SiMany from BigSim precisely on this point ("BigSim uses a simpler
//! network model that completely neglects contention. In contrast, we do
//! model contention on individual links", §VII).

use simany_time::{VDuration, VirtualTime};
use simany_topology::LinkId;

/// Aggregate network statistics.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    /// Messages sent through the network model.
    pub messages: u64,
    /// Total payload bytes.
    pub bytes: u64,
    /// Total hops traversed by all messages.
    pub total_hops: u64,
    /// Total virtual time messages spent waiting for busy links.
    pub contention_wait: VDuration,
    /// Number of hop traversals that had to wait for a busy link.
    pub contended_hops: u64,
    /// Messages dropped in flight by the fault plan (never delivered,
    /// never charged).
    pub dropped: u64,
    /// Messages corrupted in flight (charged the full route, then
    /// discarded at the destination).
    pub corrupted: u64,
    /// Messages that paid a fault-plan extra delay.
    pub delayed: u64,
    /// Messages that took a recomputed route because their base route
    /// crossed a dead link.
    pub rerouted: u64,
    /// Send attempts refused because no surviving route reaches the
    /// destination (partitioned machine).
    pub unreachable: u64,
    /// Next-hop route rows built ([`simany_topology::Routes::builds`]):
    /// host work, not simulated state, so no digest folds it.
    pub row_builds: u64,
}

/// Occupancy state of every directed link.
///
/// Both columns hold raw ticks: `vec![0u64; n]` is a zeroed allocation the
/// host backs lazily, page by page, as links first carry traffic, where a
/// `vec!` of a newtype writes every element up front.
#[derive(Clone, Debug)]
pub struct LinkTraffic {
    /// Virtual time (ticks) at which each link becomes free.
    next_free: Vec<u64>,
    /// Cumulative busy time (ticks) per link (for utilization reporting).
    busy: Vec<u64>,
}

impl LinkTraffic {
    /// Fresh state for `n_links` directed links.
    pub fn new(n_links: u32) -> Self {
        LinkTraffic {
            next_free: vec![0; n_links as usize],
            busy: vec![0; n_links as usize],
        }
    }

    /// Traverse `link` with a message ready at `ready`: the transmission
    /// starts when both the message is ready and the link is free, occupies
    /// the link for `serialization`, and the head of the message reaches the
    /// next hop after `propagation` more. Returns the arrival time at the
    /// next hop and updates contention state and `stats`.
    pub fn traverse(
        &mut self,
        link: LinkId,
        ready: VirtualTime,
        serialization: VDuration,
        propagation: VDuration,
        stats: &mut NetStats,
    ) -> VirtualTime {
        let start = ready.max(self.next_free(link));
        let waited = start.saturating_since(ready);
        if !waited.is_zero() {
            stats.contention_wait += waited;
            stats.contended_hops += 1;
        }
        let end_of_tx = start + serialization;
        self.next_free[link.index()] = end_of_tx.ticks();
        self.busy[link.index()] += serialization.ticks();
        end_of_tx + propagation
    }

    /// Virtual time at which `link` becomes free.
    pub fn next_free(&self, link: LinkId) -> VirtualTime {
        VirtualTime(self.next_free[link.index()])
    }

    /// Cumulative busy (transmitting) time of `link`.
    pub fn busy_time(&self, link: LinkId) -> VDuration {
        VDuration(self.busy[link.index()])
    }

    /// Utilization of `link` relative to a horizon (reporting helper).
    ///
    /// A zero horizon yields 0.0 (not NaN), and a degenerate horizon
    /// shorter than the accumulated busy time clamps to 1.0 — utilization
    /// is a fraction by contract.
    pub fn utilization(&self, link: LinkId, horizon: VirtualTime) -> f64 {
        if horizon.ticks() == 0 {
            0.0
        } else {
            (self.busy[link.index()] as f64 / horizon.ticks() as f64).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cy(c: u64) -> VDuration {
        VDuration::from_cycles(c)
    }

    fn at(c: u64) -> VirtualTime {
        VirtualTime::from_cycles(c)
    }

    #[test]
    fn uncontended_traversal() {
        let mut lt = LinkTraffic::new(2);
        let mut stats = NetStats::default();
        let arrival = lt.traverse(LinkId(0), at(10), cy(2), cy(1), &mut stats);
        assert_eq!(arrival, at(13));
        assert_eq!(lt.next_free(LinkId(0)), at(12));
        assert_eq!(stats.contended_hops, 0);
    }

    #[test]
    fn back_to_back_messages_queue() {
        let mut lt = LinkTraffic::new(1);
        let mut stats = NetStats::default();
        let a = lt.traverse(LinkId(0), at(0), cy(5), cy(1), &mut stats);
        let b = lt.traverse(LinkId(0), at(0), cy(5), cy(1), &mut stats);
        assert_eq!(a, at(6));
        assert_eq!(b, at(11)); // starts at 5 when the link frees
        assert_eq!(stats.contention_wait, cy(5));
        assert_eq!(stats.contended_hops, 1);
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut lt = LinkTraffic::new(1);
        let mut stats = NetStats::default();
        lt.traverse(LinkId(0), at(0), cy(1), cy(1), &mut stats);
        // Next message arrives long after the link freed: no wait.
        let b = lt.traverse(LinkId(0), at(100), cy(1), cy(1), &mut stats);
        assert_eq!(b, at(102));
        assert_eq!(stats.contended_hops, 0);
    }

    #[test]
    fn busy_time_accumulates_independently_per_link() {
        let mut lt = LinkTraffic::new(2);
        let mut stats = NetStats::default();
        lt.traverse(LinkId(0), at(0), cy(3), cy(1), &mut stats);
        lt.traverse(LinkId(1), at(0), cy(7), cy(1), &mut stats);
        assert_eq!(lt.busy_time(LinkId(0)), cy(3));
        assert_eq!(lt.busy_time(LinkId(1)), cy(7));
        assert!((lt.utilization(LinkId(0), at(10)) - 0.3).abs() < 1e-12);
        assert_eq!(lt.utilization(LinkId(0), VirtualTime::ZERO), 0.0);
    }

    #[test]
    fn utilization_degenerate_horizons() {
        let mut lt = LinkTraffic::new(1);
        let mut stats = NetStats::default();
        lt.traverse(LinkId(0), at(0), cy(50), cy(1), &mut stats);
        // Zero horizon: defined as 0.0, not NaN.
        assert_eq!(lt.utilization(LinkId(0), VirtualTime::ZERO), 0.0);
        // Horizon shorter than busy time: clamped to a valid fraction.
        assert_eq!(lt.utilization(LinkId(0), at(10)), 1.0);
        let u = lt.utilization(LinkId(0), at(100));
        assert!((0.0..=1.0).contains(&u));
        assert!((u - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_serialization_never_blocks() {
        let mut lt = LinkTraffic::new(1);
        let mut stats = NetStats::default();
        let a = lt.traverse(LinkId(0), at(0), VDuration::ZERO, cy(1), &mut stats);
        let b = lt.traverse(LinkId(0), at(0), VDuration::ZERO, cy(1), &mut stats);
        assert_eq!(a, b);
        assert_eq!(stats.contended_hops, 0);
    }
}
