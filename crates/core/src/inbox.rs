//! Per-core receive queues.
//!
//! A core observes incoming messages ordered by their virtual arrival time,
//! with ties broken by the global send sequence, so results never depend on
//! container internals. Per-sender FIFO holds by construction (fixed routes
//! plus FIFO links, paper §II.B) and is asserted here in debug builds.
//!
//! Each core's queue is a list of one shared [`ListPool`], kept sorted by
//! the total key `(arrival, seq)`: `seq` is globally unique, so the pop
//! order is independent of slot placement. Messages mostly arrive in key
//! order, so a push appends in O(1); only an earlier arrival walks the
//! list from its head. The unit tests keep a binary-heap inbox as the
//! pop-order oracle.

use crate::state::ListPool;
use simany_net::Envelope;
use simany_time::VirtualTime;
use simany_topology::CoreId;

/// Every core's pending messages (see module docs).
pub(crate) struct Inboxes {
    lists: ListPool<Envelope>,
    #[cfg(debug_assertions)]
    last_seq_per_pair: std::collections::HashMap<(u32, u32), u64>,
}

impl Inboxes {
    /// Empty inboxes for `n` cores.
    pub(crate) fn new(n: usize) -> Self {
        Inboxes {
            lists: ListPool::new(n),
            #[cfg(debug_assertions)]
            last_seq_per_pair: std::collections::HashMap::new(),
        }
    }

    /// Number of messages pending for `core` (walks its list).
    pub(crate) fn len(&self, core: CoreId) -> usize {
        self.lists.iter(core.index()).count()
    }

    /// True iff nothing is pending for `core`.
    pub(crate) fn is_empty(&self, core: CoreId) -> bool {
        self.lists.is_empty(core.index())
    }

    /// Deposit a delivered envelope for `core`.
    pub(crate) fn push(&mut self, core: CoreId, env: Envelope) {
        #[cfg(debug_assertions)]
        {
            let prev = self
                .last_seq_per_pair
                .insert((core.0, env.src.0), env.seq)
                .unwrap_or(0);
            debug_assert!(
                prev <= env.seq,
                "per-sender FIFO violated: {} after {}",
                env.seq,
                prev
            );
        }
        self.lists
            .insert_sorted(core.index(), env, |e| (e.arrival, e.seq));
    }

    /// Arrival time of the earliest message pending for `core`.
    pub(crate) fn earliest_arrival(&self, core: CoreId) -> Option<VirtualTime> {
        self.lists.front(core.index()).map(|e| e.arrival)
    }

    /// Remove and return the earliest message pending for `core`.
    pub(crate) fn pop(&mut self, core: CoreId) -> Option<Envelope> {
        self.lists.pop_front(core.index())
    }

    /// Remove the earliest message for `core` only if it has arrived by
    /// `now`.
    pub(crate) fn pop_arrived(&mut self, core: CoreId, now: VirtualTime) -> Option<Envelope> {
        if self.earliest_arrival(core)? <= now {
            self.pop(core)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simany_net::Payload;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn env(dst: u32, src: u32, seq: u64, arrival_cy: u64) -> Envelope {
        Envelope {
            src: CoreId(src),
            dst: CoreId(dst),
            sent: VirtualTime::ZERO,
            arrival: VirtualTime::from_cycles(arrival_cy),
            size_bytes: 8,
            seq,
            payload: Payload::none(),
        }
    }

    /// Core 0's inbox after pushing `(src, seq, arrival)` in order.
    fn inbox(msgs: &[(u32, u64, u64)]) -> Inboxes {
        let mut ib = Inboxes::new(1);
        for &(src, seq, at) in msgs {
            ib.push(CoreId(0), env(0, src, seq, at));
        }
        ib
    }

    fn arrival(e: Option<Envelope>) -> Option<VirtualTime> {
        e.map(|e| e.arrival)
    }

    const C0: CoreId = CoreId(0);

    #[test]
    fn pops_in_arrival_order() {
        let mut ib = inbox(&[(0, 1, 30), (1, 2, 10), (2, 3, 20)]);
        assert_eq!(ib.len(C0), 3);
        for at in [10, 20, 30] {
            assert_eq!(arrival(ib.pop(C0)), Some(VirtualTime::from_cycles(at)));
        }
        assert!(ib.pop(C0).is_none());
    }

    #[test]
    fn ties_broken_by_seq_for_determinism() {
        let mut ib = inbox(&[(0, 5, 10), (1, 3, 10)]);
        assert_eq!(ib.pop(C0).map(|e| e.seq), Some(3));
        assert_eq!(ib.pop(C0).map(|e| e.seq), Some(5));
    }

    #[test]
    fn pop_arrived_respects_now() {
        let mut ib = inbox(&[(0, 1, 50)]);
        assert!(ib.pop_arrived(C0, VirtualTime::from_cycles(49)).is_none());
        assert!(ib.pop_arrived(C0, VirtualTime::from_cycles(50)).is_some());
        assert!(ib.is_empty(C0));
    }

    #[test]
    fn earliest_arrival_peek() {
        let mut ib = inbox(&[]);
        assert_eq!(ib.earliest_arrival(C0), None);
        ib.push(C0, env(0, 0, 1, 9));
        ib.push(C0, env(0, 1, 2, 7));
        assert_eq!(ib.earliest_arrival(C0), Some(VirtualTime::from_cycles(7)));
        assert_eq!(ib.len(C0), 2);
    }

    /// Popping everything returns it earliest first and leaves the core
    /// empty, and a push after that starts a fresh list.
    #[test]
    fn drain_returns_earliest_first() {
        let mut ib = inbox(&[(0, 1, 30), (1, 2, 10)]);
        let drained: Vec<_> = std::iter::from_fn(|| ib.pop(C0)).map(|e| e.seq).collect();
        assert_eq!(drained, [2, 1]);
        assert!(ib.is_empty(C0));
        ib.push(C0, env(0, 2, 3, 5));
        assert_eq!(ib.pop(C0).map(|e| e.seq), Some(3));
    }

    #[test]
    #[should_panic(expected = "FIFO")]
    #[cfg(debug_assertions)]
    fn fifo_violation_detected() {
        // Same sender, lower seq: a protocol bug.
        inbox(&[(0, 5, 10), (0, 4, 12)]);
    }

    /// Per-core binary heaps of `(arrival, seq)`, earliest first: the
    /// pop-order oracle.
    type Oracle = Vec<BinaryHeap<Reverse<(VirtualTime, u64)>>>;

    fn pop_both(ib: &mut Inboxes, heaps: &mut Oracle, c: usize) {
        let Reverse(expect) = heaps[c].pop().expect("oracle empty");
        let got = ib.pop(CoreId(c as u32)).expect("inbox missing a message");
        assert_eq!((got.arrival, got.seq), expect);
    }

    /// Random pushes that land past the tail, before the head and in
    /// between, with partial pops, pop in exactly the heap's order. Cores 1
    /// and 2 are drained to empty after every round, cores 0 and 3 after
    /// every other, so each list empties and refills.
    #[test]
    fn pool_pops_in_same_order_as_heap_inbox() {
        let mut ib = Inboxes::new(4);
        let mut heaps: Oracle = (0..4).map(|_| BinaryHeap::new()).collect();
        let mut rng = simany_time::Xoshiro256StarStar::stream(5, 0);
        let mut seq = 0;
        for round in 0..40 {
            for _ in 0..rng.next_index(24) {
                let dst = rng.next_index(4);
                let keys: Vec<u64> = ib.lists.iter(dst).map(|e| e.arrival.cycles()).collect();
                let at = match (keys.first(), keys.last(), rng.next_index(3)) {
                    (Some(&lo), _, 0) => lo.saturating_sub(1 + rng.next_index(3) as u64),
                    (Some(&lo), Some(&hi), 1) => lo + rng.next_index((hi - lo) as usize + 1) as u64,
                    (_, Some(&hi), _) => hi + rng.next_index(3) as u64,
                    _ => 50 + rng.next_index(10) as u64,
                };
                seq += 1;
                // One message per sender, so per-sender FIFO holds.
                ib.push(CoreId(dst as u32), env(dst as u32, seq as u32, seq, at));
                heaps[dst].push(Reverse((VirtualTime::from_cycles(at), seq)));
                assert_eq!(ib.len(CoreId(dst as u32)), heaps[dst].len());
                if rng.next_index(4) == 0 {
                    pop_both(&mut ib, &mut heaps, dst);
                }
            }
            let drained = if round % 2 == 0 { 0..4 } else { 1..3 };
            for c in drained {
                while !heaps[c].is_empty() {
                    pop_both(&mut ib, &mut heaps, c);
                }
                assert!(ib.pop(CoreId(c as u32)).is_none());
            }
            for (c, heap) in heaps.iter().enumerate() {
                assert_eq!(ib.len(CoreId(c as u32)), heap.len());
            }
        }
    }

    #[test]
    fn pool_slot_reuse_keeps_order() {
        let mut ib = Inboxes::new(2);
        for round in 0..50u64 {
            ib.push(CoreId(0), env(0, 1, round * 2 + 1, 100 - round));
            ib.push(CoreId(1), env(1, 0, round * 2 + 2, round));
            assert_eq!(ib.pop(CoreId(0)).map(|e| e.seq), Some(round * 2 + 1));
            let b = ib.pop_arrived(CoreId(1), VirtualTime::from_cycles(round));
            assert_eq!(b.map(|e| e.seq), Some(round * 2 + 2));
        }
        assert!(ib.is_empty(CoreId(0)) && ib.is_empty(CoreId(1)));
    }
}
