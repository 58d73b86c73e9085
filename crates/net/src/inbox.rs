//! Per-core receive queues.
//!
//! A core observes incoming messages ordered by their virtual arrival time,
//! with ties broken by the global send sequence so results never depend on
//! container internals. Per-sender FIFO is guaranteed by construction (fixed
//! routes plus FIFO links, paper §II.B) and defensively asserted here in
//! debug builds.
//!
//! [`InboxPool`] serves *every* core of a machine from one pooled arena:
//! per-core state is a head slot index, a tail slot index and a count
//! (12 bytes), and message slots live in a shared, freelist-recycled slab.
//! An idle core costs no heap allocation at all, which is what makes
//! million-core machines affordable; slot 0 is reserved as "no slot", so
//! all three per-core arrays start as zeroed allocations whose pages the
//! host maps only when a core first receives a message. Slot order within
//! a core is a sorted singly-linked list over the total key
//! `(arrival, seq)` — `seq` is globally unique, so the pop sequence is
//! independent of slot placement. Messages mostly arrive in key order, so
//! a push at or past the tail's key appends in O(1); only an earlier one
//! walks the list from its head. The unit tests keep a standalone
//! binary-heap inbox as the pop-order oracle.

use crate::message::{Envelope, Payload};
use simany_time::VirtualTime;
use simany_topology::CoreId;

/// "No slot" sentinel for the pooled arena's intrusive lists: slot 0, which
/// is reserved and never handed out.
const NIL: u32 = 0;

#[derive(Debug)]
struct Slot {
    env: Envelope,
    next: u32,
}

/// Pooled inboxes for every core of a machine (see module docs).
///
/// The arena is a slab of slots plus a LIFO freelist. Freed slots are
/// reused most-recently-freed first, which keeps the hot working set tiny;
/// slot numbers never escape the pool, so reuse order is invisible to the
/// simulation (and to state digests).
#[derive(Debug)]
pub struct InboxPool {
    head: Vec<u32>,
    /// Last slot of each core's list (`NIL` when empty).
    tail: Vec<u32>,
    count: Vec<u32>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    total: u64,
    #[cfg(debug_assertions)]
    last_seq_per_pair: std::collections::HashMap<(u32, u32), u64>,
}

impl InboxPool {
    /// Pool for `n_cores` cores.
    pub fn new(n_cores: u32) -> Self {
        let reserved = Slot {
            env: Envelope {
                src: CoreId(0),
                dst: CoreId(0),
                sent: VirtualTime::ZERO,
                arrival: VirtualTime::ZERO,
                size_bytes: 0,
                seq: 0,
                payload: Payload::none(),
            },
            next: NIL,
        };
        InboxPool {
            head: vec![NIL; n_cores as usize],
            tail: vec![NIL; n_cores as usize],
            count: vec![0; n_cores as usize],
            slots: vec![reserved],
            free: Vec::new(),
            total: 0,
            #[cfg(debug_assertions)]
            last_seq_per_pair: std::collections::HashMap::new(),
        }
    }

    /// Number of cores served.
    pub fn n_cores(&self) -> usize {
        self.head.len()
    }

    /// Number of messages pending for `core`.
    #[inline]
    pub fn len(&self, core: CoreId) -> usize {
        self.count[core.index()] as usize
    }

    /// True iff nothing is pending for `core`.
    #[inline]
    pub fn is_empty(&self, core: CoreId) -> bool {
        self.count[core.index()] == 0
    }

    /// Total pending messages across all cores — a field read, which makes
    /// the scheduler's machine-quiet check O(1) instead of O(cores).
    pub fn total_messages(&self) -> u64 {
        self.total
    }

    fn alloc(&mut self, env: Envelope, next: u32) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Slot { env, next };
                i
            }
            None => {
                self.slots.push(Slot { env, next });
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn key(&self, slot: u32) -> (VirtualTime, u64) {
        let e = &self.slots[slot as usize].env;
        (e.arrival, e.seq)
    }

    /// Deposit a delivered envelope for `core`.
    pub fn push(&mut self, core: CoreId, env: Envelope) {
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
        let key = (env.arrival, env.seq);
        let slot = self.alloc(env, NIL);
        let (head, tail) = (self.head[core.index()], self.tail[core.index()]);
        if head == NIL {
            self.head[core.index()] = slot;
            self.tail[core.index()] = slot;
        } else if key >= self.key(tail) {
            self.slots[tail as usize].next = slot;
            self.tail[core.index()] = slot;
        } else if key < self.key(head) {
            self.slots[slot as usize].next = head;
            self.head[core.index()] = slot;
        } else {
            let mut cur = head;
            loop {
                let next = self.slots[cur as usize].next;
                if next == NIL || key < self.key(next) {
                    self.slots[slot as usize].next = next;
                    self.slots[cur as usize].next = slot;
                    break;
                }
                cur = next;
            }
        }
        self.total += 1;
        self.count[core.index()] += 1;
    }

    /// Arrival time of the earliest message pending for `core`.
    #[inline]
    pub fn earliest_arrival(&self, core: CoreId) -> Option<VirtualTime> {
        let h = self.head[core.index()];
        if h == NIL {
            None
        } else {
            Some(self.slots[h as usize].env.arrival)
        }
    }

    /// Remove and return the earliest message pending for `core`.
    pub fn pop(&mut self, core: CoreId) -> Option<Envelope> {
        let h = self.head[core.index()];
        if h == NIL {
            return None;
        }
        // Take the envelope out of the slot, leaving a placeholder the
        // freelist will overwrite on reuse.
        let slot = &mut self.slots[h as usize];
        let placeholder = Envelope {
            payload: crate::message::Payload::none(),
            ..slot.env
        };
        let env = std::mem::replace(&mut slot.env, placeholder);
        self.head[core.index()] = slot.next;
        if slot.next == NIL {
            self.tail[core.index()] = NIL;
        }
        self.free.push(h);
        self.total -= 1;
        self.count[core.index()] -= 1;
        Some(env)
    }

    /// Remove the earliest message for `core` only if it has arrived by
    /// `now`.
    pub fn pop_arrived(&mut self, core: CoreId, now: VirtualTime) -> Option<Envelope> {
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
    use crate::message::Payload;
    use simany_topology::CoreId;
    use std::collections::BinaryHeap;

    #[derive(Debug)]
    struct Entry(Envelope);

    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.0.seq == other.0.seq
        }
    }
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reverse ordering: BinaryHeap is a max-heap, we want earliest first.
            (other.0.arrival, other.0.seq).cmp(&(self.0.arrival, self.0.seq))
        }
    }

    /// A standalone per-core inbox over a binary heap: the pop-order oracle
    /// for [`InboxPool`].
    #[derive(Debug, Default)]
    struct Inbox {
        heap: BinaryHeap<Entry>,
        #[cfg(debug_assertions)]
        last_seq_per_sender: std::collections::HashMap<u32, u64>,
    }

    impl Inbox {
        fn new() -> Self {
            Inbox::default()
        }

        fn len(&self) -> usize {
            self.heap.len()
        }

        fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }

        fn push(&mut self, env: Envelope) {
            #[cfg(debug_assertions)]
            {
                // Per-sender FIFO: sequence numbers from one sender must be
                // deposited in increasing order.
                let prev = self
                    .last_seq_per_sender
                    .insert(env.src.0, env.seq)
                    .unwrap_or(0);
                debug_assert!(
                    prev <= env.seq,
                    "per-sender FIFO violated: {} after {}",
                    env.seq,
                    prev
                );
            }
            self.heap.push(Entry(env));
        }

        fn earliest_arrival(&self) -> Option<VirtualTime> {
            self.heap.peek().map(|e| e.0.arrival)
        }

        fn pop(&mut self) -> Option<Envelope> {
            self.heap.pop().map(|e| e.0)
        }

        fn pop_arrived(&mut self, now: VirtualTime) -> Option<Envelope> {
            if self.earliest_arrival()? <= now {
                self.pop()
            } else {
                None
            }
        }

        /// Everything pending, earliest first.
        fn drain(&mut self) -> Vec<Envelope> {
            let mut v: Vec<Envelope> = std::mem::take(&mut self.heap)
                .into_sorted_vec()
                .into_iter()
                .map(|e| e.0)
                .collect();
            // into_sorted_vec sorts ascending by Ord, which is reversed;
            // flip to earliest-first.
            v.reverse();
            v
        }
    }

    fn env(src: u32, seq: u64, arrival_cy: u64) -> Envelope {
        Envelope {
            src: CoreId(src),
            dst: CoreId(99),
            sent: VirtualTime::ZERO,
            arrival: VirtualTime::from_cycles(arrival_cy),
            size_bytes: 8,
            seq,
            payload: Payload::none(),
        }
    }

    #[test]
    fn pops_in_arrival_order() {
        let mut ib = Inbox::new();
        ib.push(env(0, 1, 30));
        ib.push(env(1, 2, 10));
        ib.push(env(2, 3, 20));
        assert_eq!(ib.len(), 3);
        assert_eq!(ib.pop().unwrap().arrival, VirtualTime::from_cycles(10));
        assert_eq!(ib.pop().unwrap().arrival, VirtualTime::from_cycles(20));
        assert_eq!(ib.pop().unwrap().arrival, VirtualTime::from_cycles(30));
        assert!(ib.pop().is_none());
    }

    #[test]
    fn ties_broken_by_seq_for_determinism() {
        let mut ib = Inbox::new();
        ib.push(env(0, 5, 10));
        ib.push(env(1, 3, 10));
        assert_eq!(ib.pop().unwrap().seq, 3);
        assert_eq!(ib.pop().unwrap().seq, 5);
    }

    #[test]
    fn pop_arrived_respects_now() {
        let mut ib = Inbox::new();
        ib.push(env(0, 1, 50));
        assert!(ib.pop_arrived(VirtualTime::from_cycles(49)).is_none());
        assert!(ib.pop_arrived(VirtualTime::from_cycles(50)).is_some());
        assert!(ib.is_empty());
    }

    #[test]
    fn earliest_arrival_peek() {
        let mut ib = Inbox::new();
        assert_eq!(ib.earliest_arrival(), None);
        ib.push(env(0, 1, 7));
        ib.push(env(0, 2, 9));
        assert_eq!(ib.earliest_arrival(), Some(VirtualTime::from_cycles(7)));
    }

    #[test]
    fn drain_returns_earliest_first() {
        let mut ib = Inbox::new();
        ib.push(env(0, 1, 30));
        ib.push(env(1, 2, 10));
        let drained = ib.drain();
        assert_eq!(drained.len(), 2);
        assert!(drained[0].arrival <= drained[1].arrival);
        assert!(ib.is_empty());
    }

    #[test]
    #[should_panic(expected = "FIFO")]
    #[cfg(debug_assertions)]
    fn fifo_violation_detected() {
        let mut ib = Inbox::new();
        ib.push(env(0, 5, 10));
        ib.push(env(0, 4, 12)); // same sender, lower seq: protocol bug
    }

    fn env_for(dst: u32, src: u32, seq: u64, arrival_cy: u64) -> Envelope {
        Envelope {
            dst: CoreId(dst),
            ..env(src, seq, arrival_cy)
        }
    }

    /// Core `c`'s list walked from its head: its keys in order, after
    /// checking that `tail` names the last slot (`NIL` when empty).
    fn pool_keys(pool: &InboxPool, c: usize) -> Vec<(VirtualTime, u64)> {
        let (mut keys, mut cur, mut last) = (Vec::new(), pool.head[c], NIL);
        while cur != NIL {
            keys.push(pool.key(cur));
            last = cur;
            cur = pool.slots[cur as usize].next;
        }
        assert_eq!(pool.tail[c], last, "tail of core {c} is not its last slot");
        keys
    }

    #[test]
    fn pool_pops_in_same_order_as_heap_inbox() {
        let mut pool = InboxPool::new(4);
        let mut heap = Inbox::new();
        // Interleaved arrivals with ties, across several cores.
        let msgs = [
            (2u32, 0u32, 1u64, 30u64),
            (2, 1, 2, 10),
            (2, 0, 3, 30),
            (2, 2, 4, 10),
            (0, 2, 5, 5),
            (2, 1, 6, 20),
        ];
        for &(dst, src, seq, at) in &msgs {
            pool.push(CoreId(dst), env_for(dst, src, seq, at));
            if dst == 2 {
                heap.push(env(src, seq, at));
            }
        }
        assert_eq!(pool.len(CoreId(2)), 5);
        assert_eq!(pool.len(CoreId(0)), 1);
        assert_eq!(pool.total_messages(), 6);
        assert_eq!(pool.earliest_arrival(CoreId(2)), heap.earliest_arrival());
        while let Some(expect) = heap.pop() {
            let got = pool.pop(CoreId(2)).expect("pool missing a message");
            assert_eq!((got.arrival, got.seq), (expect.arrival, expect.seq));
        }
        assert!(pool.is_empty(CoreId(2)));
        assert!(pool.pop(CoreId(2)).is_none());
        assert_eq!(pool.pop(CoreId(0)).map(|e| e.seq), Some(5));

        // Rounds of pushes that land at the tail (at or past its key), at
        // the head (before it) and in between, with partial pops. Cores 1
        // and 2 are drained to empty after every round, cores 0 and 3
        // after every other, so `tail` is cleared and set again.
        let mut rng = simany_time::Xoshiro256StarStar::stream(5, 0);
        let mut seq = 100;
        let mut heaps: Vec<Inbox> = (0..4).map(|_| Inbox::new()).collect();
        for round in 0..40 {
            for _ in 0..rng.next_index(24) {
                let dst = rng.next_index(4);
                let keys = pool_keys(&pool, dst);
                let at = match (keys.first(), keys.last(), rng.next_index(3)) {
                    (Some(&(lo, _)), _, 0) => {
                        lo.cycles().saturating_sub(1 + rng.next_index(3) as u64)
                    }
                    (Some(&(lo, _)), Some(&(hi, _)), 1) => {
                        lo.cycles()
                            + rng.next_index((hi.cycles() - lo.cycles()) as usize + 1) as u64
                    }
                    (_, Some(&(hi, _)), _) => hi.cycles() + rng.next_index(3) as u64,
                    _ => 50 + rng.next_index(10) as u64,
                };
                seq += 1;
                let src = seq as u32; // one message per sender: FIFO holds
                pool.push(CoreId(dst as u32), env_for(dst as u32, src, seq, at));
                heaps[dst].push(env(src, seq, at));
                assert_eq!(pool_keys(&pool, dst).len(), heaps[dst].len());
                if rng.next_index(4) == 0 {
                    let expect = heaps[dst].pop().expect("just pushed");
                    let got = pool.pop(CoreId(dst as u32)).expect("just pushed");
                    assert_eq!((got.arrival, got.seq), (expect.arrival, expect.seq));
                }
            }
            let drained = if round % 2 == 0 { 0..4 } else { 1..3 };
            for c in drained {
                while let Some(expect) = heaps[c].pop() {
                    let got = pool.pop(CoreId(c as u32)).expect("pool missing a message");
                    assert_eq!((got.arrival, got.seq), (expect.arrival, expect.seq));
                    pool_keys(&pool, c);
                }
                assert!(pool.is_empty(CoreId(c as u32)));
                assert_eq!(pool.tail[c], NIL);
            }
        }
    }

    #[test]
    fn pool_slot_reuse_keeps_order() {
        let mut pool = InboxPool::new(2);
        for round in 0..50u64 {
            pool.push(CoreId(0), env_for(0, 1, round * 2 + 1, 100 - round));
            pool.push(CoreId(1), env_for(1, 0, round * 2 + 2, round));
            let a = pool.pop(CoreId(0)).unwrap();
            assert_eq!(a.seq, round * 2 + 1);
            let b = pool
                .pop_arrived(CoreId(1), VirtualTime::from_cycles(round))
                .unwrap();
            assert_eq!(b.seq, round * 2 + 2);
        }
        assert_eq!(pool.total_messages(), 0);
        // Slot 0 is the "no slot" mark: never handed out, never freed.
        assert_eq!(pool.slots[0].env.seq, 0);
        assert!(!pool.free.contains(&NIL));
    }
}
