//! Per-core receive queues.
//!
//! A core observes incoming messages ordered by their virtual arrival time,
//! with ties broken by the global send sequence so results never depend on
//! container internals. Per-sender FIFO is guaranteed by construction (fixed
//! routes plus FIFO links, paper §II.B) and defensively asserted here in
//! debug builds.
//!
//! Two implementations share that contract:
//!
//! * [`Inbox`] — the classic standalone per-core queue (a binary heap).
//!   Kept for small ad-hoc uses and as the pop-order oracle of the
//!   pool's unit test.
//! * [`InboxPool`] — one pooled arena serving *every* core of a machine:
//!   per-core state is just a head slot index and a count (8 bytes), and
//!   message slots live in shared, freelist-recycled shard arenas. An idle
//!   core costs no heap allocation at all, which is what makes
//!   million-core machines affordable. Slot order within a core is a
//!   sorted singly-linked list over the *same* total key `(arrival, seq)`
//!   the heap uses — `seq` is globally unique, so the pop sequence is
//!   identical to [`Inbox`]'s and independent of slot placement or shard
//!   count.

use crate::message::Envelope;
use simany_time::VirtualTime;
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

/// A core's inbox: messages not yet processed, earliest arrival first.
#[derive(Debug, Default)]
pub struct Inbox {
    heap: BinaryHeap<Entry>,
    #[cfg(debug_assertions)]
    last_seq_per_sender: std::collections::HashMap<u32, u64>,
}

impl Inbox {
    /// Empty inbox.
    pub fn new() -> Self {
        Inbox::default()
    }

    /// Number of pending messages.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff no message is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Deposit a delivered envelope.
    pub fn push(&mut self, env: Envelope) {
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

    /// Arrival time of the earliest pending message.
    pub fn earliest_arrival(&self) -> Option<VirtualTime> {
        self.heap.peek().map(|e| e.0.arrival)
    }

    /// Remove and return the earliest pending message.
    pub fn pop(&mut self) -> Option<Envelope> {
        self.heap.pop().map(|e| e.0)
    }

    /// Remove the earliest pending message only if it has arrived by `now`.
    pub fn pop_arrived(&mut self, now: VirtualTime) -> Option<Envelope> {
        if self.earliest_arrival()? <= now {
            self.pop()
        } else {
            None
        }
    }

    /// Drain everything (used at simulation teardown).
    pub fn drain(&mut self) -> Vec<Envelope> {
        let mut v: Vec<Envelope> = std::mem::take(&mut self.heap)
            .into_sorted_vec()
            .into_iter()
            .map(|e| e.0)
            .collect();
        // into_sorted_vec sorts ascending by Ord, which is reversed; flip to
        // earliest-first.
        v.reverse();
        v
    }
}

/// "No slot" sentinel for the pooled arena's intrusive lists.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Slot {
    env: Envelope,
    next: u32,
}

/// One shard of the pooled arena: a slab of slots plus a LIFO freelist.
/// Freed slots are reused most-recently-freed first, which keeps the hot
/// working set tiny; slot numbers never escape the pool, so reuse order is
/// invisible to the simulation (and to state digests).
#[derive(Debug, Default)]
struct InboxShard {
    slots: Vec<Slot>,
    free: Vec<u32>,
    total: u64,
    #[cfg(debug_assertions)]
    last_seq_per_pair: std::collections::HashMap<(u32, u32), u64>,
}

impl InboxShard {
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
}

/// Pooled inboxes for every core of a machine (see module docs).
///
/// Sharding: cores can be assigned to shards (one per host-parallel tile)
/// so the parallel engine's destination-sharded phase-B replay touches
/// disjoint arenas from each lane. The shard map changes *where* slots
/// live, never the per-core message order, so it is invisible to results.
#[derive(Debug)]
pub struct InboxPool {
    head: Vec<u32>,
    count: Vec<u32>,
    shard_of: Vec<u32>,
    shards: Vec<InboxShard>,
}

impl InboxPool {
    /// Pool for `n_cores` cores backed by a single shared arena.
    pub fn new(n_cores: u32) -> Self {
        InboxPool {
            head: vec![NIL; n_cores as usize],
            count: vec![0; n_cores as usize],
            shard_of: vec![0; n_cores as usize],
            shards: vec![InboxShard::default()],
        }
    }

    /// Pool with one arena per shard; `shard_of[i]` is the shard of core
    /// `i` (ids must be dense `0..max+1`).
    pub fn with_shards(shard_of: Vec<u32>) -> Self {
        let n_shards = shard_of.iter().copied().max().map_or(1, |m| m as usize + 1);
        InboxPool {
            head: vec![NIL; shard_of.len()],
            count: vec![0; shard_of.len()],
            shard_of,
            shards: (0..n_shards).map(|_| InboxShard::default()).collect(),
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

    /// Total pending messages across all cores — O(shards), which makes
    /// the scheduler's machine-quiet check O(1) instead of O(cores).
    pub fn total_messages(&self) -> u64 {
        self.shards.iter().map(|s| s.total).sum()
    }

    /// Deposit a delivered envelope for `core`.
    pub fn push(&mut self, core: CoreId, env: Envelope) {
        let shard = self.shard_of[core.index()] as usize;
        push_inner(
            &mut self.head[core.index()],
            &mut self.count[core.index()],
            &mut self.shards[shard],
            core,
            env,
        );
    }

    /// Arrival time of the earliest message pending for `core`.
    #[inline]
    pub fn earliest_arrival(&self, core: CoreId) -> Option<VirtualTime> {
        let h = self.head[core.index()];
        if h == NIL {
            None
        } else {
            let shard = &self.shards[self.shard_of[core.index()] as usize];
            Some(shard.slots[h as usize].env.arrival)
        }
    }

    /// Remove and return the earliest message pending for `core`.
    pub fn pop(&mut self, core: CoreId) -> Option<Envelope> {
        let h = self.head[core.index()];
        if h == NIL {
            return None;
        }
        let shard = &mut self.shards[self.shard_of[core.index()] as usize];
        // Take the envelope out of the slot, leaving a placeholder the
        // freelist will overwrite on reuse.
        let slot = &mut shard.slots[h as usize];
        let placeholder = Envelope {
            payload: crate::message::Payload::none(),
            ..slot.env
        };
        let env = std::mem::replace(&mut slot.env, placeholder);
        self.head[core.index()] = slot.next;
        shard.free.push(h);
        shard.total -= 1;
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

    /// Raw per-shard access for the parallel engine's replay lanes (see
    /// [`InboxLanes`]). The pointers are valid for the lifetime of `self`
    /// and invalidated by any `&mut self` method that can reallocate.
    pub fn lanes(&mut self) -> InboxLanes {
        InboxLanes {
            head: self.head.as_mut_ptr(),
            count: self.count.as_mut_ptr(),
            shard_of: self.shard_of.as_ptr(),
            shards: self.shards.as_mut_ptr(),
        }
    }
}

/// Raw-pointer handle over an [`InboxPool`] for lock-free sharded replay:
/// each parallel lane pushes envelopes for the cores of its own shard.
///
/// # Safety contract
///
/// Concurrent [`InboxLanes::push`] calls are sound iff every concurrent
/// caller targets cores of *distinct shards* (the parallel engine's lanes
/// satisfy this by construction: lane `t` delivers only to cores with
/// `shard_of == t`). The pool itself must not be otherwise accessed while
/// lanes are live.
#[derive(Clone, Copy, Debug)]
pub struct InboxLanes {
    head: *mut u32,
    count: *mut u32,
    shard_of: *const u32,
    shards: *mut InboxShard,
}

unsafe impl Send for InboxLanes {}
unsafe impl Sync for InboxLanes {}

impl InboxLanes {
    /// Deposit `env` for `core`.
    ///
    /// # Safety
    ///
    /// See the type-level contract: no concurrent call may target the same
    /// shard, and the underlying pool must outlive this handle.
    pub unsafe fn push(&self, core: CoreId, env: Envelope) {
        let i = core.index();
        let shard = *self.shard_of.add(i) as usize;
        push_inner(
            &mut *self.head.add(i),
            &mut *self.count.add(i),
            &mut *self.shards.add(shard),
            core,
            env,
        );
    }
}

/// Shared sorted-insert used by both the safe and the lane push path.
fn push_inner(
    head: &mut u32,
    count: &mut u32,
    shard: &mut InboxShard,
    core: CoreId,
    env: Envelope,
) {
    #[cfg(debug_assertions)]
    {
        let prev = shard
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
    #[cfg(not(debug_assertions))]
    let _ = core;
    let key = (env.arrival, env.seq);
    let slot = shard.alloc(env, NIL);
    let slot_key = |shard: &InboxShard, i: u32| {
        let e = &shard.slots[i as usize].env;
        (e.arrival, e.seq)
    };
    if *head == NIL || key < slot_key(shard, *head) {
        shard.slots[slot as usize].next = *head;
        *head = slot;
    } else {
        let mut cur = *head;
        loop {
            let next = shard.slots[cur as usize].next;
            if next == NIL || key < slot_key(shard, next) {
                shard.slots[slot as usize].next = next;
                shard.slots[cur as usize].next = slot;
                break;
            }
            cur = next;
        }
    }
    shard.total += 1;
    *count += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MsgId, Payload};
    use simany_topology::CoreId;

    fn env(src: u32, seq: u64, arrival_cy: u64) -> Envelope {
        Envelope {
            id: MsgId(seq),
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
    }

    #[test]
    fn pool_sharding_is_invisible_to_order() {
        // Same pushes through a 1-shard and a 2-shard pool: identical pops.
        let mut one = InboxPool::new(4);
        let mut two = InboxPool::with_shards(vec![0, 0, 1, 1]);
        let msgs = [
            (0u32, 1u32, 1u64, 9u64),
            (3, 1, 2, 4),
            (0, 2, 3, 9),
            (3, 2, 4, 4),
            (0, 1, 5, 2),
        ];
        for &(dst, src, seq, at) in &msgs {
            one.push(CoreId(dst), env_for(dst, src, seq, at));
            two.push(CoreId(dst), env_for(dst, src, seq, at));
        }
        for c in [0u32, 1, 2, 3] {
            loop {
                let (a, b) = (one.pop(CoreId(c)), two.pop(CoreId(c)));
                match (a, b) {
                    (Some(x), Some(y)) => assert_eq!((x.arrival, x.seq), (y.arrival, y.seq)),
                    (None, None) => break,
                    _ => panic!("pools disagree on core {c}"),
                }
            }
        }
    }

    #[test]
    fn lane_push_matches_direct_push() {
        let mut a = InboxPool::with_shards(vec![0, 1]);
        let mut b = InboxPool::with_shards(vec![0, 1]);
        let lanes = b.lanes();
        for (seq, at) in [(1u64, 30u64), (2, 10), (3, 20)] {
            a.push(CoreId(1), env_for(1, 0, seq, at));
            // Single-threaded here, so the disjoint-shard contract holds
            // trivially.
            unsafe { lanes.push(CoreId(1), env_for(1, 0, seq, at)) };
        }
        loop {
            match (a.pop(CoreId(1)), b.pop(CoreId(1))) {
                (Some(x), Some(y)) => assert_eq!((x.arrival, x.seq), (y.arrival, y.seq)),
                (None, None) => break,
                _ => panic!("lane push diverged"),
            }
        }
    }
}
