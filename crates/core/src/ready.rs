//! The scheduler's ready queue.
//!
//! Holds the cores that currently have work the scheduler could perform
//! (a message to process, a grantable activity, or queued tasks), ordered
//! by lowest published virtual time: closest to a conservative
//! discrete-event order, and the choice that makes the deadlock-avoidance
//! argument of paper §II.B immediate.

use simany_time::VirtualTime;
use simany_topology::CoreId;

/// Heap arity for [`ReadyQueue`]. A binary heap over a million entries is
/// ~20 levels of pointer-chasing through a multi-megabyte array — every
/// level a cache miss on the pop's sift-down. With 8 children per node the
/// tree is 2.5x shallower and each level's candidate set is two adjacent
/// cache lines, so a pop touches ~7 contiguous groups instead of ~40
/// scattered nodes. Pop order is arity-independent (always the key-order
/// minimum), so this is a pure locality change.
const D: usize = 8;

/// Implicit `D`-ary min-heap of `(published time at push, tie-break rank,
/// core id)` with per-core entry accounting.
///
/// The heap orders *entries*, not cores: a core can legitimately appear
/// more than once (a message delivery re-pushes a queued core at a raised
/// priority, and the earlier entries stay — see `engine::deliver`). Those
/// extra entries are not inert: when one surfaces, the engine re-validates
/// the core and may pick it at that entry's priority, so entries are only
/// ever removed by popping them.
///
/// Entries may also be stale (a core's published time moves after
/// insertion; a core may stop being ready). Callers must guard with the
/// per-core `in_ready` flag and re-validate on pop; the queue itself only
/// orders.
#[derive(Default)]
pub struct ReadyQueue {
    /// The entry array, heap-ordered by `(time, rank, core)`.
    heap: Vec<(VirtualTime, u32, u32)>,
    /// Optional tie-break rank per core (see
    /// [`Self::set_tiebreak_ranks`]); `None` = core id.
    ranks: Option<Vec<u32>>,
    /// Entries currently in `heap` per core (lazily grown).
    qcount: Vec<u32>,
    /// Number of distinct cores with at least one entry.
    live: usize,
}

impl ReadyQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a custom equal-time tie-break order: `ranks[core]` replaces
    /// the core id as the secondary heap key. Parallel mode passes
    /// tile-interleaved ranks so the epoch collector finds one core per
    /// tile in O(tiles) pops even when a whole vtime wavefront is tied —
    /// with contiguous tiles and id tie-breaks it would pop an entire
    /// tile before seeing the next one.
    pub fn set_tiebreak_ranks(&mut self, ranks: Vec<u32>) {
        debug_assert!(
            self.heap.is_empty(),
            "tie-break ranks installed after pushes"
        );
        self.ranks = Some(ranks);
    }

    fn rank_of(&self, core: u32) -> u32 {
        self.ranks.as_ref().map_or(core, |r| r[core as usize])
    }

    fn count_push(&mut self, core: u32) {
        let i = core as usize;
        if i >= self.qcount.len() {
            self.qcount.resize(i + 1, 0);
        }
        if self.qcount[i] == 0 {
            self.live += 1;
        }
        self.qcount[i] += 1;
    }

    fn count_pop(&mut self, core: u32) {
        let i = core as usize;
        debug_assert!(self.qcount[i] > 0, "pop of uncounted core {core}");
        self.qcount[i] -= 1;
        if self.qcount[i] == 0 {
            self.live -= 1;
        }
    }

    /// Insert a core with its current published time as priority.
    ///
    /// Pop order over distinct `(time, rank, id)` keys is a pure function
    /// of the key *set* — insertion order cannot leak into it. The parallel
    /// engine leans on this: its phase B pushes in its own walk order
    /// (deliveries by source tile and outbox index, then the batch requeue
    /// in tile order), so the schedule depends on which entries that walk
    /// queues, not on the order it queues them in.
    pub fn push(&mut self, core: CoreId, published: VirtualTime) {
        let entry = (published, self.rank_of(core.0), core.0);
        self.count_push(core.0);
        self.heap.push(entry);
        self.sift_up(self.heap.len() - 1);
    }

    /// Remove and return the core of the lowest entry.
    pub fn pop(&mut self) -> Option<CoreId> {
        if self.heap.is_empty() {
            return None;
        }
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        let (_, _, core) = self.heap.pop().expect("non-empty heap");
        self.sift_down(0);
        self.count_pop(core);
        Some(CoreId(core))
    }

    /// True iff no entries remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Raw number of *entries*, including stale duplicates — a core
    /// re-pushed at a raised priority contributes several. Diagnostics
    /// that want "how many cores are queued" should use
    /// [`Self::live_len`]; this raw count only bounds memory.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Number of *distinct cores* with at least one queued entry — the
    /// honest "ready cores" figure for deadlock/diagnostic reports, which
    /// [`Self::len`] over-reports whenever raised-priority duplicates are
    /// in flight. O(1): maintained incrementally.
    pub fn live_len(&self) -> usize {
        self.live
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let p = (i - 1) / D;
            if self.heap[i] < self.heap[p] {
                self.heap.swap(i, p);
                i = p;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        loop {
            let first = i * D + 1;
            if first >= len {
                break;
            }
            let last = (first + D).min(len);
            let mut m = first;
            for j in first + 1..last {
                if self.heap[j] < self.heap[m] {
                    m = j;
                }
            }
            if self.heap[m] < self.heap[i] {
                self.heap.swap(i, m);
                i = m;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simany_time::Xoshiro256StarStar;

    fn t(c: u64) -> VirtualTime {
        VirtualTime::from_cycles(c)
    }

    #[test]
    fn lowest_vtime_orders_by_time() {
        let mut q = ReadyQueue::new();
        q.push(CoreId(0), t(30));
        q.push(CoreId(1), t(10));
        q.push(CoreId(2), t(20));
        assert_eq!(q.pop(), Some(CoreId(1)));
        assert_eq!(q.pop(), Some(CoreId(2)));
        assert_eq!(q.pop(), Some(CoreId(0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn lowest_vtime_ties_break_by_core_id() {
        let mut q = ReadyQueue::new();
        q.push(CoreId(5), t(10));
        q.push(CoreId(3), t(10));
        assert_eq!(q.pop(), Some(CoreId(3)));
        assert_eq!(q.pop(), Some(CoreId(5)));
    }

    #[test]
    fn octonary_heap_matches_sorted_order_on_random_keys() {
        // Pop order must equal full sort order of the key multiset for any
        // arity — this is what makes the 8-ary layout a pure locality
        // change relative to the old binary heap.
        let mut rng = Xoshiro256StarStar::stream(99, 1);
        let mut q = ReadyQueue::new();
        let mut keys: Vec<(u64, u32)> = Vec::new();
        for c in 0..500u32 {
            let at = rng.next_index(10_000) as u64;
            keys.push((at, c));
            q.push(CoreId(c), t(at));
        }
        keys.sort_unstable();
        let expect: Vec<u32> = keys.into_iter().map(|(_, c)| c).collect();
        let mut got = Vec::new();
        while let Some(c) = q.pop() {
            got.push(c.0);
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn tiebreak_ranks_interleave_ties() {
        let mut q = ReadyQueue::new();
        // Two "tiles" {0,1} and {2,3}: ranks 0,2,1,3 alternate them.
        q.set_tiebreak_ranks(vec![0, 2, 1, 3]);
        for c in 0..4 {
            q.push(CoreId(c), t(10));
        }
        assert_eq!(q.pop(), Some(CoreId(0)));
        assert_eq!(q.pop(), Some(CoreId(2)));
        assert_eq!(q.pop(), Some(CoreId(1)));
        assert_eq!(q.pop(), Some(CoreId(3)));
        // Time still dominates the rank.
        q.push(CoreId(3), t(5));
        q.push(CoreId(0), t(6));
        assert_eq!(q.pop(), Some(CoreId(3)));
        assert_eq!(q.pop(), Some(CoreId(0)));
    }

    #[test]
    fn pop_order_is_insertion_order_insensitive_for_distinct_keys() {
        // The contract the parallel engine's phase B relies on (see
        // `push`): any permutation of the same distinct (time, rank, id)
        // entries pops identically.
        let entries: Vec<(u32, u64)> = (0..12u32).map(|c| (c, 7 + u64::from(c * c % 13))).collect();
        let pop_all = |order: &[usize]| {
            let mut q = ReadyQueue::new();
            q.set_tiebreak_ranks((0..12u32).rev().collect());
            for &i in order {
                let (c, at) = entries[i];
                q.push(CoreId(c), t(at));
            }
            let mut out = Vec::new();
            while let Some(c) = q.pop() {
                out.push(c.0);
            }
            out
        };
        let forward: Vec<usize> = (0..12).collect();
        let reverse: Vec<usize> = (0..12).rev().collect();
        let shuffled: Vec<usize> = (0..12).map(|i| (i * 5) % 12).collect();
        let a = pop_all(&forward);
        assert_eq!(a, pop_all(&reverse));
        assert_eq!(a, pop_all(&shuffled));
    }

    #[test]
    fn live_len_counts_distinct_cores() {
        let mut q = ReadyQueue::new();
        q.push(CoreId(1), t(10));
        q.push(CoreId(2), t(20));
        // Priority raise: same core queued again at an earlier time.
        q.push(CoreId(1), t(5));
        assert_eq!(q.len(), 3, "raw length counts duplicates");
        assert_eq!(q.live_len(), 2, "live length counts distinct cores");
        assert_eq!(q.pop(), Some(CoreId(1)), "raised entry (t=5) first");
        assert_eq!(q.live_len(), 2, "core 1 still has its stale entry");
        assert_eq!(q.pop(), Some(CoreId(1)), "stale entry (t=10) next");
        assert_eq!(q.live_len(), 1);
        assert_eq!(q.pop(), Some(CoreId(2)));
        assert_eq!(q.live_len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn len_and_empty() {
        let mut q = ReadyQueue::new();
        assert!(q.is_empty());
        q.push(CoreId(0), t(0));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
