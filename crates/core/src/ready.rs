//! The scheduler's ready queue.
//!
//! Holds the cores that currently have work the scheduler could perform
//! (a message to process, a grantable activity, or queued tasks), ordered
//! by lowest published virtual time: closest to a conservative
//! discrete-event order, and the choice that makes the deadlock-avoidance
//! argument of paper §II.B immediate.
//!
//! The queue is two parts. A push whose key is not below the last key of
//! an in-order *run* is appended to that run in O(1); any other push goes
//! to an 8-ary heap. A pop takes the smaller of the run's front and the
//! heap's top, which is the minimum of all queued keys — exactly what one
//! heap holding every entry would pop, so the split changes the cost of a
//! pick, never the pick. At a million cores this matters: setup queues
//! every core at t = 0 in id order, which lands entirely in the run, and
//! each pick's re-push of its own core lands in a heap of one entry
//! instead of sifting through a 16 MB array.

use simany_time::VirtualTime;
use simany_topology::CoreId;
use std::collections::VecDeque;

/// Heap arity for [`ReadyQueue`]. A binary heap over a million entries is
/// ~20 levels of pointer-chasing through a multi-megabyte array — every
/// level a cache miss on the pop's sift-down. With 8 children per node the
/// tree is 2.5x shallower and each level's candidate set is two adjacent
/// cache lines, so a pop touches ~7 contiguous groups instead of ~40
/// scattered nodes. Pop order is arity-independent (always the key-order
/// minimum), so this is a pure locality change.
const D: usize = 8;

/// An entry's key: `(published time at push, core id)`.
type Key = (VirtualTime, u32);

/// Min-queue of `(published time at push, core id)` with
/// per-core entry accounting: a sorted run of in-order pushes beside an
/// implicit `D`-ary min-heap of the rest.
///
/// Pop order is the sorted order of the key multiset, whichever part each
/// entry went to. Two identical keys name the same core, so even ties
/// cannot pop differently from a single heap.
///
/// The queue orders *entries*, not cores: a core can legitimately appear
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
    /// Entries pushed in non-decreasing key order, lowest at the front.
    run: VecDeque<Key>,
    /// Every other entry, heap-ordered by key.
    heap: Vec<Key>,
    /// Entries currently queued (run and heap) per core (lazily grown).
    qcount: Vec<u32>,
    /// Number of distinct cores with at least one entry.
    live: usize,
}

impl ReadyQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
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
    /// Pop order over distinct `(time, id)` keys is a pure function of the
    /// key *set* — insertion order cannot leak into it.
    pub fn push(&mut self, core: CoreId, published: VirtualTime) {
        let entry = (published, core.0);
        self.count_push(core.0);
        if self.run.back().is_none_or(|&last| entry >= last) {
            self.run.push_back(entry);
        } else {
            self.heap.push(entry);
            self.sift_up(self.heap.len() - 1);
        }
    }

    /// Remove and return the core of the lowest entry.
    pub fn pop(&mut self) -> Option<CoreId> {
        let from_heap = match (self.run.front(), self.heap.first()) {
            (Some(r), Some(h)) => h < r,
            (None, Some(_)) => true,
            (_, None) => false,
        };
        let core = if from_heap {
            let last = self.heap.len() - 1;
            self.heap.swap(0, last);
            let (_, core) = self.heap.pop().expect("non-empty heap");
            self.sift_down(0);
            core
        } else {
            self.run.pop_front()?.1
        };
        self.count_pop(core);
        Some(CoreId(core))
    }

    /// True iff no entries remain.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }

    /// Raw number of *entries*, including stale duplicates — a core
    /// re-pushed at a raised priority contributes several. Diagnostics
    /// that want "how many cores are queued" should use
    /// [`Self::live_len`]; this raw count only bounds memory.
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
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
    fn pop_order_is_insertion_order_insensitive_for_distinct_keys() {
        // The contract of `push`: any permutation of the same distinct
        // (time, id) entries pops identically.
        let entries: Vec<(u32, u64)> = (0..12u32).map(|c| (c, 7 + u64::from(c * c % 13))).collect();
        let pop_all = |order: &[usize]| {
            let mut q = ReadyQueue::new();
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

    /// Reference for the model test: the key multiset in a `BTreeMap`,
    /// plus entries per core.
    struct Model {
        keys: std::collections::BTreeMap<(u64, u32), usize>,
        per_core: Vec<usize>,
    }

    impl Model {
        fn push(&mut self, q: &mut ReadyQueue, c: u32, at: u64) {
            q.push(CoreId(c), t(at));
            *self.keys.entry((at, c)).or_default() += 1;
            self.per_core[c as usize] += 1;
        }

        fn pop(&mut self) -> Option<CoreId> {
            let key = *self.keys.keys().next()?;
            let n = self.keys.get_mut(&key).expect("present");
            *n -= 1;
            if *n == 0 {
                self.keys.remove(&key);
            }
            self.per_core[key.1 as usize] -= 1;
            Some(CoreId(key.1))
        }
    }

    /// Drive the queue and the reference with the same random mix of
    /// in-order runs, out-of-order pushes, duplicate and raised-priority
    /// re-pushes and pops; after every operation the two must agree on
    /// what pops next and on every size.
    fn model_check(seed: u64) {
        const CORES: usize = 64;
        let mut rng = Xoshiro256StarStar::stream(seed, 3);
        let mut q = ReadyQueue::new();
        let mut m = Model {
            keys: Default::default(),
            per_core: vec![0; CORES],
        };
        let mut clock = 0u64;
        for _ in 0..20_000 {
            match rng.next_index(6) {
                // An in-order run: a few cores at non-decreasing times.
                0 => {
                    for _ in 0..1 + rng.next_index(8) {
                        clock += rng.next_index(3) as u64;
                        m.push(&mut q, rng.next_index(CORES) as u32, clock);
                    }
                }
                // Out of order: anywhere at or below the clock.
                1 => {
                    let at = rng.next_index(clock as usize + 1) as u64;
                    m.push(&mut q, rng.next_index(CORES) as u32, at);
                }
                // A queued core again: at the same key (duplicate) or at
                // a raised priority.
                2 if !m.keys.is_empty() => {
                    let nth = rng.next_index(m.keys.len());
                    let &(at, c) = m.keys.keys().nth(nth).expect("in range");
                    let raise = if rng.next_index(2) == 0 {
                        0
                    } else {
                        1 + rng.next_index(4) as u64
                    };
                    m.push(&mut q, c, at.saturating_sub(raise));
                }
                _ => assert_eq!(q.pop(), m.pop()),
            }
            let live = m.per_core.iter().filter(|&&n| n > 0).count();
            assert_eq!(q.len(), m.keys.values().sum::<usize>());
            assert_eq!(q.live_len(), live);
            assert_eq!(q.is_empty(), m.keys.is_empty());
        }
        while !q.is_empty() {
            assert_eq!(q.pop(), m.pop());
        }
        assert_eq!((q.pop(), m.pop()), (None, None));
    }

    #[test]
    fn run_and_heap_pop_in_key_multiset_order() {
        for seed in 0..4 {
            model_check(seed);
        }
    }

    #[test]
    fn scale_pattern_keeps_the_heap_at_one_entry() {
        // The million-core shape at 100k: every core queued at t = 0 in id
        // order, then each pick pops core c, re-queues it at t = 0 (the
        // idle pick's transient) and pops it again to run it.
        const N: u32 = 100_000;
        let mut q = ReadyQueue::new();
        for c in 0..N {
            q.push(CoreId(c), t(0));
        }
        assert_eq!((q.run.len(), q.heap.len()), (N as usize, 0));
        for c in 0..N {
            assert_eq!(q.pop(), Some(CoreId(c)));
            q.push(CoreId(c), t(0));
            assert!(q.heap.len() <= 1, "heap part grew to {}", q.heap.len());
            assert_eq!(q.pop(), Some(CoreId(c)));
        }
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
