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
//! pick, never the pick. The run stores *stretches* of consecutive keys
//! (one time, consecutive cores) as one entry each. At a million cores
//! this matters: setup queues every core at t = 0 in id order, which is
//! one stretch of the run instead of a 16 MB array, and each pick's
//! re-push of its own core lands in a heap of one entry.

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
// `least_child`'s tournament is written for eight children.
const _: () = assert!(D == 8);

/// An entry's key: `published time << 32 | core id`, so one integer
/// compare orders `(time, core)` lexicographically. A tick count uses all
/// 64 bits of [`VirtualTime`] and a core id 32, so nothing is lost.
type Key = u128;

#[inline(always)]
fn key(published: VirtualTime, core: u32) -> Key {
    (u128::from(published.0) << 32) | u128::from(core)
}

#[inline(always)]
fn core_of(key: Key) -> u32 {
    key as u32
}

/// `count` keys of one time at consecutive cores, `first` upward: one
/// entry of the run, the size of one key.
#[derive(Clone, Copy, Debug)]
struct Stretch {
    time: VirtualTime,
    first: u32,
    count: u32,
}

impl Stretch {
    /// The stretch's lowest key.
    #[inline(always)]
    fn front(&self) -> Key {
        key(self.time, self.first)
    }

    /// The stretch's highest key.
    #[inline(always)]
    fn back(&self) -> Key {
        self.front() + Key::from(self.count - 1)
    }
}

/// The lesser of `(i, k)` and `(j, l)` by key, chosen without a branch:
/// which child of a node is least is as good as random, so a predicted
/// branch per child mispredicts about every other compare.
#[inline(always)]
fn lesser((i, k): (usize, Key), (j, l): (usize, Key)) -> (usize, Key) {
    std::hint::select_unpredictable(l < k, (j, l), (i, k))
}

/// Min-queue of `(published time at push, core id)`: a sorted run of
/// in-order pushes, in stretches of consecutive keys, beside an implicit
/// `D`-ary min-heap of the rest.
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
    /// Entries pushed in non-decreasing key order, lowest at the front; a
    /// push of the key right after the last one (same time, next core)
    /// extends the last stretch.
    run: VecDeque<Stretch>,
    /// Every other entry, heap-ordered by key.
    heap: Vec<Key>,
}

impl ReadyQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a core with its current published time as priority.
    ///
    /// Pop order over distinct `(time, id)` keys is a pure function of the
    /// key *set* — insertion order cannot leak into it.
    pub fn push(&mut self, core: CoreId, published: VirtualTime) {
        let entry = key(published, core.0);
        match self.run.back_mut() {
            Some(last) if last.time == published && last.back() + 1 == entry => last.count += 1,
            Some(last) if entry < last.back() => {
                self.heap.push(entry);
                self.sift_up(self.heap.len() - 1);
            }
            _ => self.run.push_back(Stretch {
                time: published,
                first: core.0,
                count: 1,
            }),
        }
    }

    /// Remove and return the core of the lowest entry.
    pub fn pop(&mut self) -> Option<CoreId> {
        let from_heap = match (self.run.front(), self.heap.first()) {
            (Some(r), Some(&h)) => h < r.front(),
            (None, Some(_)) => true,
            (_, None) => false,
        };
        if from_heap {
            let top = self.heap.swap_remove(0);
            if !self.heap.is_empty() {
                self.sift_down(0);
            }
            return Some(CoreId(core_of(top)));
        }
        let front = self.run.front_mut()?;
        let core = front.first;
        if front.count == 1 {
            self.run.pop_front();
        } else {
            front.first += 1;
            front.count -= 1;
        }
        Some(CoreId(core))
    }

    /// Number of *entries*, including stale duplicates — a core re-pushed
    /// at a raised priority contributes several. How many cores are queued
    /// is the count of set `in_ready` flags (`engine::ready_queued`).
    /// O(stretches): only reports read it.
    pub fn len(&self) -> usize {
        let run: usize = self.run.iter().map(|s| s.count as usize).sum();
        run + self.heap.len()
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

    /// Move the entry at `i` down to its place. The entry rides in a
    /// register while lesser children move up into the hole.
    fn sift_down(&mut self, mut i: usize) {
        let heap = &mut self.heap[..];
        let x = heap[i];
        loop {
            let first = i * D + 1;
            if first >= heap.len() {
                break;
            }
            let (m, k) = least_child(heap, first);
            if k >= x {
                break;
            }
            heap[i] = k;
            i = m;
        }
        heap[i] = x;
    }
}

/// Index and key of the least of the (up to `D`) children that start at
/// `first`. A full group is a three-round tournament of branch-free
/// selects; only the last group of the heap can be partial.
#[inline(always)]
fn least_child(heap: &[Key], first: usize) -> (usize, Key) {
    if let Some(group) = heap.get(first..first + D) {
        let c = |j: usize| (first + j, group[j]);
        let a = lesser(lesser(c(0), c(1)), lesser(c(2), c(3)));
        let b = lesser(lesser(c(4), c(5)), lesser(c(6), c(7)));
        return lesser(a, b);
    }
    let mut m = (first, heap[first]);
    for (j, &k) in heap.iter().enumerate().skip(first + 1) {
        m = lesser(m, (j, k));
    }
    m
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
    fn len_counts_duplicate_entries() {
        let mut q = ReadyQueue::new();
        q.push(CoreId(1), t(10));
        q.push(CoreId(2), t(20));
        // Priority raise: same core queued again at an earlier time.
        q.push(CoreId(1), t(5));
        assert_eq!(q.len(), 3, "raw length counts duplicates");
        assert_eq!(q.pop(), Some(CoreId(1)), "raised entry (t=5) first");
        assert_eq!(q.pop(), Some(CoreId(1)), "stale entry (t=10) next");
        assert_eq!(q.pop(), Some(CoreId(2)));
        assert_eq!(q.len(), 0);
    }

    /// Reference for the model test: the key multiset (times in ticks) in a
    /// `BTreeMap`, and its size with duplicates counted.
    struct Model {
        keys: std::collections::BTreeMap<(u64, u32), usize>,
        len: usize,
    }

    impl Model {
        fn push(&mut self, q: &mut ReadyQueue, c: u32, at: u64) {
            q.push(CoreId(c), VirtualTime(at));
            *self.keys.entry((at, c)).or_default() += 1;
            self.len += 1;
        }

        fn pop(&mut self) -> Option<CoreId> {
            let key = *self.keys.keys().next()?;
            let n = self.keys.get_mut(&key).expect("present");
            *n -= 1;
            if *n == 0 {
                self.keys.remove(&key);
            }
            self.len -= 1;
            Some(CoreId(key.1))
        }

        /// The first queued key at or after `(at, c)`, wrapping to the
        /// first key: O(log n), where `keys().nth(..)` walks.
        fn key_from(&self, at: u64, c: u32) -> Option<(u64, u32)> {
            let mut after = self.keys.range((at, c)..).map(|(&k, _)| k);
            after.next().or_else(|| self.keys.keys().next().copied())
        }
    }

    /// Drive the queue and the reference with the same random mix of
    /// in-order runs, stretches of consecutive cores, out-of-order pushes,
    /// duplicate and raised-priority re-pushes and pops; after every operation the two must agree on
    /// what pops next and on the size. Times start at `base` and climb
    /// by at most `step` per push (saturating at `u64::MAX`), over `cores`
    /// cores.
    fn model_check(seed: u64, base: u64, step: usize, cores: usize) {
        let mut rng = Xoshiro256StarStar::stream(seed, 3);
        let mut q = ReadyQueue::new();
        let mut m = Model {
            keys: Default::default(),
            len: 0,
        };
        let mut clock = base;
        for _ in 0..20_000 {
            match rng.next_index(6) {
                // An in-order run: a few cores at non-decreasing times, or
                // a stretch of consecutive cores at one time.
                0 => {
                    let n = 1 + rng.next_index(8);
                    if rng.next_index(2) == 0 {
                        for _ in 0..n {
                            clock = clock.saturating_add(rng.next_index(step + 1) as u64);
                            m.push(&mut q, rng.next_index(cores) as u32, clock);
                        }
                    } else {
                        clock = clock.saturating_add(rng.next_index(step + 1) as u64);
                        let first = rng.next_index(cores);
                        for c in first..cores.min(first + n) {
                            m.push(&mut q, c as u32, clock);
                        }
                    }
                }
                // Out of order: anywhere between `base` and the clock.
                1 => {
                    let at = base + rng.next_index((clock - base) as usize + 1) as u64;
                    m.push(&mut q, rng.next_index(cores) as u32, at);
                }
                // A queued core again: at the same key (duplicate) or at
                // a raised priority.
                2 if m.len > 0 => {
                    let at = base + rng.next_index((clock - base) as usize + 1) as u64;
                    let c = rng.next_index(cores) as u32;
                    let (at, c) = m.key_from(at, c).expect("queued");
                    let raise = if rng.next_index(2) == 0 {
                        0
                    } else {
                        1 + rng.next_index(4) as u64
                    };
                    m.push(&mut q, c, at.saturating_sub(raise).max(base));
                }
                _ => assert_eq!(q.pop(), m.pop()),
            }
            assert_eq!(q.len(), m.len);
        }
        while q.len() > 0 {
            assert_eq!(q.pop(), m.pop());
        }
        assert_eq!((q.pop(), m.pop()), (None, None));
    }

    #[test]
    fn run_and_heap_pop_in_key_multiset_order() {
        for seed in 0..4 {
            model_check(seed, 0, 2, 64);
        }
    }

    #[test]
    fn packed_keys_order_at_the_top_of_the_clock() {
        // Times within a few thousand ticks of `u64::MAX`, reaching it:
        // the time half of a packed key must keep its top bits, and the
        // core half must not carry into it.
        model_check(0, u64::MAX - 4_000, 2, 64);
        // The largest time beside a large core id.
        const BIG: u32 = (1 << 20) - 1;
        let mut q = ReadyQueue::new();
        q.push(CoreId(BIG), VirtualTime::MAX);
        q.push(CoreId(0), VirtualTime::MAX);
        q.push(CoreId(BIG), VirtualTime(u64::MAX - 1));
        q.push(CoreId(1), VirtualTime::ZERO);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|c| c.0).collect();
        assert_eq!(order, [1, BIG, 0, BIG]);
    }

    #[test]
    fn many_cores_at_equal_times_pop_in_core_order() {
        // Clock steps of at most one over 512 cores: most keys share their
        // time with dozens of others, so the core half alone decides.
        model_check(0, 0, 1, 256);
        model_check(1, 1 << 40, 0, 256);
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
        assert_eq!((q.run.len(), q.heap.len(), q.len()), (1, 0, N as usize));
        for c in 0..N {
            assert_eq!(q.pop(), Some(CoreId(c)));
            q.push(CoreId(c), t(0));
            assert!(q.heap.len() <= 1, "heap part grew to {}", q.heap.len());
            assert_eq!(q.pop(), Some(CoreId(c)));
        }
        assert_eq!(q.len(), 0);
    }

    /// A push of the key right after the run's last one extends the last
    /// stretch; a later time, a gap or a duplicate starts a new one, and a
    /// key below the last goes to the heap.
    #[test]
    fn consecutive_keys_share_one_stretch() {
        let mut q = ReadyQueue::new();
        for c in 10..20 {
            q.push(CoreId(c), t(5));
        }
        assert_eq!(q.run.len(), 1);
        q.push(CoreId(20), t(6));
        q.push(CoreId(21), t(6));
        q.push(CoreId(21), t(6));
        q.push(CoreId(23), t(6));
        q.push(CoreId(3), t(6));
        assert_eq!((q.run.len(), q.heap.len(), q.len()), (4, 1, 15));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|c| c.0).collect();
        let want: Vec<u32> = (10..20).chain([3, 20, 21, 21, 23]).collect();
        assert_eq!(order, want);
        assert_eq!((q.run.len(), q.heap.len()), (0, 0));
    }

    #[test]
    fn len_and_empty() {
        let mut q = ReadyQueue::new();
        assert_eq!(q.len(), 0);
        q.push(CoreId(0), t(0));
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
    }
}
