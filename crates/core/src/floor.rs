//! Incrementally-maintained global virtual-time floor.
//!
//! The global synchronization policies (`BoundedSlack`, `Conservative`)
//! need the machine-wide floor — the minimum over every working core's
//! published clock and every pending birth time — up to twice per
//! `sync_ok`. Recomputing it is an O(cores) sweep (`sync::global_floor`'s
//! historical behavior), which at a million cores puts a full-machine scan
//! on the per-event path.
//!
//! [`GlobalFloor`] replaces the sweep with a tile-level tournament tree: a
//! reduction pyramid over one key per core with branching factor
//! [`FANOUT`]. Each key is that core's floor contribution
//! (`min(published-if-working, earliest pending birth)`, `MAX` if
//! neither); level 0 holds the minimum of each 64-key block, level 1 the
//! minimum of each 64-block group, and so on to a single root. An update
//! recomputes at most one contiguous 64-entry block per level — a couple
//! of cache lines each, O(fanout · log_fanout n) worst case with an early
//! exit as soon as a level's block minimum is unchanged — and a floor
//! query is an O(1) root read.
//!
//! The structure changes *cost*, never *order*: it answers exactly the
//! same value the naive sweep would (debug builds assert this on every
//! query — see `sync::global_floor`), so schedules are bit-identical with
//! and without it.

use simany_time::VirtualTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reduction fanout. 64 keys = 512 bytes = 8 cache lines per block scan;
/// a million cores need just 4 levels (1M → 16k → 256 → 4 → 1).
const FANOUT: usize = 64;

/// Tournament tree over per-core floor keys. See the module docs.
pub(crate) struct GlobalFloor {
    /// Per-core floor contribution; `VirtualTime::MAX` when the core is
    /// idle with no pending births.
    keys: Vec<VirtualTime>,
    /// Reduction pyramid: `levels[0][b]` is the min of key block `b`,
    /// `levels[k][b]` the min of block `b` of `levels[k-1]`, and the last
    /// level has exactly one entry — the global floor.
    levels: Vec<Vec<VirtualTime>>,
    /// Keys updated over the structure's lifetime (diagnostic).
    updates: u64,
}

impl GlobalFloor {
    /// Build the structure for `n` cores, all initially contributing
    /// nothing (`MAX` keys — an idle machine with no births).
    pub(crate) fn new(n: usize) -> Self {
        let keys = vec![VirtualTime::MAX; n];
        let mut levels = Vec::new();
        let mut len = n;
        loop {
            len = len.div_ceil(FANOUT).max(1);
            levels.push(vec![VirtualTime::MAX; len]);
            if len == 1 {
                break;
            }
        }
        GlobalFloor {
            keys,
            levels,
            updates: 0,
        }
    }

    /// Total key updates applied (diagnostic counter).
    pub(crate) fn updates(&self) -> u64 {
        self.updates
    }

    /// The global floor: minimum over all keys. O(1).
    pub(crate) fn floor(&self) -> VirtualTime {
        self.levels.last().expect("at least one level")[0]
    }

    /// Set core `i`'s key and repair the pyramid. Early-exits at the
    /// first level whose block minimum is unchanged; a strictly
    /// decreasing key never rescans at all (pure min-propagation).
    pub(crate) fn set(&mut self, i: usize, key: VirtualTime) {
        let old = self.keys[i];
        if key == old {
            return;
        }
        self.updates += 1;
        self.keys[i] = key;
        let mut block = i / FANOUT;
        if key < self.levels[0][block] {
            // Strict decrease: propagate the new minimum upward without
            // any block scan.
            self.levels[0][block] = key;
            let mut v = key;
            for lvl in 1..self.levels.len() {
                block /= FANOUT;
                if v < self.levels[lvl][block] {
                    self.levels[lvl][block] = v;
                } else {
                    return;
                }
                v = self.levels[lvl][block];
            }
            return;
        }
        if old > self.levels[0][block] {
            // The changed key was not its block's minimum and did not
            // become it: nothing above can change.
            return;
        }
        // The block minimum may have risen: rescan the block, then repair
        // upward until a level's value is unchanged.
        let mut lvl = 0;
        loop {
            let new_min = self.rescan(lvl, block);
            if self.levels[lvl][block] == new_min {
                return;
            }
            self.levels[lvl][block] = new_min;
            if lvl + 1 == self.levels.len() {
                return;
            }
            lvl += 1;
            block /= FANOUT;
        }
    }

    /// Minimum of block `b` of the level below `lvl` (the key array for
    /// `lvl == 0`).
    fn rescan(&self, lvl: usize, b: usize) -> VirtualTime {
        let src: &[VirtualTime] = if lvl == 0 {
            &self.keys
        } else {
            &self.levels[lvl - 1]
        };
        let start = b * FANOUT;
        let end = (start + FANOUT).min(src.len());
        src[start..end]
            .iter()
            .copied()
            .fold(VirtualTime::MAX, VirtualTime::min)
    }

    /// Recompute every level from the keys.
    #[cfg(test)]
    fn rebuild(&mut self) {
        for lvl in 0..self.levels.len() {
            for b in 0..self.levels[lvl].len() {
                self.levels[lvl][b] = self.rescan(lvl, b);
            }
        }
    }

    /// The floor the naive O(cores) sweep over the same keys would
    /// produce: the oracle of the tests below.
    #[cfg(test)]
    fn naive_floor(&self) -> VirtualTime {
        self.keys
            .iter()
            .copied()
            .fold(VirtualTime::MAX, VirtualTime::min)
    }
}

/// Floor-threshold wake structure of the global policies: a min-heap of
/// `(threshold, core)` — once the global floor reaches `threshold`, the
/// core's stalled activity must be rechecked — plus, per core, the
/// threshold of its live entry. A core registers at most one entry per
/// threshold: registering the threshold it already waits on pushes
/// nothing. Entries are otherwise lazy (a core woken by another path
/// leaves its entry behind, and the recheck it later triggers is a
/// harmless no-op); see `sync::wake_stalled_by_floor`.
pub(crate) struct FloorWakes {
    heap: BinaryHeap<Reverse<(VirtualTime, u32)>>,
    /// Per core: the threshold of its live heap entry, `ZERO` for none. A
    /// stalled core's clock is above the floor, so no threshold is zero.
    live: Vec<VirtualTime>,
}

impl FloorWakes {
    /// An empty structure for `n` cores.
    pub(crate) fn new(n: usize) -> Self {
        FloorWakes {
            heap: BinaryHeap::new(),
            live: vec![VirtualTime::ZERO; n],
        }
    }

    /// Recheck core `c` once the floor reaches `threshold`.
    pub(crate) fn register(&mut self, c: u32, threshold: VirtualTime) {
        debug_assert!(threshold > VirtualTime::ZERO, "a zero threshold is no wait");
        let live = &mut self.live[c as usize];
        if *live != threshold {
            *live = threshold;
            self.heap.push(Reverse((threshold, c)));
        }
    }

    /// Move every core whose threshold `floor` has reached (all of them
    /// when `floor` is `MAX`) into `due`, in threshold order.
    pub(crate) fn pop_due(&mut self, floor: VirtualTime, due: &mut Vec<u32>) {
        while let Some(&Reverse((th, c))) = self.heap.peek() {
            if th > floor && floor != VirtualTime::MAX {
                break;
            }
            self.heap.pop();
            let live = &mut self.live[c as usize];
            if *live == th {
                *live = VirtualTime::ZERO;
            }
            due.push(c);
        }
    }

    /// True iff no core waits on the floor.
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Every `(threshold, core)` entry, in no particular order.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> impl Iterator<Item = (VirtualTime, u32)> + '_ {
        self.heap.iter().map(|&Reverse(e)| e)
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
    fn empty_machine_floor_is_max() {
        let g = GlobalFloor::new(1000);
        assert_eq!(g.floor(), VirtualTime::MAX);
        assert_eq!(g.floor(), g.naive_floor());
    }

    #[test]
    fn single_key_round_trip() {
        let mut g = GlobalFloor::new(10);
        g.set(7, t(42));
        assert_eq!(g.floor(), t(42));
        g.set(7, VirtualTime::MAX);
        assert_eq!(g.floor(), VirtualTime::MAX);
    }

    #[test]
    fn decrease_then_rise_repairs_all_levels() {
        // Cross a block boundary: core 0 and core 100_000 live in
        // different level-0 and level-1 blocks.
        let mut g = GlobalFloor::new(200_000);
        g.set(0, t(50));
        g.set(100_000, t(10));
        assert_eq!(g.floor(), t(10));
        g.set(100_000, t(90));
        assert_eq!(g.floor(), t(50));
        g.set(0, VirtualTime::MAX);
        assert_eq!(g.floor(), t(90));
    }

    /// Key updates shaped like the engine's (`sync::note_floor_key`): a
    /// core's key is `min(published-if-working, earliest pending birth)`,
    /// and it changes when the core publishes, idles, works, records a
    /// birth or consumes its earliest one.
    fn engine_shaped(rng: &mut Xoshiro256StarStar, n: usize) -> Vec<(usize, VirtualTime)> {
        let (mut published, mut idle) = (vec![VirtualTime::ZERO; n], vec![true; n]);
        let mut births = vec![BinaryHeap::new(); n];
        let steps = rng.next_index(200) + 1;
        (0..steps)
            .map(|_| {
                let i = rng.next_index(n);
                let at = VirtualTime(rng.next_index(1_000_000) as u64);
                match rng.next_index(5) {
                    0 => published[i] = at,
                    1 => idle[i] = true,
                    2 => idle[i] = false,
                    3 => births[i].push(Reverse(at)),
                    _ => drop(births[i].pop()),
                }
                let clock = (!idle[i]).then_some(published[i]);
                let birth = births[i].peek().map(|b: &Reverse<VirtualTime>| b.0);
                let key = clock.into_iter().chain(birth).min();
                (i, key.unwrap_or(VirtualTime::MAX))
            })
            .collect()
    }

    /// After each of `updates` to a fresh tree over `n` cores, the tree's
    /// floor equals the naive full scan.
    fn check_updates(n: usize, updates: impl IntoIterator<Item = (usize, VirtualTime)>) {
        let mut g = GlobalFloor::new(n);
        for (step, (i, key)) in updates.into_iter().enumerate() {
            g.set(i, key);
            assert_eq!(g.floor(), g.naive_floor(), "n={n} step={step}");
        }
    }

    #[test]
    fn random_updates_match_naive_floor() {
        // Property: after any interleaving of key updates (drops, rises,
        // clears), the tree's floor equals the naive full scan: uniform
        // random keys on sizes around the block edges.
        let mut rng = Xoshiro256StarStar::stream(7, 3);
        for n in [1usize, 63, 64, 65, 4096, 5000] {
            check_updates(
                n,
                (0..2000).map(|_| match (rng.next_index(n), rng.next_index(4)) {
                    (i, 0) => (i, VirtualTime::MAX),
                    (i, _) => (i, t(rng.next_index(1_000) as u64)),
                }),
            );
        }
    }

    /// Engine-shaped update streams within one block.
    #[test]
    fn incremental_floor_matches_recompute_small() {
        let mut rng = Xoshiro256StarStar::stream(7, 4);
        for _ in 0..32 {
            check_updates(7, engine_shaped(&mut rng, 7));
        }
    }

    /// Engine-shaped update streams across three blocks, so cross-block
    /// repairs run.
    #[test]
    fn incremental_floor_matches_recompute_multiblock() {
        let mut rng = Xoshiro256StarStar::stream(7, 5);
        for _ in 0..32 {
            check_updates(130, engine_shaped(&mut rng, 130));
        }
    }

    #[test]
    fn rebuild_matches_incremental() {
        let mut rng = Xoshiro256StarStar::stream(11, 5);
        let mut g = GlobalFloor::new(777);
        for _ in 0..500 {
            g.set(rng.next_index(777), t(rng.next_index(100) as u64));
        }
        let incremental = g.floor();
        g.rebuild();
        assert_eq!(g.floor(), incremental);
    }
}
