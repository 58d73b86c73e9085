//! Per-core simulator state in struct-of-arrays layout.
//!
//! At the million-core scale the paper targets, per-core state is the
//! dominant memory consumer and the per-field access pattern is highly
//! skewed: the spatial-synchronization hot loop touches `published`,
//! `floor_nb` and the headroom cache of *neighbors* (gather reads across
//! core ids), while queues, ledgers and predictors are touched only by the
//! one core holding the run token. [`Cores`] therefore stores every field
//! as its own dense array keyed by core index, and moves the variable-size
//! members (inboxes, resumable queues, birth ledgers) into shared pooled
//! arenas of index-linked slots: an idle core costs a few dozen bytes of
//! array slots and owns no heap allocations of its own.
//!
//! ## Pooled-arena invariants
//!
//! Every variable-size per-core list is one `ListPool`: a `head` and
//! `tail` slot per core over one shared arena of `(value, next)` slots.
//! The inboxes (sorted by `(arrival, seq)`), the resumable queues (FIFO,
//! the wake order the scheduler relies on for determinism), the spatial
//! policy's waiter sets (`Sim::waiters`) and the birth ledgers (read only
//! through their minimum and removal by [`BirthId`], so their order is
//! never observed) all use it.
//!
//! * Freed slots are recycled LIFO; a slot index is never stored outside
//!   the pool's own links, so slot reuse is invisible to the engine and to
//!   checkpoint digests (digests fold lengths, times and ids — never
//!   arena indices).
//! * Slot 0 is reserved and never handed out, so 0 means "no slot" and
//!   the per-core heads start as zeroed allocations the host maps lazily:
//!   a core whose lists stay empty never touches its words.
//! * Per-core words that most cores never write (the headroom cache, the
//!   current activity, the waiter registration, the birth-ledger minimum)
//!   are stored so that all-zero bits mean "nothing", behind accessors:
//!   `vec!` of such a word is one zeroed allocation, so a core that never
//!   stalls, spawns or runs costs no resident page for them. Speeds have
//!   no array at all on a machine of base-speed cores.
//! * Branch predictors are materialized lazily on first use. A core's
//!   predictor is a pure function of `(seed, core index, cost model)` —
//!   its RNG is `Xoshiro256StarStar::stream(seed, 0x1000_0000 + i)` — so
//!   lazy construction is bit-identical to eager construction and idle
//!   cores never pay for one.

use crate::activity::ActivityId;
use crate::inbox::Inboxes;
use simany_time::{CoreSpeed, ProbBranchPredictor, VDuration, VirtualTime, Xoshiro256StarStar};
use simany_topology::CoreId;
use std::num::{NonZeroU32, NonZeroU64};

/// Identifier of a birth-ledger entry (an in-flight spawned task whose start
/// time still bounds its parent core's drift, paper §II.A *Time drift of
/// dynamically created tasks*).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BirthId(pub u64);

/// Sentinel for "no slot" in a [`ListPool`]: slot 0, which is reserved.
const NIL: u32 = 0;

/// Per-core singly-linked lists over one shared slot arena: a `head` and
/// `tail` slot per core, a `next` link per slot, freed slots recycled
/// LIFO (see the module docs). Values move in and out of their slots; a
/// free slot holds `T::default()`, so a slot is no larger than its value
/// and link.
pub(crate) struct ListPool<T> {
    head: Vec<u32>,
    tail: Vec<u32>,
    /// `(value, next slot)`; slot 0 is the reserved [`NIL`].
    slots: Vec<(T, u32)>,
    free: Vec<u32>,
}

impl<T: Default> ListPool<T> {
    /// Empty lists for `n` cores.
    pub(crate) fn new(n: usize) -> Self {
        ListPool {
            head: vec![NIL; n],
            tail: vec![NIL; n],
            slots: vec![(T::default(), NIL)],
            free: Vec::new(),
        }
    }

    /// True iff core `i`'s list is empty.
    pub(crate) fn is_empty(&self, i: usize) -> bool {
        self.head[i] == NIL
    }

    /// First value of core `i`'s list, if any.
    pub(crate) fn front(&self, i: usize) -> Option<&T> {
        match self.head[i] {
            NIL => None,
            h => Some(&self.slots[h as usize].0),
        }
    }

    /// Core `i`'s values, first to last.
    pub(crate) fn iter(&self, i: usize) -> impl Iterator<Item = &T> + '_ {
        let mut cur = self.head[i];
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let (v, next) = &self.slots[cur as usize];
            cur = *next;
            Some(v)
        })
    }

    /// A slot holding `v`, linked to nothing.
    fn alloc(&mut self, v: T) -> u32 {
        match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = (v, NIL);
                s
            }
            None => {
                self.slots.push((v, NIL));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Append `v` to core `i`'s list.
    pub(crate) fn push_back(&mut self, i: usize, v: T) {
        let slot = self.alloc(v);
        match self.tail[i] {
            NIL => self.head[i] = slot,
            t => self.slots[t as usize].1 = slot,
        }
        self.tail[i] = slot;
    }

    /// Insert `v` into core `i`'s list, kept sorted by `key`, after every
    /// value whose key is at or before its own. A key at or past the
    /// tail's appends in O(1); an earlier one walks from the head.
    pub(crate) fn insert_sorted<K: Ord>(&mut self, i: usize, v: T, key: impl Fn(&T) -> K) {
        let k = key(&v);
        let tail = self.tail[i];
        if tail == NIL || k >= key(&self.slots[tail as usize].0) {
            return self.push_back(i, v);
        }
        // The tail's key is later than `k`, so the walk stops before it.
        let (mut prev, mut cur) = (NIL, self.head[i]);
        while k >= key(&self.slots[cur as usize].0) {
            prev = cur;
            cur = self.slots[cur as usize].1;
        }
        let slot = self.alloc(v);
        self.slots[slot as usize].1 = cur;
        self.link(i, prev, slot);
    }

    /// Point `prev`'s link (core `i`'s head when `prev` is `NIL`) at
    /// `slot`.
    fn link(&mut self, i: usize, prev: u32, slot: u32) {
        match prev {
            NIL => self.head[i] = slot,
            p => self.slots[p as usize].1 = slot,
        }
    }

    /// Remove and return the first value of core `i`'s list, if any.
    pub(crate) fn pop_front(&mut self, i: usize) -> Option<T> {
        self.remove_first(i, |_| true)
    }

    /// Remove and return the first value of core `i`'s list that matches
    /// `pred`, if any.
    pub(crate) fn remove_first(&mut self, i: usize, mut pred: impl FnMut(&T) -> bool) -> Option<T> {
        let (mut prev, mut cur) = (NIL, self.head[i]);
        while cur != NIL && !pred(&self.slots[cur as usize].0) {
            prev = cur;
            cur = self.slots[cur as usize].1;
        }
        let (v, next) = self.release(cur)?;
        self.link(i, prev, next);
        if next == NIL {
            self.tail[i] = prev;
        }
        Some(v)
    }

    /// Unhook core `i`'s whole list, leaving it empty, and return its first
    /// slot; walk the detached list with [`ListPool::release`]. Values
    /// pushed onto `i` meanwhile start a new list.
    pub(crate) fn detach(&mut self, i: usize) -> u32 {
        self.tail[i] = NIL;
        std::mem::replace(&mut self.head[i], NIL)
    }

    /// Free `slot` and return its value and next slot, or `None` past the
    /// end of a list.
    pub(crate) fn release(&mut self, slot: u32) -> Option<(T, u32)> {
        if slot == NIL {
            return None;
        }
        self.free.push(slot);
        let (v, next) = &mut self.slots[slot as usize];
        Some((std::mem::take(v), *next))
    }
}

/// All engine state for every simulated core, struct-of-arrays.
///
/// Each public vector has one element per core, indexed by
/// `CoreId::index()`. Hot synchronization fields come first (dense,
/// contiguous, read across neighbor ids in the floor computations); cold
/// per-core fields follow; variable-size state lives in pooled arenas
/// behind accessor methods.
pub struct Cores {
    // --- hot synchronization fields -----------------------------------
    /// The value each core exposes to its neighbors: its clock while
    /// working, its *shadow virtual time* while idle (paper §II.A
    /// *Non-connected sets of active cores*). Not monotone: it drops when
    /// an idle core (exposing a high shadow value) starts working again at
    /// its older frozen clock — `sync::note_neighbor_change` handles the
    /// cache/waiter invalidation such a drop requires.
    ///
    /// These are raw words, read through `sync::exposed` only: an idle
    /// core whose shadow is the cap `max_vtime + T` holds a *capped* word
    /// (bit 62 set — above any reachable tick count, so it sorts after
    /// every concrete word — with the value of its lowest concrete
    /// neighbor as payload) that resolves against the current front, so a
    /// rise of the front rewrites nothing here.
    pub published: Vec<VirtualTime>,
    /// Cached minimum over each core's neighbors' published words, capped
    /// ones folded to `sync::CAPPED` (the neighbor part of the spatial
    /// floor; births are always re-read).
    pub floor_nb: Vec<VirtualTime>,
    /// False when `floor_nb` must be recomputed (a neighbor that may have
    /// been the minimum rose).
    pub floor_nb_valid: Vec<bool>,
    /// True while a core's clock has advanced past its `published` value
    /// without a publish (fast-path deferral). Only ever set for the core
    /// whose activity holds the run token; flushed before the token is
    /// yielded or any published value can be observed. A flush inside a
    /// publish window clears it and leaves the publish to the window
    /// (`sync::Window`), so the flag means fast-path debt only, which is
    /// what the sanitizer's `verify_flush` checks.
    pub publish_pending: Vec<bool>,
    /// Scheduling flag: true while the core sits in the ready queue.
    pub in_ready: Vec<bool>,
    /// Fast-path bound, read through [`Cores::within_headroom`] and
    /// [`Cores::headroom`]: virtual times at or below it are guaranteed to
    /// pass the spatial sync check (`local_floor + T` at the last full
    /// check). Cleared whenever the floor may drop — a neighbor's published
    /// value decreasing or a birth being recorded — so a cached value is
    /// always a conservative lower bound on the true limit. No limit forces
    /// the next annotation through the full check.
    ///
    /// The word is the limit plus one, saturating, and 0 for no limit:
    /// `vtime < word` is the whole fast-path test, and a limit of 0 (floor
    /// 0 with `T` 0) stays a limit. Limits `MAX - 1` and `MAX` share a
    /// word; no clock reaches either.
    headroom: Vec<u64>,
    // --- cold per-core fields -----------------------------------------
    /// Each core's private virtual clock. Meaningful only while the core
    /// is working; retains its last value when the core goes idle.
    pub vtime: Vec<VirtualTime>,
    /// Accumulated busy virtual time (for utilization statistics).
    pub busy: Vec<VDuration>,
    /// Speed factor per core (polymorphic architectures); empty when
    /// every core runs at [`CoreSpeed::BASE`]. Read through
    /// [`Cores::speed`].
    speeds: Vec<CoreSpeed>,
    /// Activity id + 1 of the activity that runs when each core is
    /// scheduled, if any ([`Cores::current`]).
    current: Vec<Option<NonZeroU64>>,
    /// Number of activities resident on each core (current + blocked +
    /// woken). Zero together with `queue_hint == 0` means the core is idle.
    pub resident: Vec<u32>,
    /// Runtime-declared count of queued-but-unstarted work items; the
    /// engine calls `RuntimeHooks::on_idle` while this is non-zero and the
    /// core has no current activity.
    pub queue_hint: Vec<u32>,
    /// Nesting depth of held locks / critical sections. While non-zero the
    /// synchronization policy never stalls the core (the lock waiver of
    /// paper §II.B, *Locks and critical sections*).
    pub lock_depth: Vec<u32>,
    /// Core id + 1 of the core whose waiter set each core most recently
    /// registered in (its argmin blocking neighbor; spatial policy only),
    /// read through [`Cores::waiting_on`]. Cleared when the entry is
    /// taken; stale list entries whose flag moved on are re-validated at
    /// take time.
    waiting_on: Vec<Option<NonZeroU32>>,
    // --- pooled variable-size state -----------------------------------
    /// Incoming messages not yet processed, each core's in `(arrival,
    /// seq)` order.
    pub(crate) inboxes: Inboxes,
    /// Each core's woken activities waiting to resume, in wake order.
    pub(crate) resumable: ListPool<ActivityId>,
    /// Each core's birth ledger, `(id, birth time)` in no meaningful order.
    births: ListPool<(BirthId, VirtualTime)>,
    /// Cached earliest birth time per core, bitwise inverted so that an
    /// empty ledger (`VirtualTime::MAX`) is the zero word, so floor
    /// computations never walk the list. Maintained by
    /// `birth_push`/`birth_remove`; `min_birth` stays the walking oracle
    /// for debug cross-checks.
    birth_min: Vec<u64>,
    /// Lazily materialized branch predictors (see module docs).
    predictors: Vec<Option<Box<ProbBranchPredictor>>>,
    /// Branch accuracy the predictors are built with.
    pred_accuracy: f64,
    /// Pipeline depth the predictors are built with.
    pred_depth: u32,
    /// Engine seed the predictor RNG streams derive from.
    pred_seed: u64,
}

impl Cores {
    /// Fresh state for `n` cores, each at its speed in `speeds` (one per
    /// core), or all at [`CoreSpeed::BASE`] when `speeds` is `None`;
    /// predictors are derived from `(seed, core index, accuracy, depth)`
    /// on first use.
    pub fn new(
        n: usize,
        speeds: Option<Vec<CoreSpeed>>,
        pred_accuracy: f64,
        pred_depth: u32,
        pred_seed: u64,
    ) -> Self {
        let speeds = speeds.unwrap_or_default();
        assert!(
            speeds.is_empty() || speeds.len() == n,
            "speeds given for a different core count"
        );
        Cores {
            published: vec![VirtualTime::ZERO; n],
            floor_nb: vec![VirtualTime::ZERO; n],
            floor_nb_valid: vec![false; n],
            publish_pending: vec![false; n],
            in_ready: vec![false; n],
            headroom: vec![0; n],
            vtime: vec![VirtualTime::ZERO; n],
            busy: vec![VDuration::ZERO; n],
            speeds,
            current: vec![None; n],
            resident: vec![0; n],
            queue_hint: vec![0; n],
            lock_depth: vec![0; n],
            waiting_on: vec![None; n],
            inboxes: Inboxes::new(n),
            resumable: ListPool::new(n),
            births: ListPool::new(n),
            birth_min: vec![0; n],
            // `vec!` of an all-zero element is one zeroed allocation whose
            // pages stay untouched until a predictor materializes (8 MB at
            // a million cores); a `collect` of `None`s is only that when
            // the optimizer happens to fold its fill loop.
            predictors: vec![None; n],
            pred_accuracy,
            pred_depth,
            pred_seed,
        }
    }

    /// Number of cores.
    pub fn len(&self) -> usize {
        self.vtime.len()
    }

    /// True when the machine has zero cores.
    pub fn is_empty(&self) -> bool {
        self.vtime.is_empty()
    }

    /// True iff core `i` is not executing and has nothing runnable: no
    /// current activity, no woken activities waiting to resume, and no
    /// queued tasks. Idle cores expose a shadow time instead of a clock.
    ///
    /// Activities *blocked* on a wake do not make a core busy: their clock
    /// is frozen and their resume time will come from the waking message,
    /// exactly like a fresh task spawn — so the core must relay shadow time
    /// meanwhile, or it would stall its whole neighborhood on a clock that
    /// cannot advance (cf. paper §II.A, idle cores "do not have a virtual
    /// time of their own").
    pub fn is_idle(&self, i: usize) -> bool {
        self.current[i].is_none() && self.resumable.is_empty(i) && self.queue_hint[i] == 0
    }

    /// Speed factor of core `i`.
    #[inline]
    pub fn speed(&self, i: usize) -> CoreSpeed {
        self.speeds.get(i).copied().unwrap_or(CoreSpeed::BASE)
    }

    /// Activity that runs when core `i` is scheduled, if any.
    #[inline]
    pub fn current(&self, i: usize) -> Option<ActivityId> {
        self.current[i].map(|w| ActivityId(w.get() - 1))
    }

    /// Make `a` (or nothing) the activity core `i` runs.
    #[inline]
    pub fn set_current(&mut self, i: usize, a: Option<ActivityId>) {
        self.current[i] = a.map(|a| NonZeroU64::new(a.0 + 1).expect("activity id overflow"));
    }

    /// True iff core `i` has a cached headroom limit and `vtime` is at or
    /// below it.
    #[inline]
    pub fn within_headroom(&self, i: usize, vtime: VirtualTime) -> bool {
        vtime.0 < self.headroom[i]
    }

    /// Core `i`'s cached headroom limit, if any.
    pub fn headroom(&self, i: usize) -> Option<VirtualTime> {
        match self.headroom[i] {
            0 => None,
            u64::MAX => Some(VirtualTime::MAX),
            w => Some(VirtualTime(w - 1)),
        }
    }

    /// Cache `limit` as core `i`'s headroom limit, or clear it.
    #[inline]
    pub fn set_headroom(&mut self, i: usize, limit: Option<VirtualTime>) {
        self.headroom[i] = limit.map_or(0, |t| t.0.saturating_add(1));
    }

    /// The core whose waiter set core `i` last registered in, if any.
    #[inline]
    pub fn waiting_on(&self, i: usize) -> Option<CoreId> {
        self.waiting_on[i].map(|w| CoreId(w.get() - 1))
    }

    /// Record (or clear) the core whose waiter set core `i` is in.
    #[inline]
    pub fn set_waiting_on(&mut self, i: usize, target: Option<CoreId>) {
        self.waiting_on[i] = target.map(|c| NonZeroU32::new(c.0 + 1).expect("core id overflow"));
    }

    /// Advance core `i`'s clock by `d`, accounting busy time.
    pub fn advance(&mut self, i: usize, d: VDuration) {
        self.vtime[i] += d;
        self.busy[i] += d;
    }

    /// Jump core `i`'s clock forward to `t` if it is later (e.g. to a
    /// message arrival time); the jumped-over span is waiting, not busy
    /// time.
    pub fn advance_to(&mut self, i: usize, t: VirtualTime) {
        self.vtime[i] = self.vtime[i].max(t);
    }

    /// Core `i`'s branch predictor, materialized on first use.
    pub fn predictor(&mut self, i: usize) -> &mut ProbBranchPredictor {
        let slot = &mut self.predictors[i];
        slot.get_or_insert_with(|| {
            Box::new(ProbBranchPredictor::new(
                self.pred_accuracy,
                self.pred_depth,
                Xoshiro256StarStar::stream(self.pred_seed, 0x1000_0000 + i as u64),
            ))
        })
    }

    // --- birth ledger --------------------------------------------------

    /// Record a birth `(id, t)` against core `i`.
    pub fn birth_push(&mut self, i: usize, id: BirthId, t: VirtualTime) {
        self.births.push_back(i, (id, t));
        // Inverted words: the earlier time is the larger word.
        self.birth_min[i] = self.birth_min[i].max(!t.0);
    }

    /// Unlink the birth with `id` from core `i`'s ledger. Returns `true`
    /// if an entry was removed.
    pub fn birth_remove(&mut self, i: usize, id: BirthId) -> bool {
        let Some((_, t)) = self.births.remove_first(i, |&(bid, _)| bid == id) else {
            return false;
        };
        if !t.0 == self.birth_min[i] {
            // The cached minimum may have left: rescan the (short)
            // remaining list.
            self.birth_min[i] = !self.min_birth(i).unwrap_or(VirtualTime::MAX).0;
        }
        true
    }

    /// Cached earliest birth time of core `i` (`VirtualTime::MAX` when the
    /// ledger is empty). O(1); equals `min_birth(i)` at all times.
    pub fn birth_floor(&self, i: usize) -> VirtualTime {
        let floor = VirtualTime(!self.birth_min[i]);
        debug_assert_eq!(
            floor,
            self.min_birth(i).unwrap_or(VirtualTime::MAX),
            "birth_min cache diverged on core {i}"
        );
        floor
    }

    /// Number of entries in core `i`'s birth ledger.
    pub fn birth_count(&self, i: usize) -> usize {
        self.births.iter(i).count()
    }

    /// Earliest birth time in core `i`'s ledger, if any.
    pub fn min_birth(&self, i: usize) -> Option<VirtualTime> {
        self.births.iter(i).map(|&(_, t)| t).min()
    }

    /// One-line diagnostic summary of core `i` (deadlock reports, watchdog
    /// snapshots). `exposed` is the core's resolved published value
    /// (`sync::exposed`).
    pub(crate) fn debug_line(&self, i: usize, exposed: VirtualTime) -> String {
        let c = CoreId(i as u32);
        let mut s = format!(
            "vtime={} published={} inbox={} queued={} lock_depth={}",
            self.vtime[i],
            exposed,
            self.inboxes.len(c),
            self.queue_hint[i],
            self.lock_depth[i]
        );
        if let Some(a) = self.inboxes.earliest_arrival(c) {
            s.push_str(&format!(" next_arrival={a}"));
        }
        if let Some(w) = self.waiting_on(i) {
            s.push_str(&format!(" waiting_on={w}"));
        }
        if self.is_idle(i) {
            s.push_str(" idle");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cores(n: usize) -> Cores {
        Cores::new(n, None, 0.9, 5, 1)
    }

    #[test]
    fn idle_definition() {
        let mut cs = cores(2);
        assert!(cs.is_idle(0));
        cs.queue_hint[0] = 1;
        assert!(!cs.is_idle(0));
        cs.queue_hint[0] = 0;
        cs.set_current(0, Some(crate::activity::ActivityId(0)));
        assert!(!cs.is_idle(0));
        cs.set_current(0, None);
        cs.resumable.push_back(0, ActivityId(1));
        assert!(!cs.is_idle(0));
        // Blocked-only residents leave the core idle (shadow time).
        cs.resumable.pop_front(0);
        cs.resident[0] = 1;
        assert!(cs.is_idle(0));
    }

    #[test]
    fn advance_tracks_busy_time() {
        let mut cs = cores(1);
        cs.advance(0, VDuration::from_cycles(10));
        assert_eq!(cs.vtime[0], VirtualTime::from_cycles(10));
        assert_eq!(cs.busy[0], VDuration::from_cycles(10));
        // advance_to does not add busy time.
        cs.advance_to(0, VirtualTime::from_cycles(50));
        assert_eq!(cs.vtime[0], VirtualTime::from_cycles(50));
        assert_eq!(cs.busy[0], VDuration::from_cycles(10));
        // advance_to never rewinds.
        cs.advance_to(0, VirtualTime::from_cycles(20));
        assert_eq!(cs.vtime[0], VirtualTime::from_cycles(50));
    }

    #[test]
    fn min_birth() {
        let mut cs = cores(1);
        assert_eq!(cs.min_birth(0), None);
        cs.birth_push(0, BirthId(0), VirtualTime::from_cycles(30));
        cs.birth_push(0, BirthId(1), VirtualTime::from_cycles(10));
        assert_eq!(cs.min_birth(0), Some(VirtualTime::from_cycles(10)));
        assert_eq!(cs.birth_count(0), 2);
        assert!(cs.birth_remove(0, BirthId(1)));
        assert_eq!(cs.min_birth(0), Some(VirtualTime::from_cycles(30)));
        assert!(!cs.birth_remove(0, BirthId(1)));
        assert_eq!(cs.birth_count(0), 1);
    }

    /// The zero-page words read back what was stored, and no word is the
    /// zero word unless it means "nothing": a headroom limit of 0 (floor
    /// 0 with `T` 0) still lets a clock of 0 through.
    #[test]
    fn zero_page_words_round_trip() {
        let mut cs = cores(2);
        assert_eq!(cs.headroom(0), None);
        assert!(!cs.within_headroom(0, VirtualTime::ZERO));
        cs.set_headroom(0, Some(VirtualTime::ZERO));
        assert_eq!(cs.headroom(0), Some(VirtualTime::ZERO));
        assert!(cs.within_headroom(0, VirtualTime::ZERO));
        assert!(!cs.within_headroom(0, VirtualTime(1)));
        cs.set_headroom(0, Some(VirtualTime::MAX));
        assert_eq!(cs.headroom(0), Some(VirtualTime::MAX));
        assert!(cs.within_headroom(0, VirtualTime(u64::MAX - 1)));
        cs.set_headroom(0, None);
        assert_eq!(cs.headroom(0), None);

        cs.set_current(1, Some(ActivityId(0)));
        assert_eq!(cs.current(1), Some(ActivityId(0)));
        assert_eq!(cs.current(0), None);
        cs.set_waiting_on(1, Some(CoreId(0)));
        assert_eq!(cs.waiting_on(1), Some(CoreId(0)));
        assert_eq!(cs.waiting_on(0), None);
        assert_eq!(cs.speed(1), CoreSpeed::BASE);

        assert_eq!(cs.birth_floor(0), VirtualTime::MAX);
        cs.birth_push(0, BirthId(1), VirtualTime::ZERO);
        assert_eq!(cs.birth_floor(0), VirtualTime::ZERO);
        assert!(cs.birth_remove(0, BirthId(1)));
        assert_eq!(cs.birth_floor(0), VirtualTime::MAX);
    }

    /// Core `i`'s values, after checking that its `tail` names its last
    /// slot (`NIL` when empty).
    fn values(pool: &ListPool<u32>, i: usize) -> Vec<u32> {
        let (mut cur, mut last) = (pool.head[i], NIL);
        while cur != NIL {
            last = cur;
            cur = pool.slots[cur as usize].1;
        }
        assert_eq!(pool.tail[i], last, "tail of core {i} is not its last slot");
        pool.iter(i).copied().collect()
    }

    #[test]
    fn resumable_fifo_order_with_slot_reuse() {
        let mut cs = cores(2);
        cs.resumable.push_back(0, ActivityId(1));
        cs.resumable.push_back(0, ActivityId(2));
        cs.resumable.push_back(1, ActivityId(3));
        assert_eq!(cs.resumable.front(0), Some(&ActivityId(1)));
        assert_eq!(cs.resumable.pop_front(0), Some(ActivityId(1)));
        // The freed slot is reused without disturbing FIFO order.
        cs.resumable.push_back(0, ActivityId(4));
        assert_eq!(cs.resumable.pop_front(0), Some(ActivityId(2)));
        assert_eq!(cs.resumable.pop_front(0), Some(ActivityId(4)));
        assert_eq!(cs.resumable.pop_front(0), None);
        assert_eq!(cs.resumable.pop_front(1), Some(ActivityId(3)));
        assert!(cs.resumable.is_empty(1));
    }

    /// A detached list walks in push order, and values pushed while it is
    /// being walked start a new list instead of joining the walk.
    #[test]
    fn detached_list_walks_in_push_order() {
        let mut pool = ListPool::new(3);
        for v in [7, 3, 9, 3] {
            pool.push_back(1, v);
        }
        pool.push_back(2, 5);
        assert_eq!(values(&pool, 1), [7, 3, 9, 3]);
        let mut slot = pool.detach(1);
        assert!(pool.is_empty(1) && values(&pool, 1).is_empty());
        let mut walked = Vec::new();
        while let Some((v, next)) = pool.release(slot) {
            walked.push(v);
            pool.push_back(1, v + 100);
            slot = next;
        }
        assert_eq!(walked, [7, 3, 9, 3]);
        assert_eq!(values(&pool, 1), [107, 103, 109, 103]);
        assert_eq!(values(&pool, 2), [5]);
        assert!(values(&pool, 0).is_empty());
    }

    /// Slot 0 is the "no slot" mark: no arena ever hands it out or frees it.
    #[test]
    fn slot_zero_is_never_handed_out() {
        let mut pool = ListPool::new(2);
        for round in 0..4 {
            pool.push_back(round % 2, round as u32);
            pool.push_back(1, 10);
            pool.pop_front(0);
            let mut slot = pool.detach(1);
            while let Some((_, next)) = pool.release(slot) {
                slot = next;
            }
        }
        assert_eq!(pool.slots[0], (0, NIL));
        assert!(!pool.free.contains(&NIL));
        assert_eq!(pool.release(NIL), None);

        let mut cs = cores(2);
        for round in 0..4u64 {
            cs.birth_push(0, BirthId(round + 1), VirtualTime::from_cycles(round));
            cs.birth_push(1, BirthId(round + 10), VirtualTime::from_cycles(round));
            cs.resumable.push_back(0, ActivityId(round + 1));
            assert!(cs.birth_remove(0, BirthId(round + 1)));
            assert_eq!(cs.resumable.pop_front(0), Some(ActivityId(round + 1)));
        }
        assert_eq!(cs.births.slots[0], ((BirthId(0), VirtualTime::ZERO), NIL));
        assert!(!cs.births.free.contains(&NIL));
        assert_eq!(cs.resumable.slots[0], (ActivityId(0), NIL));
        assert!(!cs.resumable.free.contains(&NIL));
        assert_eq!(cs.birth_count(1), 4);
    }

    /// Sorted insert (past the tail, before the head, in between, after an
    /// equal key) and removal at the head, middle and tail keep every list
    /// in order and its tail on its last slot.
    #[test]
    fn list_pool_sorted_insert_and_removal_keep_the_tail() {
        let mut pool = ListPool::new(2);
        pool.push_back(1, 3);
        for v in [20, 40, 10, 30, 20, 50] {
            pool.insert_sorted(0, v, |&x| x / 10);
        }
        assert_eq!(values(&pool, 0), [10, 20, 20, 30, 40, 50]);
        assert_eq!(pool.remove_first(0, |&x| x == 10), Some(10));
        assert_eq!(pool.remove_first(0, |&x| x == 30), Some(30));
        assert_eq!(pool.remove_first(0, |&x| x == 50), Some(50));
        assert_eq!(pool.remove_first(0, |&x| x == 99), None);
        assert_eq!(values(&pool, 0), [20, 20, 40]);
        pool.push_back(0, 60);
        assert_eq!(values(&pool, 0), [20, 20, 40, 60]);
        assert_eq!(values(&pool, 1), [3]);
    }
}
