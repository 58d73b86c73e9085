//! Virtual-time synchronization: the paper's spatial scheme and the
//! comparison policies.
//!
//! Spatial synchronization (paper §II.A):
//!
//! * Every working core exposes (publishes) its clock to its topological
//!   neighbors; every idle core exposes a *shadow virtual time* — the
//!   minimum over its neighbors plus `T`, "as if they were executing and
//!   had advanced to the maximum virtual time allowed by the local time
//!   window before stalling" — so that drift control spreads through
//!   non-connected sets of active cores.
//! * A core whose clock exceeds its most-late neighbor's published time by
//!   more than `T` stalls until the neighbor catches up.
//! * The birth times of in-flight spawned tasks count as neighbor clocks of
//!   the spawning core so that a parent cannot run away from a task it just
//!   created (§II.A, *Time drift of dynamically created tasks*).
//! * A core holding a lock or executing a critical section is never
//!   stalled (§II.B, *Locks and critical sections*).
//!
//! ## Hot-path structure
//!
//! The per-annotation cost is dominated by `publish` (shadow relaxation +
//! stall rechecks) and the floor computation in `sync_ok`. Six mechanisms
//! keep it cheap, the first four the common case O(1) — see `DESIGN.md`,
//! *Hot path & fast-path invariants*, for the full determinism argument:
//!
//! * **Drift headroom** (`Cores::headroom_limit`): a successful spatial
//!   check caches `local_floor + T`; annotations below the bound defer the
//!   publish (`publish_pending`) and skip everything else. The deferral is
//!   invisible because only the token-holding activity can observe state,
//!   and every token yield or state read flushes first.
//! * **Incremental floors** (`Cores::floor_nb`): the neighbor minimum
//!   is maintained at publish time and only recomputed when a neighbor that
//!   may have been the minimum rose. Idle cores use it too: a shadow is
//!   re-evaluated only when its neighbor minimum may have moved, and from
//!   the cached minimum.
//! * **Waiter sets** (`Sim::waiters`): a stalled core registers on its
//!   argmin blocking neighbor; a rising publish rechecks only its
//!   registered waiters instead of every neighbor.
//!   Published *drops* (idle cores waking to an older working clock) are
//!   rare and sweep all stalled neighbors to re-derive registrations.
//! * **Implicit shadow cap** (the `CAPPED` words of `Cores::published`,
//!   `UncapIndex`): an idle core whose shadow is the cap `max_vtime + T`
//!   stores a marker, not the value, so a rise of `max_vtime` rewrites
//!   nothing. The only cores a rise revisits are the capped ones whose
//!   lowest concrete neighbor the front has just overtaken, found through
//!   a lazy min-heap keyed by that neighbor's value.
//! * **Region settle** (`settle_region`): a sweep whose evaluations pass
//!   four per changed word (plus 64) is counting an idle region up under a
//!   lagging core that went idle, `2T` a round; the region's words are
//!   computed once by Dijkstra from the cores around it instead.
//! * **Publish windows** (`Window`): while no activity is stalled, a step
//!   that runs no task code (a dispatch, the end of an activity) publishes
//!   each core it touched once, at its end, so an idle hook's
//!   idle-then-busy transient publishes nothing.

use crate::activity::ActivityState;
use crate::config::SyncPolicy;
use crate::engine::{push_ready, Shared, Sim};
use simany_time::{VDuration, VirtualTime};
use simany_topology::CoreId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

// --- published words ------------------------------------------------------
//
// A word of `Cores::published` is either *concrete* — a working core's
// clock or an idle core's shadow below the cap, top two bits clear — or
// *capped*: `CAP_TAG | key`, an idle core whose shadow is the cap itself.
// The tag sits above any reachable tick count, so a plain `min` over raw
// words yields the lowest concrete neighbor when there is one and a capped
// word otherwise. `VirtualTime::MAX` (top two bits set) stays the "no
// neighbor at all" sentinel.

/// Tag bit of a capped word.
const CAP_TAG: u64 = 1 << 62;

/// Key payload of a capped word with no live [`UncapIndex`] registration:
/// every neighbor is capped too, or the registration was just consumed.
const NO_KEY: u64 = CAP_TAG - 1;

/// The canonical capped word: what the floor caches and change
/// notifications see for every capped core, whatever its key.
pub(crate) const CAPPED: VirtualTime = VirtualTime(CAP_TAG | NO_KEY);

#[inline]
fn is_capped(w: VirtualTime) -> bool {
    w.0 >> 62 == 1
}

/// The capped word registered under `key`, the value of the core's lowest
/// concrete neighbor when it was stored.
#[inline]
fn capped_under(key: VirtualTime) -> VirtualTime {
    debug_assert!(key.0 < NO_KEY, "clock {key} reached the cap tag");
    VirtualTime(CAP_TAG | key.0)
}

#[inline]
fn key_of(w: VirtualTime) -> VirtualTime {
    VirtualTime(w.0 & NO_KEY)
}

#[inline]
fn canonical(w: VirtualTime) -> VirtualTime {
    if is_capped(w) {
        CAPPED
    } else {
        w
    }
}

/// The shadow cap: no idle core exposes more than the front plus `t`.
#[inline]
pub(crate) fn shadow_cap(sim: &Sim, t: VDuration) -> VirtualTime {
    sim.max_vtime + t
}

/// The value a published word stands for: the word itself when concrete,
/// the cap when capped. Every read of a neighbor-visible time resolves
/// through here, which is what makes a rise of `max_vtime` free.
#[inline]
fn resolve(sim: &Sim, w: VirtualTime, t: VDuration) -> VirtualTime {
    if is_capped(w) {
        shadow_cap(sim, t)
    } else {
        w
    }
}

/// [`resolve`] for callers outside the spatial hot path. Global policies
/// never store a capped word.
pub(crate) fn exposed_word(sim: &Sim, shared: &Shared, w: VirtualTime) -> VirtualTime {
    match shared.config.sync {
        SyncPolicy::Spatial { t } => resolve(sim, w, t),
        _ => w,
    }
}

/// The time core `i` exposes to its neighbors: its clock while working,
/// its shadow time while idle.
pub(crate) fn exposed(sim: &Sim, shared: &Shared, i: usize) -> VirtualTime {
    exposed_word(sim, shared, sim.cores.published(i))
}

/// Capped idle cores by the key the front must overtake before their
/// shadow stops being the cap: core `i` capped under `key` (the value of
/// its lowest concrete neighbor) must be re-evaluated once
/// `max_vtime > key`, because `key + T` then binds instead.
///
/// Lazy, like `Sim::stall_wakes`: an entry is live iff the core's word
/// still reads `capped_under(key)`; anything else is skipped when popped,
/// and the re-evaluation a live entry triggers is authoritative. A word's
/// key is only ever lowered in place, so an entry fires no later than it
/// must and an early one just re-registers.
pub(crate) struct UncapIndex {
    /// Min-heap of `(key, core)`: the registrations the front has come
    /// near enough to sort.
    heap: BinaryHeap<Reverse<(VirtualTime, u32)>>,
    /// Registrations made since the front last overtook one, unsorted,
    /// their keys left in the cores' words. A neighbor of the front runner
    /// registers at the front itself and is overtaken by the very next
    /// rise, so on a busy machine this is a handful of entries moved to
    /// the heap at every rise; on a machine whose front never gets there
    /// (a million idle cores capped under `v + T` with `T` far beyond the
    /// run's length) they cost four bytes each and are never sorted.
    pending: Vec<u32>,
    /// Lower bound of the keys in `pending` (`MAX` when empty).
    pending_min: VirtualTime,
    /// Unit-test hook: lose the next registration under a key beyond the
    /// front, for the sanitizer test that must notice.
    #[cfg(test)]
    drop_next_beyond_front: bool,
}

impl UncapIndex {
    #[cfg_attr(not(test), allow(unused_variables))]
    pub(crate) fn new(config: &crate::EngineConfig) -> Self {
        UncapIndex {
            heap: BinaryHeap::new(),
            pending: Vec::new(),
            pending_min: VirtualTime::MAX,
            #[cfg(test)]
            drop_next_beyond_front: config.drop_uncap_registration,
        }
    }

    /// Would a front at `front` overtake a registered key?
    pub(crate) fn due(&self, front: VirtualTime) -> bool {
        self.pending_min < front || self.heap.peek().is_some_and(|&Reverse((k, _))| k < front)
    }
}

/// Register idle core `i`, whose word was just set to `capped_under(key)`.
fn register_uncap(sim: &mut Sim, i: CoreId, key: VirtualTime) {
    debug_assert!(key >= sim.max_vtime);
    #[cfg(test)]
    if key > sim.max_vtime && std::mem::take(&mut sim.uncap.drop_next_beyond_front) {
        return;
    }
    sim.uncap.pending.push(i.0);
    sim.uncap.pending_min = sim.uncap.pending_min.min(key);
}

/// `max_vtime` just rose: queue every capped core whose registered key the
/// front overtook. A consumed registration leaves the word without a key,
/// so the re-evaluation registers afresh if the core stays capped.
fn queue_overtaken(sim: &mut Sim, work: &mut Vec<CoreId>, epoch: u64) {
    let front = sim.max_vtime;
    if sim.uncap.pending_min < front {
        let mut pending = std::mem::take(&mut sim.uncap.pending);
        for i in pending.drain(..) {
            let w = sim.cores.published(i as usize);
            if is_capped(w) && w != CAPPED {
                sim.uncap.heap.push(Reverse((key_of(w), i)));
            }
        }
        sim.uncap.pending = pending;
        sim.uncap.pending_min = VirtualTime::MAX;
    }
    while let Some(&Reverse((key, i))) = sim.uncap.heap.peek() {
        if key >= front {
            break;
        }
        sim.uncap.heap.pop();
        if sim.cores.published(i as usize) == capped_under(key) {
            sim.cores.set_published(i as usize, CAPPED);
            sim.stats.shadow_uncaps += 1;
            enqueue(sim, work, CoreId(i), epoch);
        }
    }
}

/// The publishes an engine step owes while no activity can stall.
///
/// While a window is open, [`publish`] records its core (once) and returns;
/// [`close_window`] then publishes every recorded core once, in record
/// order. The engine opens one around each step that runs no task code —
/// the dispatch of a message, an idle hook or a parked resume, and the end
/// of an activity — when the policy is spatial and [`Sim::stalled`] is 0.
/// The result is bit-exact with publishing at every call:
///
/// * Nothing stalls inside a window: only a granted activity stalls, and
///   none runs before the window closes. A publish's schedule effects are
///   its stall rechecks, and every recheck a skipped publish would have made
///   finds no stalled core.
/// * The shadow fixed point is unique ([`relax`]), so the words the closing
///   publishes reach are those of the skipped sequence.
/// * A transient that nets out — an idle hook's idle-then-busy — no longer
///   drops a word for an instant, so it leaves the neighbors' cached
///   headroom in place: still a lower bound on their true limit, the
///   fast path's own argument.
///
/// No code that reads a published word runs inside a window: `sync_ok`
/// runs only for a running activity or a stalled one.
pub(crate) struct Window {
    open: bool,
    /// Cores recorded since the window opened, each once, in record order.
    owed: Vec<CoreId>,
    /// Per core: in `owed`.
    marked: Vec<bool>,
}

impl Window {
    pub(crate) fn new(n: usize) -> Self {
        Window {
            open: false,
            owed: Vec::new(),
            marked: vec![false; n],
        }
    }

    /// Record `c`'s publish, once, for [`close_window`]. Out of line: the
    /// publish calls made outside windows (a million setup hints, every
    /// annotation's full check) stay a test and a return.
    #[inline(never)]
    fn owe(&mut self, c: CoreId) {
        if !std::mem::replace(&mut self.marked[c.index()], true) {
            self.owed.push(c);
        }
    }

    /// Is a window open? (The sanitizer's scan, at scheduler time, expects
    /// not.)
    pub(crate) fn is_open(&self) -> bool {
        self.open
    }
}

/// Open a publish window if the policy is spatial and nothing is stalled
/// (see [`Window`]); otherwise publishes stay immediate.
pub(crate) fn open_window(sim: &mut Sim, shared: &Shared) {
    #[cfg(test)]
    if shared.config.no_publish_windows {
        return;
    }
    debug_assert!(!sim.window.open, "nested publish window");
    sim.window.open = sim.stalled == 0 && matches!(shared.config.sync, SyncPolicy::Spatial { .. });
}

/// Close the publish window, if one is open, and publish what it owes.
pub(crate) fn close_window(sim: &mut Sim, shared: &Shared) {
    if !sim.window.open {
        return;
    }
    sim.window.open = false;
    let mut owed = std::mem::take(&mut sim.window.owed);
    for &c in &owed {
        sim.window.marked[c.index()] = false;
        publish(sim, shared, c);
    }
    owed.clear();
    sim.window.owed = owed;
}

/// Run core `c`'s deferred publish, if any. Call before any code that can
/// observe published values or before the run token leaves `c`'s activity.
pub(crate) fn flush_deferred(sim: &mut Sim, shared: &Shared, c: CoreId) {
    if sim.cores.publish_pending == Some(c) {
        if sim.sanitizer.is_some() {
            // The deferred advance must have stayed inside the cached
            // headroom, or the fast path skipped a stall it owed.
            crate::sanitizer::verify_flush(sim, shared, c);
        }
        publish(sim, shared, c);
    }
}

/// Maintain core `n`'s cached neighbor minimum and headroom bound after a
/// neighbor's canonical word changed `old -> new`. Called at every
/// individual assignment (including intermediate relaxation steps) so the
/// caches are exact. `dropped` says whether the *exposed* value fell: a
/// capped core turning concrete lowers the word but, when a rise of the
/// front caused it, raises the value.
///
/// Returns whether `n`'s neighbor minimum may have moved — `false` only
/// when a valid cache proves it did not, which is also the proof that an
/// idle `n`'s shadow cannot have.
#[inline(always)]
fn note_neighbor_change(
    sim: &mut Sim,
    n: usize,
    old: VirtualTime,
    new: VirtualTime,
    dropped: bool,
) -> bool {
    if dropped {
        // Any cached headroom may now overshoot the true floor.
        sim.cores.set_headroom(n, None);
    }
    if !sim.cores.floor_nb_valid[n] {
        return true;
    }
    if new < old {
        // A lower word can only lower the minimum: the cache stays valid.
        let lower = new < sim.cores.floor_nb(n);
        if lower {
            sim.cores.set_floor_nb(n, new);
        }
        lower
    } else {
        // The riser may have been the (possibly tied) minimum; recompute
        // lazily.
        let held = sim.cores.floor_nb(n) == old;
        if held {
            sim.cores.floor_nb_valid[n] = false;
        }
        held
    }
}

/// The minimum over `c`'s neighbors' canonical words (`MAX` without
/// neighbors), from the incrementally maintained cache; recomputed only
/// when a neighbor that may have been the minimum rose.
#[inline(always)]
fn neighbor_min(sim: &mut Sim, shared: &Shared, c: CoreId) -> VirtualTime {
    if !sim.cores.floor_nb_valid[c.index()] {
        sim.stats.floor_recomputes += 1;
        let mut m = VirtualTime::MAX;
        for &(n, _) in shared.topo.neighbors(c) {
            m = m.min(sim.cores.published(n.index()));
        }
        sim.cores.set_floor_nb(c.index(), canonical(m));
        sim.cores.floor_nb_valid[c.index()] = true;
    }
    sim.cores.floor_nb(c.index())
}

/// Recompute and propagate the value core `c` exposes to its neighbors.
/// Call after any change to `c`'s clock or idle status. Triggers stall
/// re-checks on every core whose published value changed.
pub(crate) fn publish(sim: &mut Sim, shared: &Shared, c: CoreId) {
    sim.cores.publish_pending.take_if(|p| *p == c);
    if sim.window.open {
        sim.window.owe(c);
        return;
    }
    let start = shared.config.profile_picks.then(std::time::Instant::now);
    match shared.config.sync {
        SyncPolicy::Spatial { t } => publish_spatial(sim, shared, c, t),
        _ => publish_global(sim, shared, c),
    }
    if let Some(start) = start {
        sim.stats.prof_publish_ns += start.elapsed().as_nanos() as u64;
    }
}

/// Global policies expose clocks only: no shadows, no relaxation.
fn publish_global(sim: &mut Sim, shared: &Shared, c: CoreId) {
    let newval = sim.cores.vtime(c.index());
    if newval > sim.max_vtime {
        sim.max_vtime = newval;
    }
    let oldval = sim.cores.published(c.index());
    if sim.sanitizer.is_some() {
        // Every slow-path clock change passes through here before the run
        // token can return to the scheduler, so measuring overshoot (and
        // floor regressions on idle-to-working drops) at publish instants
        // covers every state the periodic scan can observe.
        crate::sanitizer::note_clock(sim, shared, c);
        if newval < oldval && !sim.cores.is_idle(c.index()) {
            crate::sanitizer::note_floor_regression(sim, oldval, newval);
        }
    }
    if newval == oldval {
        return;
    }
    sim.stats.publish_sweeps += 1;
    sim.cores.set_published(c.index(), newval);
    // The only published-value change the incremental floor must see.
    note_floor_key(sim, c.index());
    for &(n, _) in shared.topo.neighbors(c) {
        note_neighbor_change(sim, n.index(), oldval, newval, newval < oldval);
    }
    // Global policies wake by floor threshold (`wake_stalled_by_floor`, at
    // the next pick), so rechecking topological neighbors looks redundant.
    // It is not: it runs while the floor this publish produced is current,
    // and the floor can drop again before the next pick. A stalled neighbor
    // that floor frees resumes here; the threshold wake alone would leave
    // it stalled (`golden_global_policy_schedules` pins the difference).
    for &(n, _) in shared.topo.neighbors(c) {
        recheck_stall(sim, shared, n);
    }
}

/// Start a scratch traversal: the returned epoch has its two low bits
/// clear, so a `Sim::stamp` word carries the epoch it was last touched in
/// plus two per-traversal marks.
fn next_epoch(sim: &mut Sim) -> u64 {
    sim.stamp_cur += 4;
    sim.stamp_cur
}

/// `Sim::stamp` mark: the core is in this sweep's `changed` list.
const IN_CHANGED: u64 = 1;
/// `Sim::stamp` mark: the core is waiting in this sweep's worklist.
const QUEUED: u64 = 2;

/// Set `mark` on core `i`'s stamp for the traversal `epoch`; false if it
/// was set already.
#[inline(always)]
fn mark(sim: &mut Sim, i: CoreId, epoch: u64, mark: u64) -> bool {
    let s = &mut sim.stamp[i.index()];
    if *s & !3 != epoch {
        *s = epoch;
    }
    let fresh = *s & mark == 0;
    *s |= mark;
    fresh
}

/// Put idle core `i` on the relaxation worklist unless it is waiting there
/// already.
#[inline(always)]
fn enqueue(sim: &mut Sim, work: &mut Vec<CoreId>, i: CoreId, epoch: u64) {
    if mark(sim, i, epoch, QUEUED) {
        work.push(i);
    }
}

/// Scratch state of one `publish_spatial` sweep.
struct Sweep {
    t: VDuration,
    /// What a capped word stood for before this publish raised the front.
    old_cap: VirtualTime,
    epoch: u64,
    /// First-in-first-out worklist of idle cores to re-evaluate (read at a
    /// cursor, cleared after the sweep), each queued at most once at a
    /// time. A region that lost its support still counts itself up in
    /// rounds under it; [`settle_region`] cuts that short.
    work: Vec<CoreId>,
    /// `(core, exposed value before the sweep)` of every core whose
    /// canonical word changed.
    changed: Vec<(CoreId, VirtualTime)>,
}

/// Spatial publish: store `c`'s new word, relax the shadows of the idle
/// region around every changed core to the fixed point, then recheck the
/// stalls the net changes can affect.
fn publish_spatial(sim: &mut Sim, shared: &Shared, c: CoreId, t: VDuration) {
    let i = c.index();
    let old_cap = shadow_cap(sim, t);
    let rose = sim.cores.vtime(i) > sim.max_vtime;
    if rose {
        sim.max_vtime = sim.cores.vtime(i);
    }
    let idle = sim.cores.is_idle(i);
    let new = if idle {
        shadow_word(sim, shared, c, t)
    } else {
        sim.cores.vtime(i)
    };
    let old = sim.cores.published(i);
    if sim.sanitizer.is_some() {
        // Every slow-path clock change passes through here before the run
        // token can return to the scheduler, so measuring overshoot (and
        // floor regressions on idle-to-working drops) at publish instants
        // covers every state the periodic scan can observe.
        crate::sanitizer::note_clock(sim, shared, c);
        let old = if is_capped(old) { old_cap } else { old };
        if !idle && new < old {
            crate::sanitizer::note_floor_regression(sim, old, new);
        }
    }
    if new == old && !(rose && sim.uncap.due(sim.max_vtime)) {
        return;
    }
    let mut sw = Sweep {
        t,
        old_cap,
        epoch: next_epoch(sim),
        work: std::mem::take(&mut sim.scratch_work),
        changed: std::mem::take(&mut sim.scratch_changed),
    };
    debug_assert!(sw.changed.is_empty() && sw.work.is_empty());
    store_word(sim, shared, &mut sw, c, new);
    if rose {
        queue_overtaken(sim, &mut sw.work, sw.epoch);
    }
    if !sw.changed.is_empty() || !sw.work.is_empty() {
        sim.stats.publish_sweeps += 1;
        relax(sim, shared, &mut sw);

        // Stall re-checks, post-fixpoint, on exposed values. A net rise of
        // x can only unstall a core registered on x (any stalled core is
        // registered on its argmin blocker, and a non-argmin rise cannot
        // lift the minimum). A net drop invalidates registrations, so it
        // sweeps all of x's neighbors — each failed recheck re-registers
        // on the now-current argmin. A capped core the front uncapped rose
        // (old cap <= key + T) although its word fell.
        for &(x, old) in &sw.changed {
            let fin = resolve(sim, sim.cores.published(x.index()), t);
            if fin == old {
                continue;
            }
            if fin < old {
                for &(n, _) in shared.topo.neighbors(x) {
                    recheck_stall(sim, shared, n);
                }
            }
            take_waiters(sim, shared, x);
        }
        sw.changed.clear();
    }
    sim.scratch_work = sw.work;
    sim.scratch_changed = sw.changed;
}

/// Re-evaluate the cores on the worklist, and whatever their changes queue
/// in turn, until nothing changes. The shadow function is monotone in its
/// inputs and `T > 0` makes its fixed point unique, so any worklist order
/// converges to the same words.
///
/// This loop and the helpers it calls are forced inline: it is the hottest
/// code of a spatial run, and out of line the worklist and the `changed`
/// list live in memory across every call (measured: +7 % on the run phase
/// of a million-core machine).
///
/// A sweep that has evaluated more than `SETTLE_PER_CHANGE` cores per
/// changed word (plus `SETTLE_SLACK`) is counting a region up, and
/// [`settle_region`] computes the region's words directly before the loop
/// goes on.
#[inline(always)]
fn relax(sim: &mut Sim, shared: &Shared, sw: &mut Sweep) {
    let mut head = 0;
    let mut evals = 0;
    while head < sw.work.len() {
        let x = sw.work[head];
        head += 1;
        sim.stamp[x.index()] &= !QUEUED;
        let w = shadow_word(sim, shared, x, sw.t);
        store_word(sim, shared, sw, x, w);
        evals += 1;
        if evals > SETTLE_PER_CHANGE * sw.changed.len() + SETTLE_SLACK {
            settle_region(sim, shared, sw, head);
            evals = 0;
        }
    }
    sw.work.clear();
}

/// Evaluations per changed word past which a sweep settles its region.
const SETTLE_PER_CHANGE: usize = 4;
/// Evaluations a sweep may spend beyond `SETTLE_PER_CHANGE` per change.
const SETTLE_SLACK: usize = 64;

/// Scratch of [`settle_region`], kept on `Sim` between settles.
#[derive(Default)]
pub(crate) struct Region {
    /// Per core: one plus its index in `members`, 0 for none. Allocated
    /// zeroed at the first settle and reset member by member after each.
    slot: Vec<u32>,
    members: Vec<CoreId>,
    /// Per member: its least word found so far, `MAX` for none below the
    /// front.
    label: Vec<VirtualTime>,
    /// Dijkstra's queue of `(label, member index)`.
    heap: BinaryHeap<Reverse<(VirtualTime, u32)>>,
}

/// Store the fixed point of the idle region the sweep is counting up.
///
/// The FIFO does not settle a region whose support went away in one pass:
/// when a lagging core goes idle under idle neighbors it supported, its
/// shadow becomes `min(its dependents) + T`, theirs follow, and the region
/// climbs `2T` a round until the cap or a working clock stops it (a
/// quicksort laggard 65,000 cycles behind the front with `T` = 100: some
/// 300 rounds over the region). Here the region's words are computed
/// directly instead.
///
/// Members are the idle cores with a concrete word that changed in this
/// sweep or are still queued (`work[head..]`), closed under support: an
/// idle concrete neighbor `y` of a member `z` joins when
/// `word(y) == word(z) + T > vtime(y)`. Their words are Dijkstra labels
/// from the non-members around them — `max(vtime, m + T)` from a neighbor
/// `m` below the front, lowest first; a member left without one is capped
/// under its lowest final concrete neighbor, or [`CAPPED`]. Each word is
/// stored once through `store_word`, so every cache sees one old-to-final
/// change and every idle neighbor whose input moved is queued; the FIFO
/// then goes on from `head`. The shadow system's fixed point is unique, so
/// this changes which intermediate words a sweep passes through, never
/// where it ends.
#[cold]
#[inline(never)]
fn settle_region(sim: &mut Sim, shared: &Shared, sw: &mut Sweep, head: usize) {
    let (t, front) = (sw.t, sim.max_vtime);
    let mut rg = std::mem::take(&mut sim.region);
    if rg.slot.len() < sim.cores.len() {
        rg.slot = vec![0; sim.cores.len()];
    }
    let joins = |sim: &Sim, rg: &Region, y: CoreId| {
        rg.slot[y.index()] == 0
            && sim.cores.is_idle(y.index())
            && !is_capped(sim.cores.published(y.index()))
            && !shared.topo.neighbors(y).is_empty()
    };
    let seeds = sw.changed.iter().map(|&(x, _)| x);
    for x in seeds.chain(sw.work[head..].iter().copied()) {
        if joins(sim, &rg, x) {
            rg.members.push(x);
            rg.slot[x.index()] = rg.members.len() as u32;
        }
    }
    let mut k = 0;
    while k < rg.members.len() {
        let z = rg.members[k];
        k += 1;
        let up = sim.cores.published(z.index()) + t;
        for &(y, _) in shared.topo.neighbors(z) {
            if sim.cores.published(y.index()) == up
                && up > sim.cores.vtime(y.index())
                && joins(sim, &rg, y)
            {
                rg.members.push(y);
                rg.slot[y.index()] = rg.members.len() as u32;
            }
        }
    }

    // Labels from the non-members, then Dijkstra through the members: a
    // label exceeds the one it came from by at least `T`, so the least
    // queued label is final.
    rg.label.clear();
    rg.label.resize(rg.members.len(), VirtualTime::MAX);
    for (k, &y) in rg.members.iter().enumerate() {
        let m = shared
            .topo
            .neighbors(y)
            .iter()
            .filter(|&&(n, _)| rg.slot[n.index()] == 0)
            .map(|&(n, _)| sim.cores.published(n.index()))
            .min()
            .unwrap_or(VirtualTime::MAX);
        if m < front {
            rg.label[k] = sim.cores.vtime(y.index()).max(m + t);
            rg.heap.push(Reverse((rg.label[k], k as u32)));
        }
    }
    while let Some(Reverse((l, k))) = rg.heap.pop() {
        if l >= front {
            // No label at or above the front supports another.
            break;
        }
        if l != rg.label[k as usize] {
            continue;
        }
        for &(n, _) in shared.topo.neighbors(rg.members[k as usize]) {
            let j = rg.slot[n.index()];
            if j == 0 {
                continue;
            }
            let l2 = sim.cores.vtime(n.index()).max(l + t);
            if l2 < rg.label[j as usize - 1] {
                rg.label[j as usize - 1] = l2;
                rg.heap.push(Reverse((l2, j - 1)));
            }
        }
    }
    rg.heap.clear();

    for k in 0..rg.members.len() {
        let y = rg.members[k];
        let mut new = rg.label[k];
        if new == VirtualTime::MAX {
            let m = shared
                .topo
                .neighbors(y)
                .iter()
                .map(|&(n, _)| match rg.slot[n.index()] {
                    0 => sim.cores.published(n.index()),
                    j => rg.label[j as usize - 1],
                })
                .min()
                .unwrap_or(VirtualTime::MAX);
            new = if m.0 < CAP_TAG {
                capped_under(m)
            } else {
                CAPPED
            };
        }
        store_word(sim, shared, sw, y, new);
    }
    // Each member's word was evaluated once, by the labels.
    sim.stats.shadow_evals += rg.members.len() as u64;
    #[cfg(debug_assertions)]
    for &y in &rg.members {
        // Every member now holds its shadow of its neighbors' final words.
        let m = shared
            .topo
            .neighbors(y)
            .iter()
            .map(|&(n, _)| sim.cores.published(n.index()))
            .min()
            .expect("members have neighbors");
        let want = if m < front {
            sim.cores.vtime(y.index()).max(m + t)
        } else {
            CAPPED
        };
        debug_assert_eq!(
            canonical(sim.cores.published(y.index())),
            want,
            "settled {y}"
        );
    }
    for y in rg.members.drain(..) {
        rg.slot[y.index()] = 0;
    }
    sim.region = rg;
}

/// Bring a freshly set-up spatial machine to its shadow fixed point, once,
/// between the workload's setup closure and the first pick. Published words
/// start at zero, which is already right for every core the setup put to
/// work at clock zero — making a million cores busy publishes nothing — and
/// wrong for every core it left idle: those expose the cap, or less beside
/// a working neighbor. Nothing has run a synchronization check yet, so no
/// floor is cached and no core is stalled: the words are all there is to
/// fix.
pub(crate) fn settle(sim: &mut Sim, shared: &Shared) {
    let SyncPolicy::Spatial { t } = shared.config.sync else {
        return;
    };
    // Whatever the setup closure's own publishes cached predates the words
    // written below.
    sim.cores.floor_nb_valid.fill(false);
    let (mut idle, mut busy) = (0usize, 0usize);
    for i in 0..sim.cores.len() {
        if !sim.cores.is_idle(i) {
            busy += 1;
        } else if !shared.topo.neighbors(CoreId(i as u32)).is_empty() {
            sim.cores.set_published(i, CAPPED);
            idle += 1;
        }
    }
    if idle == 0 || busy == 0 {
        // Nothing exposes a shadow, or every shadow is the cap.
        return;
    }
    let mut sw = Sweep {
        t,
        old_cap: shadow_cap(sim, t),
        epoch: next_epoch(sim),
        work: Vec::new(),
        changed: Vec::new(),
    };
    for i in 0..sim.cores.len() {
        if !sim.cores.is_idle(i) {
            for &(n, _) in shared.topo.neighbors(CoreId(i as u32)) {
                if sim.cores.is_idle(n.index()) {
                    enqueue(sim, &mut sw.work, n, sw.epoch);
                }
            }
        }
    }
    relax(sim, shared, &mut sw);
}

/// The word idle core `i` should hold: its own last clock maxed with the
/// minimum of its neighbors' exposed times plus `t`, the `min + t` term
/// capped at the front plus `t`.
///
/// No core's clock exceeds `max_vtime`, so an exposed value at or above it
/// can never be the binding entry of a stall check — and without the cap
/// the min-plus relaxation has no fixed point in regions with no working
/// core (idle cores would push each other's shadows up forever). The cap
/// binds exactly when no neighbor is concrete below the front, and such a
/// core stores [`capped_under`] its lowest concrete neighbor instead of a
/// value.
#[inline(always)]
fn shadow_word(sim: &mut Sim, shared: &Shared, i: CoreId, t: VDuration) -> VirtualTime {
    sim.stats.shadow_evals += 1;
    let m = neighbor_min(sim, shared, i);
    if m < sim.max_vtime {
        return sim.cores.vtime(i.index()).max(m + t);
    }
    if m == VirtualTime::MAX {
        return sim.cores.vtime(i.index());
    }
    // Capped. A core that is capped already keeps the key it is registered
    // under unless its lowest concrete neighbor is now lower still.
    let old = sim.cores.published(i.index());
    let new = if m == CAPPED { CAPPED } else { capped_under(m) };
    if is_capped(old) && old <= new {
        old
    } else {
        new
    }
}

/// Give core `x` the word `new`, with everything a changed word owes:
/// the uncap registration, the neighbors' caches, the `changed` record and
/// a re-evaluation of `x`'s idle neighbors.
#[inline(always)]
fn store_word(sim: &mut Sim, shared: &Shared, sw: &mut Sweep, x: CoreId, new: VirtualTime) {
    let old = sim.cores.published(x.index());
    if new == old {
        return;
    }
    let (old_c, new_c) = (canonical(old), canonical(new));
    if new_c == old_c {
        // Nothing a neighbor can see: a capped core under a lower key.
        debug_assert!(new < old);
        sim.cores.set_published(x.index(), new);
        register_uncap(sim, x, key_of(new));
        return;
    }
    sim.cores.set_published(x.index(), new);
    if is_capped(new) && new != CAPPED {
        register_uncap(sim, x, key_of(new));
    }
    let old_exposed = if is_capped(old) { sw.old_cap } else { old };
    let dropped = resolve(sim, new, sw.t) < old_exposed;
    if mark(sim, x, sw.epoch, IN_CHANGED) {
        sw.changed.push((x, old_exposed));
    }
    for &(n, _) in shared.topo.neighbors(x) {
        // An idle neighbor's shadow is a function of its neighbor minimum
        // (its own clock and the front aside): re-evaluate it only if that
        // moved.
        if note_neighbor_change(sim, n.index(), old_c, new_c, dropped)
            && sim.cores.is_idle(n.index())
        {
            enqueue(sim, &mut sw.work, n, sw.epoch);
        }
    }
}

/// Empty core `x`'s waiter set and recheck every member (spatial only: no
/// other policy registers waiters). Duplicate entries (a core that
/// re-registered on `x` while a stale entry remained) are skipped within
/// one take via visit stamps.
fn take_waiters(sim: &mut Sim, shared: &Shared, x: CoreId) {
    if sim.waiters.is_empty(x.index()) {
        return;
    }
    // Registrations on `x` made by the rechecks below start a new set,
    // left for the next take.
    let mut slot = sim.waiters.detach(x.index());
    let stamp = next_epoch(sim);
    while let Some((wid, next)) = sim.waiters.release(slot) {
        slot = next;
        let w = CoreId(wid);
        if sim.stamp[w.index()] == stamp {
            continue;
        }
        sim.stamp[w.index()] = stamp;
        if sim.cores.waiting_on(w.index()) == Some(x) {
            sim.cores.set_waiting_on(w.index(), None);
        }
        // Stale entries (the core has since registered elsewhere) are
        // rechecked too: `recheck_stall` is authoritative, so the extra
        // check cannot wake a core wrongly, and the floor-cache refresh it
        // does is part of the `floor_recomputes` count.
        recheck_stall(sim, shared, w);
    }
}

/// Register `c` in `target`'s waiter set (dedup-free: `waiting_on` mirrors
/// the most recent registration, so a repeat registration on the same
/// target is a no-op without scanning the list).
fn register_waiter(sim: &mut Sim, c: CoreId, target: CoreId) {
    if sim.cores.waiting_on(c.index()) == Some(target) {
        return;
    }
    sim.cores.set_waiting_on(c.index(), Some(target));
    sim.waiters.push_back(target.index(), c.0);
}
/// If `c`'s current activity is stalled and the synchronization condition
/// now holds, make it resumable and requeue the core.
pub(crate) fn recheck_stall(sim: &mut Sim, shared: &Shared, c: CoreId) {
    let Some(aid) = sim.cores.current(c.index()) else {
        return;
    };
    if !sim.act(aid).is_stalled() {
        return;
    }
    if sync_ok(sim, shared, c) {
        sim.act_mut(aid).state = ActivityState::Resumable;
        sim.stalled -= 1;
        push_ready(sim, c);
    }
}

/// The global floor may have moved: re-examine the stalled cores of the
/// policies whose stall condition is machine-wide. Called at every pick.
/// Spatial synchronization needs nothing here — its wake conditions are
/// purely local and handled by neighbor publishes.
///
/// BoundedSlack/Conservative stall conditions are pure threshold checks
/// against the floor, so a floor move wakes exactly the cores whose
/// registered threshold it crossed. A floor that has not moved since the
/// last call wakes nothing: a core registers a threshold above the floor
/// it was checked against, so the call is then the wake heap's empty test
/// and a peek.
pub(crate) fn floor_moved(sim: &mut Sim, shared: &Shared) {
    match shared.config.sync {
        SyncPolicy::BoundedSlack { .. } | SyncPolicy::Conservative => {
            wake_stalled_by_floor(sim, shared)
        }
        SyncPolicy::Spatial { .. } | SyncPolicy::Unbounded => {}
    }
}

/// The local synchronization floor of core `c` under spatial
/// synchronization: the most-late neighbor's published time, also counting
/// the birth times of `c`'s in-flight spawned tasks as if they were
/// neighbors. The neighbor minimum comes from the incrementally maintained
/// cache; it is recomputed only when invalidated by a rising publish.
///
/// The cache holds canonical words, so a neighborhood of capped shadows
/// caches [`CAPPED`] and resolves to the cap at every read: the floor (and
/// the headroom `sync_ok` derives from it) follows the front without a
/// recomputation.
pub(crate) fn local_floor(sim: &mut Sim, shared: &Shared, c: CoreId, t: VDuration) -> VirtualTime {
    let nb = neighbor_min(sim, shared, c);
    let mut floor = resolve(sim, nb, t);
    if let Some(b) = sim.cores.min_birth(c.index()) {
        floor = floor.min(b);
    }
    floor
}

/// Global floor: the minimum published time over all working cores, also
/// counting every birth-ledger entry. Used by the BoundedSlack and
/// Conservative policies.
///
/// Served from the incrementally-maintained tournament tree
/// ([`crate::floor::GlobalFloor`]) both policies allocate — an O(1) root
/// read instead of an O(cores) sweep — and cross-checked against the sweep
/// in debug builds on every query.
pub(crate) fn global_floor(sim: &Sim) -> VirtualTime {
    let floor = sim
        .gfloor
        .as_ref()
        .expect("global policies allocate the floor tree")
        .floor();
    debug_assert_eq!(
        floor,
        global_floor_naive(sim),
        "incremental global floor diverged from the naive sweep"
    );
    floor
}

/// The O(cores) global-floor sweep: oracle for the debug cross-check above
/// and the sanitizer's from-scratch floor (which also runs under the
/// policies that keep no tree). No scheduling decision reads it.
pub(crate) fn global_floor_naive(sim: &Sim) -> VirtualTime {
    let mut floor = VirtualTime::MAX;
    for i in 0..sim.cores.len() {
        if !sim.cores.is_idle(i) {
            floor = floor.min(sim.cores.published(i));
        }
        if let Some(b) = sim.cores.min_birth(i) {
            floor = floor.min(b);
        }
    }
    floor
}

/// Recompute core `i`'s contribution to the incremental global floor and
/// store it in the tournament tree. Key = `min(published-if-working,
/// earliest pending birth)`, `MAX` when neither applies. No-op under
/// policies that allocate no tree (everything but BoundedSlack /
/// Conservative). Must be called wherever a key input changes — the
/// core's published value, its idle status, or its birth ledger.
pub(crate) fn note_floor_key(sim: &mut Sim, i: usize) {
    if sim.gfloor.is_none() {
        return;
    }
    let mut key = sim.cores.birth_floor(i);
    if !sim.cores.is_idle(i) {
        key = key.min(sim.cores.published(i));
    }
    sim.gfloor
        .as_mut()
        .expect("gfloor checked above")
        .set(i, key);
}

/// Register stalled core `c` in the floor-threshold wake structure: once
/// the global floor reaches `threshold`, `c`'s synchronization condition
/// holds again and it must be rechecked. A core keeps one live entry per
/// threshold (re-registering the threshold it waits on pushes nothing);
/// a core woken by another path leaves its entry behind, and the recheck
/// it later triggers is a harmless no-op (`recheck_stall` is
/// authoritative).
fn register_floor_wake(sim: &mut Sim, c: CoreId, threshold: VirtualTime) {
    sim.stall_wakes
        .as_mut()
        .expect("global policies allocate the wake structure")
        .register(c.0, threshold);
}

/// Wake exactly the stalled cores whose floor-threshold the (possibly
/// risen) global floor has crossed, in core-id order, without touching
/// the cores still below their bound. Thresholds only ever rise for a
/// given stalled activity (its clock is frozen while stalled), so popped
/// entries never need reinsertion here; a recheck that fails again
/// re-registers itself from `sync_ok`.
fn wake_stalled_by_floor(sim: &mut Sim, shared: &Shared) {
    if sim.stall_wakes.as_ref().is_none_or(|w| w.is_empty()) {
        return;
    }
    let floor = global_floor(sim);
    let mut woken = std::mem::take(&mut sim.scratch_ready);
    woken.clear();
    sim.stall_wakes
        .as_mut()
        .expect("checked above")
        .pop_due(floor, &mut woken);
    // Core-id order is the pinned wake order; dedup collapses a core's
    // entries for several thresholds to one recheck.
    woken.sort_unstable();
    woken.dedup();
    let mut idx = 0;
    while idx < woken.len() {
        recheck_stall(sim, shared, CoreId(woken[idx]));
        idx += 1;
    }
    woken.clear();
    sim.scratch_ready = woken;
}

/// Is the drift-headroom fast path on? Always, outside the unit test that
/// runs one program both ways. (Deferring unstalls to a flush point changes
/// ready-queue insertion order, which the lowest-vtime heap is insensitive
/// to.)
#[cfg_attr(not(test), allow(unused_variables))]
fn fast_path_eligible(shared: &Shared) -> bool {
    #[cfg(test)]
    if shared.config.full_sync_only {
        return false;
    }
    true
}

/// Does the synchronization policy allow core `c` to execute task code
/// right now?
///
/// Also maintains the max-drift statistic, the headroom cache and the
/// waiter registrations.
pub(crate) fn sync_ok(sim: &mut Sim, shared: &Shared, c: CoreId) -> bool {
    debug_assert!(!sim.window.open, "sync check against owed publishes");
    // Lock waiver: a core holding a lock or inside a critical section is
    // temporarily exempt so it can release its resources (paper §II.B).
    // No headroom is cached here — the waiver is not a drift bound.
    if sim.cores.lock_depth[c.index()] > 0 {
        return true;
    }
    let vtime = sim.cores.vtime(c.index());
    match shared.config.sync {
        SyncPolicy::Spatial { t } => {
            let floor = local_floor(sim, shared, c, t);
            if sim.sanitizer.is_some() {
                // Re-derive the floor from scratch: the decision below must
                // not rest on a corrupted incremental cache.
                crate::sanitizer::verify_spatial_floor(sim, shared, c, floor);
            }
            if floor == VirtualTime::MAX {
                // No neighbors, no births: nothing to drift from, ever.
                if fast_path_eligible(shared) {
                    sim.cores.set_headroom(c.index(), Some(VirtualTime::MAX));
                }
                return true;
            }
            let drift = vtime.saturating_since(floor);
            sim.stats.max_neighbor_drift = sim.stats.max_neighbor_drift.max(drift);
            if drift <= t {
                if fast_path_eligible(shared) {
                    sim.cores.set_headroom(c.index(), Some(floor + t));
                }
                true
            } else {
                sim.cores.set_headroom(c.index(), None);
                // Register on the argmin blocking *neighbor*, whose rise is
                // the only publish event that can lift the neighbor
                // minimum. A floor bound by a birth alone needs no
                // registration: `discard_birth` rechecks directly.
                let nb_floor = sim.cores.floor_nb(c.index());
                if vtime.saturating_since(nb_floor) > t {
                    let argmin = shared
                        .topo
                        .neighbors(c)
                        .iter()
                        .map(|&(n, _)| n)
                        .find(|n| sim.cores.published(n.index()) == nb_floor);
                    if let Some(r) = argmin {
                        register_waiter(sim, c, r);
                    }
                }
                false
            }
        }
        // Conservative is bounded slack with a zero window.
        policy @ (SyncPolicy::BoundedSlack { .. } | SyncPolicy::Conservative) => {
            let window = policy.slack().expect("a global policy has a window");
            let floor = global_floor(sim);
            if floor == VirtualTime::MAX {
                return true;
            }
            if vtime.saturating_since(floor) <= window {
                true
            } else {
                // The check passes again exactly when the floor reaches
                // vtime - window (both in ticks).
                register_floor_wake(sim, c, VirtualTime(vtime.0.saturating_sub(window.0)));
                false
            }
        }
        SyncPolicy::Unbounded => true,
    }
}

#[cfg(test)]
mod tests {
    use crate::{
        simulate, CoreId, EngineConfig, Envelope, ExecCtx, Ops, Payload, RuntimeHooks, SimStats,
        SyncPolicy, VDuration,
    };
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Hooks whose message handler advances the receiving core, so arrivals
    /// move clocks (and therefore floors) under the annotating activities.
    struct AdvanceOnMessage;
    impl RuntimeHooks for AdvanceOnMessage {
        fn on_message(&self, ops: &mut Ops<'_>, env: Envelope) {
            ops.advance_core(env.dst, 4);
        }
        fn on_idle(&self, _: &mut Ops<'_>, _: CoreId) {}
        fn on_activity_end(&self, _: &mut Ops<'_>, _: CoreId, _: Box<dyn std::any::Any + Send>) {}
    }

    /// Annotation-dense program: one activity per core of a 16-core mesh
    /// runs 200 small annotations (step sizes differ per core, so a real
    /// drift pattern flows) and messages the antipodal core every 16th.
    fn run(sync: SyncPolicy, full_sync_only: bool) -> SimStats {
        let mut config = config(sync);
        config.full_sync_only = full_sync_only;
        run_with(config, Arc::new(AdvanceOnMessage))
    }

    /// The configuration the test programs run under.
    fn config(sync: SyncPolicy) -> EngineConfig {
        let mut config = EngineConfig::default().with_seed(11);
        config.sync = sync;
        config
    }

    /// [`run`] with the given configuration and hooks.
    fn run_with(config: EngineConfig, hooks: Arc<dyn RuntimeHooks>) -> SimStats {
        let n = 16u32;
        simulate(simany_topology::mesh_2d(n), config, hooks, move |ops| {
            for c in 0..n {
                let step = 3 + u64::from(c % 5);
                ops.start_activity(
                    CoreId(c),
                    "dense",
                    Box::new(()),
                    Box::new(move |ctx: &mut ExecCtx| {
                        for k in 0..200 {
                            ctx.advance_cycles(step);
                            if k % 16 == 15 {
                                ctx.send(CoreId((c + n / 2) % n), 32, Payload::none())
                                    .unwrap();
                            }
                        }
                    }),
                );
            }
        })
        .expect("simulation failed")
    }

    /// Everything a schedule divergence would show up in. The fast path's
    /// own counters (`fast_path_advances`, `full_sync_checks`,
    /// `publish_sweeps`, `floor_recomputes`) are what it exists to change,
    /// and `max_neighbor_drift` is sampled only at the checks it skips — so
    /// the one statistic derived from floors joins only when the fast path
    /// is off on both sides.
    fn fingerprint(s: &SimStats, with_drift: bool) -> [u64; 9] {
        [
            s.final_vtime.ticks(),
            s.scheduler_picks,
            s.stall_events,
            s.activity_resumes,
            s.late_messages,
            s.on_time_messages,
            s.late_by_total.ticks(),
            s.net.messages,
            if with_drift {
                s.max_neighbor_drift.ticks()
            } else {
                0
            },
        ]
    }

    /// The drift-headroom fast path is an optimization, not a semantic
    /// change: the same program with it forced off reaches the same
    /// schedule under every policy.
    #[test]
    fn fast_path_is_bit_exact_with_the_full_path() {
        let w = VDuration::from_cycles(100);
        let policies = [
            SyncPolicy::Spatial { t: w },
            SyncPolicy::BoundedSlack { window: w },
            SyncPolicy::Conservative,
            SyncPolicy::Unbounded,
        ];
        for policy in policies {
            let fast = run(policy, false);
            let full = run(policy, true);
            assert_eq!(
                fingerprint(&fast, false),
                fingerprint(&full, false),
                "{policy:?}: fast path changed the schedule"
            );
            assert_eq!(full.fast_path_advances, 0, "fast path fired while off");
            if matches!(policy, SyncPolicy::Spatial { .. }) {
                // With the fast path off every annotation samples the
                // drift, so its maximum is a function of the floors alone.
                // Pinned from the engine that stored every capped shadow
                // (PR 15): resolving the cap at read time must give the
                // same floors.
                assert_eq!(
                    fingerprint(&full, true),
                    [2896, 238, 107, 123, 120, 72, 7244, 192, 284]
                );
                assert!(fast.fast_path_advances > 0, "fast path never fired");
                assert!(
                    fast.publish_sweeps < full.publish_sweeps,
                    "deferral did not reduce publish sweeps ({} vs {})",
                    fast.publish_sweeps,
                    full.publish_sweeps
                );
            }
        }
    }

    /// [`AdvanceOnMessage`] that also inspects the floor-threshold wake
    /// heap at every message it handles.
    #[derive(Default)]
    struct WakeHeapCheck {
        entries: AtomicU64,
        duplicates: AtomicU64,
    }
    impl RuntimeHooks for WakeHeapCheck {
        fn on_message(&self, ops: &mut Ops<'_>, env: Envelope) {
            let wakes = ops.sim.stall_wakes.as_ref().expect("global policy");
            let mut pairs: Vec<_> = wakes.entries().collect();
            let n = pairs.len();
            pairs.sort_unstable();
            pairs.dedup();
            self.entries.fetch_add(n as u64, Ordering::Relaxed);
            self.duplicates
                .fetch_add((n - pairs.len()) as u64, Ordering::Relaxed);
            ops.advance_core(env.dst, 4);
        }
        fn on_idle(&self, _: &mut Ops<'_>, _: CoreId) {}
        fn on_activity_end(&self, _: &mut Ops<'_>, _: CoreId, _: Box<dyn std::any::Any + Send>) {}
    }

    /// A stalled core rechecked by a neighbor's publish, and failing again,
    /// registers the threshold it already waits on: that pushes nothing,
    /// so no `(threshold, core)` pair is ever in the heap twice.
    #[test]
    fn a_stalled_core_keeps_one_floor_wake_entry_per_threshold() {
        let check = Arc::new(WakeHeapCheck::default());
        let s = run_with(config(SyncPolicy::Conservative), check.clone());
        assert!(s.stall_events > 0, "nothing stalled");
        assert!(
            check.entries.load(Ordering::Relaxed) > 0,
            "no message arrived while a core waited on the floor"
        );
        assert_eq!(
            check.duplicates.load(Ordering::Relaxed),
            0,
            "a (threshold, core) pair was in the wake heap twice"
        );
    }

    /// One activity on the corner core of an otherwise idle mesh, every
    /// annotation a full publish that raises the front.
    fn lone_runner(cores: u32, t: VDuration) -> SimStats {
        let mut config = EngineConfig::default().with_seed(3);
        config.sync = SyncPolicy::Spatial { t };
        simulate(
            simany_topology::mesh_2d(cores),
            config,
            Arc::new(AdvanceOnMessage),
            move |ops| {
                ops.start_activity(
                    CoreId(0),
                    "runner",
                    Box::new(()),
                    Box::new(move |ctx: &mut ExecCtx| {
                        for _ in 0..1000 {
                            // Past the `floor + T` headroom of an
                            // all-capped neighborhood: never deferred.
                            ctx.advance_cycles(2 * t.cycles() + 1);
                        }
                    }),
                );
            },
        )
        .expect("simulation failed")
    }

    /// A rise of the front costs the same whether 255 or 4,095 idle cores
    /// sit behind the runner: their shadows are the cap, the cap is not
    /// stored, and only the runner's own neighbors are re-evaluated. (With
    /// the cap stored, every rise rewrote the whole sea.)
    #[test]
    fn the_cost_of_a_rise_does_not_depend_on_the_idle_sea() {
        let t = VDuration::from_cycles(100);
        let small = lone_runner(256, t);
        let large = lone_runner(4096, t);
        for s in [&small, &large] {
            assert!(s.publish_sweeps >= 1000, "{} sweeps", s.publish_sweeps);
            assert!(
                s.shadow_evals < 20 * s.publish_sweeps,
                "{} evaluations over {} sweeps",
                s.shadow_evals,
                s.publish_sweeps
            );
        }
        assert!(
            large.shadow_evals < 2 * small.shadow_evals,
            "evaluations grew with the idle sea: {} on 256 cores, {} on 4096",
            small.shadow_evals,
            large.shadow_evals
        );
    }

    /// A task pool on a 16-core mesh: `on_idle` starts one queued task of
    /// 30 annotations (step sizes vary per task, every tenth sends to the
    /// antipodal core), and the end of a task charges its core, messages
    /// its neighbors and queues a follow-up on another core until `limit`
    /// tasks were queued. Messages advance their receiver. A task's end
    /// frees stalled neighbors while its hook sends to them: deferring that
    /// publish past the sends (a window opened with a core stalled) leaves
    /// different ready entries, and this program's schedule moves.
    struct TaskPool {
        queued: AtomicU64,
        limit: u64,
    }
    impl RuntimeHooks for TaskPool {
        fn on_message(&self, ops: &mut Ops<'_>, env: Envelope) {
            ops.advance_core(env.dst, 4);
        }
        fn on_idle(&self, ops: &mut Ops<'_>, c: CoreId) {
            ops.queue_hint_sub(c, 1);
            let n = ops.n_cores();
            let step = 2 + (self.queued.load(Ordering::Relaxed) * 7 + u64::from(c.0)) % 9;
            ops.start_activity(
                c,
                "pooled",
                Box::new(()),
                Box::new(move |ctx: &mut ExecCtx| {
                    for k in 0..30 {
                        ctx.advance_cycles(step);
                        if k % 10 == 9 {
                            ctx.send(CoreId((c.0 + n / 2) % n), 16, Payload::none())
                                .unwrap();
                        }
                    }
                }),
            );
        }
        fn on_activity_end(&self, ops: &mut Ops<'_>, c: CoreId, _: Box<dyn std::any::Any + Send>) {
            ops.advance_core(c, 5);
            let at = ops.now(c);
            for n in ops.neighbors(c) {
                let _ = ops.send(c, n, 16, at, Payload::none());
            }
            if self.queued.fetch_add(1, Ordering::Relaxed) < self.limit {
                let next = CoreId((c.0 * 5 + 3) % ops.n_cores());
                ops.queue_hint_add(next, 1);
            }
        }
    }

    /// [`TaskPool`] seeded with one task on every other core.
    fn run_pool(config: EngineConfig) -> SimStats {
        let hooks = Arc::new(TaskPool {
            queued: AtomicU64::new(8),
            limit: 64,
        });
        simulate(simany_topology::mesh_2d(16), config, hooks, |ops| {
            for c in (0..16).step_by(2) {
                ops.queue_hint_add(CoreId(c), 1);
            }
        })
        .expect("simulation failed")
    }

    /// Publish windows change how often a step publishes, never what the
    /// schedule is: the dense program and the task pool (whose idle hooks,
    /// task ends and messages are the steps that open windows, with and
    /// without stalled neighbors) reach the same schedule with windows
    /// forced off, under every policy.
    #[test]
    fn publish_windows_are_bit_exact() {
        let w = VDuration::from_cycles(100);
        let policies = [
            SyncPolicy::Spatial { t: w },
            SyncPolicy::BoundedSlack { window: w },
            SyncPolicy::Conservative,
            SyncPolicy::Unbounded,
        ];
        for policy in policies {
            let with = |windows: bool| {
                let mut config = config(policy);
                config.no_publish_windows = !windows;
                config
            };
            let dense = |windows| run_with(with(windows), Arc::new(AdvanceOnMessage));
            let pool = |windows| run_pool(with(windows));
            let programs: [(&str, &dyn Fn(bool) -> SimStats); 2] =
                [("dense", &dense), ("pool", &pool)];
            for (name, program) in programs {
                let (on, off) = (program(true), program(false));
                assert_eq!(
                    fingerprint(&on, false),
                    fingerprint(&off, false),
                    "{name} under {policy:?}: publish windows changed the schedule"
                );
                if matches!(policy, SyncPolicy::Spatial { .. }) {
                    assert!(
                        on.publish_sweeps < off.publish_sweeps,
                        "{name}: windows saved no sweep ({} vs {})",
                        on.publish_sweeps,
                        off.publish_sweeps
                    );
                } else {
                    // Windows open under the spatial policy only.
                    assert_eq!(on.publish_sweeps, off.publish_sweeps, "{name} {policy:?}");
                }
                if matches!(
                    policy,
                    SyncPolicy::Spatial { .. } | SyncPolicy::Conservative
                ) {
                    assert!(on.stall_events > 0, "{name} under {policy:?} never stalled");
                }
            }
        }
    }

    /// The million-core headline's shape: `on_idle` starts one task of 16
    /// annotations per queued item.
    struct OneShot;
    impl RuntimeHooks for OneShot {
        fn on_message(&self, _: &mut Ops<'_>, _: Envelope) {}
        fn on_idle(&self, ops: &mut Ops<'_>, c: CoreId) {
            ops.queue_hint_sub(c, 1);
            ops.start_activity(
                c,
                "oneshot",
                Box::new(()),
                Box::new(move |ctx: &mut ExecCtx| {
                    for _ in 0..16 {
                        ctx.advance_cycles(3 + u64::from(c.0 % 5));
                    }
                }),
            );
        }
        fn on_activity_end(&self, _: &mut Ops<'_>, _: CoreId, _: Box<dyn std::any::Any + Send>) {}
    }

    /// With nothing stalled, a task publishes twice: its first annotation
    /// (no headroom is cached yet) and its end (the deferred clock and the
    /// idle shadow together). The idle hook's idle-then-busy transient
    /// publishes nothing; with windows off it costs two more sweeps and the
    /// end one more.
    #[test]
    fn a_stall_free_task_costs_two_sweeps() {
        let cores = 256;
        let run = |windows: bool| {
            let mut config = EngineConfig::default()
                .with_seed(7)
                .with_drift_cycles(1_000_000);
            config.no_publish_windows = !windows;
            simulate(
                simany_topology::mesh_2d(cores),
                config,
                Arc::new(OneShot),
                |ops| {
                    for c in 0..cores {
                        ops.queue_hint_add(CoreId(c), 1);
                    }
                },
            )
            .expect("simulation failed")
        };
        let (on, off) = (run(true), run(false));
        for s in [&on, &off] {
            assert_eq!(s.stall_events, 0);
            assert_eq!(s.activities_started, u64::from(cores));
        }
        assert_eq!(on.publish_sweeps, 2 * u64::from(cores));
        assert_eq!(off.publish_sweeps, 5 * u64::from(cores));
    }
}
