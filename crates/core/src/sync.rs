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
//! stall rechecks) and the floor computation in `sync_ok`. Three mechanisms
//! keep the common case O(1) — see `DESIGN.md`, *Hot path & fast-path
//! invariants*, for the full determinism argument:
//!
//! * **Drift headroom** (`Cores::headroom_limit`): a successful spatial
//!   check caches `local_floor + T`; annotations below the bound defer the
//!   publish (`publish_pending`) and skip everything else. The deferral is
//!   invisible because only the token-holding activity can observe state,
//!   and every token yield or state read flushes first.
//! * **Incremental floors** (`Cores::floor_nb`): the neighbor minimum
//!   is maintained at publish time and only recomputed when a neighbor that
//!   may have been the minimum rose.
//! * **Waiter sets** (`Sim::waiters`): a stalled core registers on its
//!   argmin blocking neighbor (or its random referee); a rising publish
//!   rechecks only its registered waiters instead of every neighbor.
//!   Published *drops* (idle cores waking to an older working clock) are
//!   rare and sweep all stalled neighbors to re-derive registrations.

use crate::activity::ActivityState;
use crate::config::{PickPolicy, SyncPolicy};
use crate::engine::{push_ready, Shared, Sim};
use simany_time::{VDuration, VirtualTime};
use simany_topology::CoreId;

/// Run core `c`'s deferred publish, if any. Call before any code that can
/// observe published values or before the run token leaves `c`'s activity.
pub(crate) fn flush_deferred(sim: &mut Sim, shared: &Shared, c: CoreId) {
    if sim.cores.publish_pending[c.index()] {
        if sim.sanitizer.is_some() {
            // The deferred advance must have stayed inside the cached
            // headroom, or the fast path skipped a stall it owed.
            crate::sanitizer::verify_flush(sim, shared, c);
        }
        publish(sim, shared, c);
    }
}

/// Maintain neighbor floor caches and headroom bounds after core `x`'s
/// published value changed `old -> new`. Called at every individual
/// assignment (including intermediate relaxation steps) so the caches are
/// exact.
fn note_published_change(
    sim: &mut Sim,
    shared: &Shared,
    x: CoreId,
    old: VirtualTime,
    new: VirtualTime,
) {
    for &(m, _) in shared.topo.neighbors(x) {
        let i = m.index();
        if new < old {
            // A drop can only lower the minimum: the cache stays valid, but
            // any cached headroom may now overshoot the true floor.
            if sim.cores.floor_nb_valid[i] && new < sim.cores.floor_nb[i] {
                sim.cores.floor_nb[i] = new;
            }
            sim.cores.headroom_limit[i] = None;
        } else if sim.cores.floor_nb_valid[i] && sim.cores.floor_nb[i] == old {
            // x may have been the (possibly tied) minimum; recompute lazily.
            sim.cores.floor_nb_valid[i] = false;
        }
    }
}

/// Recompute and propagate the value core `c` exposes to its neighbors.
/// Call after any change to `c`'s clock or idle status. Triggers stall
/// re-checks on every core whose published value changed.
pub(crate) fn publish(sim: &mut Sim, shared: &Shared, c: CoreId) {
    let start = shared.config.profile_picks.then(std::time::Instant::now);
    publish_unprofiled(sim, shared, c);
    if let Some(start) = start {
        sim.stats.prof_publish_ns += start.elapsed().as_nanos() as u64;
    }
}

fn publish_unprofiled(sim: &mut Sim, shared: &Shared, c: CoreId) {
    sim.cores.publish_pending[c.index()] = false;
    if sim.cores.vtime[c.index()] > sim.max_vtime {
        sim.max_vtime = sim.cores.vtime[c.index()];
    }
    let spatial_t = match shared.config.sync {
        SyncPolicy::Spatial { t } => Some(t),
        _ => None,
    };
    let newval = match spatial_t {
        Some(t) if sim.cores.is_idle(c.index()) => shadow_value(sim, shared, c, t),
        _ => sim.cores.vtime[c.index()],
    };
    let oldval = sim.cores.published[c.index()];
    if sim.sanitizer.is_some() {
        // Every slow-path clock change passes through here before the run
        // token can return to the scheduler, so measuring overshoot (and
        // floor regressions on idle-to-working drops) at publish instants
        // covers every state the periodic scan can observe.
        crate::sanitizer::note_clock(sim, shared, c);
        if newval < oldval && !sim.cores.is_idle(c.index()) {
            crate::sanitizer::note_floor_regression(sim, newval);
        }
    }
    if newval == oldval {
        return;
    }
    sim.stats.publish_sweeps += 1;
    sim.cores.published[c.index()] = newval;
    sim.floor_dirty = true;
    // Global policies never run the shadow relaxation below, so this is
    // the only published-value change the incremental floor must see.
    note_floor_key(sim, c.index());
    note_published_change(sim, shared, c, oldval, newval);

    let Some(t) = spatial_t else {
        // Global policies: no shadow relaxation. Recheck c's neighbors and
        // every core watching c (its referee waiters) — the exact pre-
        // fast-path sequence, because RandomReferee rechecks consume the
        // engine RNG and are part of the deterministic schedule.
        for &(n, _) in shared.topo.neighbors(c) {
            recheck_stall(sim, shared, n);
        }
        take_waiters(sim, shared, c);
        return;
    };

    // Relax shadow values through idle regions until fixed point. The
    // shadow function is monotone in its inputs, so a worklist relaxation
    // converges; waves are short in practice (idle cores adjacent to
    // activity frontiers). Scratch buffers + visit stamps: no allocation
    // once the high-water capacity is reached.
    let mut changed = std::mem::take(&mut sim.scratch_changed);
    let mut work = std::mem::take(&mut sim.scratch_work);
    debug_assert!(changed.is_empty() && work.is_empty());
    sim.stamp_cur += 1;
    let stamp = sim.stamp_cur;
    sim.stamp[c.index()] = stamp;
    changed.push((c, oldval));
    for &(n, _) in shared.topo.neighbors(c) {
        if sim.cores.is_idle(n.index()) {
            work.push(n);
        }
    }
    while let Some(i) = work.pop() {
        let v = shadow_value(sim, shared, i, t);
        let old = sim.cores.published[i.index()];
        if v != old {
            sim.cores.published[i.index()] = v;
            note_published_change(sim, shared, i, old, v);
            if sim.stamp[i.index()] != stamp {
                sim.stamp[i.index()] = stamp;
                changed.push((i, old));
            }
            for &(n, _) in shared.topo.neighbors(i) {
                if sim.cores.is_idle(n.index()) {
                    work.push(n);
                }
            }
        }
    }
    sim.scratch_work = work;

    // Stall re-checks, post-fixpoint. A net rise of x can only unstall a
    // core registered on x (any stalled core is registered on its argmin
    // blocker, and a non-argmin rise cannot lift the minimum). A net drop
    // invalidates registrations, so it sweeps all of x's neighbors — each
    // failed recheck re-registers on the now-current argmin.
    for &(x, old) in &changed {
        let fin = sim.cores.published[x.index()];
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
    changed.clear();
    sim.scratch_changed = changed;
}

/// Empty core `x`'s waiter set and recheck every member. Duplicate entries
/// (a core that re-registered on `x` while a stale entry remained) are
/// skipped within one take via visit stamps, preserving the one-recheck-
/// per-member behavior of the old `contains`-deduplicated watcher lists.
fn take_waiters(sim: &mut Sim, shared: &Shared, x: CoreId) {
    if sim.waiters[x.index()].is_empty() {
        return;
    }
    let mut list = std::mem::take(&mut sim.scratch_waiters);
    std::mem::swap(&mut list, &mut sim.waiters[x.index()]);
    sim.stamp_cur += 1;
    let stamp = sim.stamp_cur;
    for &wid in &list {
        let w = CoreId(wid);
        if sim.stamp[w.index()] == stamp {
            continue;
        }
        sim.stamp[w.index()] = stamp;
        if sim.cores.waiting_on[w.index()] == Some(x) {
            sim.cores.waiting_on[w.index()] = None;
        }
        // Recheck stale entries too: under RandomReferee the old watcher
        // lists rechecked every taken entry regardless of the core's
        // current referee, and that recheck sequence drives the RNG.
        recheck_stall(sim, shared, w);
    }
    list.clear();
    sim.scratch_waiters = list;
}

/// Register `c` in `target`'s waiter set (dedup-free: `waiting_on` mirrors
/// the most recent registration, so a repeat registration on the same
/// target is a no-op without scanning the list).
fn register_waiter(sim: &mut Sim, c: CoreId, target: CoreId) {
    if sim.cores.waiting_on[c.index()] == Some(target) {
        return;
    }
    sim.cores.waiting_on[c.index()] = Some(target);
    sim.waiters[target.index()].push(c.0);
}

/// The shadow virtual time of idle core `i`: its own last clock maxed with
/// the minimum of its neighbors' published times plus `t`.
///
/// The `min + t` term is capped at `max_vtime + t`: no core's clock exceeds
/// `max_vtime`, so a published value at or above it can never be the
/// binding entry of a stall check — and without the cap the min-plus
/// relaxation has no fixed point in regions with no working core (idle
/// cores would push each other's shadows up forever).
fn shadow_value(sim: &mut Sim, shared: &Shared, i: CoreId, t: VDuration) -> VirtualTime {
    sim.stats.shadow_evals += 1;
    let min_neigh = shared
        .topo
        .neighbors(i)
        .iter()
        .map(|&(n, _)| sim.cores.published[n.index()])
        .min();
    match min_neigh {
        Some(m) => sim.cores.vtime[i.index()].max((m + t).min(sim.max_vtime + t)),
        None => sim.cores.vtime[i.index()],
    }
}

/// If `c`'s current activity is stalled and the synchronization condition
/// now holds, make it resumable and requeue the core.
pub(crate) fn recheck_stall(sim: &mut Sim, shared: &Shared, c: CoreId) {
    let Some(aid) = sim.cores.current[c.index()] else {
        return;
    };
    if !sim.act(aid).is_stalled() {
        return;
    }
    if sync_ok(sim, shared, c) {
        sim.act_mut(aid).state = ActivityState::Resumable;
        push_ready(sim, c);
    }
}

/// The global floor may have moved (`Sim::floor_dirty` was set): re-examine
/// the stalled cores of the policies whose stall condition is machine-wide.
/// Spatial synchronization needs nothing here — its wake conditions are
/// purely local and handled by neighbor publishes.
///
/// BoundedSlack/Conservative stall conditions are pure threshold checks
/// against the floor, so a floor move wakes exactly the cores whose
/// registered threshold it crossed. RandomReferee's recheck sequence
/// consumes the engine RNG, so it keeps the full core-order sweep: any
/// change to which cores get rechecked would change the deterministic
/// schedule (and its `sync_ok` is O(cores) anyway).
pub(crate) fn floor_moved(sim: &mut Sim, shared: &Shared) {
    match shared.config.sync {
        SyncPolicy::BoundedSlack { .. } | SyncPolicy::Conservative => {
            wake_stalled_by_floor(sim, shared)
        }
        SyncPolicy::RandomReferee { .. } => recheck_all_stalled(sim, shared),
        SyncPolicy::Spatial { .. } | SyncPolicy::Unbounded => {}
    }
}

/// Re-check every stalled activity in the machine, in core-id order.
fn recheck_all_stalled(sim: &mut Sim, shared: &Shared) {
    for i in 0..sim.cores.len() {
        recheck_stall(sim, shared, CoreId(i as u32));
    }
}

/// The local synchronization floor of core `c` under spatial
/// synchronization: the most-late neighbor's published time, also counting
/// the birth times of `c`'s in-flight spawned tasks as if they were
/// neighbors. The neighbor minimum comes from the incrementally maintained
/// cache; it is recomputed only when invalidated by a rising publish.
pub(crate) fn local_floor(sim: &mut Sim, shared: &Shared, c: CoreId) -> VirtualTime {
    if !sim.cores.floor_nb_valid[c.index()] {
        sim.count_floor_recompute(shared, c);
        let mut m = VirtualTime::MAX;
        for &(n, _) in shared.topo.neighbors(c) {
            m = m.min(sim.cores.published[n.index()]);
        }
        sim.cores.floor_nb[c.index()] = m;
        sim.cores.floor_nb_valid[c.index()] = true;
    }
    let mut floor = sim.cores.floor_nb[c.index()];
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
/// ([`crate::floor::GlobalFloor`]) when the policy allocates one — an
/// O(1) root read instead of an O(cores) sweep — and cross-checked
/// against the sweep in debug builds on every query.
pub(crate) fn global_floor(sim: &Sim) -> VirtualTime {
    if let Some(g) = &sim.gfloor {
        let floor = g.floor();
        debug_assert_eq!(
            floor,
            global_floor_naive(sim),
            "incremental global floor diverged from the naive sweep"
        );
        return floor;
    }
    global_floor_naive(sim)
}

/// The historical O(cores) global-floor sweep: oracle for the debug
/// cross-check above, the microbench baseline, and the fallback when no
/// incremental structure is allocated (RandomReferee's candidate sweep is
/// already O(cores), so it keeps the plain scan).
pub(crate) fn global_floor_naive(sim: &Sim) -> VirtualTime {
    let mut floor = VirtualTime::MAX;
    for i in 0..sim.cores.len() {
        if !sim.cores.is_idle(i) {
            floor = floor.min(sim.cores.published[i]);
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
/// core's published value, its idle status, or its birth ledger; those
/// are exactly the sites that set [`Sim::floor_dirty`].
pub(crate) fn note_floor_key(sim: &mut Sim, i: usize) {
    if sim.gfloor.is_none() {
        return;
    }
    let mut key = sim.cores.birth_floor(i);
    if !sim.cores.is_idle(i) {
        key = key.min(sim.cores.published[i]);
    }
    sim.gfloor
        .as_mut()
        .expect("gfloor checked above")
        .set(i, key);
}

/// Register stalled core `c` in the floor-threshold wake structure: once
/// the global floor reaches `threshold`, `c`'s synchronization condition
/// holds again and it must be rechecked. Entries are lazy — a core woken
/// by another path leaves a stale entry behind, and the recheck it later
/// triggers is a harmless no-op (`recheck_stall` is authoritative).
fn register_floor_wake(sim: &mut Sim, c: CoreId, threshold: VirtualTime) {
    sim.stall_wakes.push(std::cmp::Reverse((threshold, c.0)));
}

/// Wake exactly the stalled cores whose floor-threshold the (possibly
/// risen) global floor has crossed, in core-id order — the same wake set,
/// in the same order, as the historical all-core sweep
/// ([`recheck_all_stalled`]), without touching the cores still below
/// their bound. Thresholds only ever rise for a given stalled activity
/// (its clock is frozen while stalled), so popped entries never need
/// reinsertion here; a recheck that fails again re-registers itself from
/// `sync_ok`.
fn wake_stalled_by_floor(sim: &mut Sim, shared: &Shared) {
    if sim.stall_wakes.is_empty() {
        return;
    }
    let floor = global_floor(sim);
    let mut woken = std::mem::take(&mut sim.scratch_ready);
    woken.clear();
    while let Some(&std::cmp::Reverse((th, c))) = sim.stall_wakes.peek() {
        if th > floor && floor != VirtualTime::MAX {
            break;
        }
        sim.stall_wakes.pop();
        woken.push(c);
    }
    // Core-id order matches the old 0..n sweep; dedup collapses stale
    // duplicate registrations to the one recheck the sweep would do.
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

/// Is the fast path allowed under this configuration? Ready-queue insertion
/// order changes when unstalls are deferred to a flush point; only the
/// lowest-vtime heap is insensitive to it, so the other pick policies keep
/// the always-full path.
fn fast_path_eligible(shared: &Shared) -> bool {
    #[cfg(test)]
    if shared.config.full_sync_only {
        return false;
    }
    shared.config.pick == PickPolicy::LowestVtime
}

/// Does the synchronization policy allow core `c` to execute task code
/// right now?
///
/// Also maintains the max-drift statistic, the headroom cache, the waiter
/// registrations and the random-referee state.
pub(crate) fn sync_ok(sim: &mut Sim, shared: &Shared, c: CoreId) -> bool {
    // Lock waiver: a core holding a lock or inside a critical section is
    // temporarily exempt so it can release its resources (paper §II.B).
    // No headroom is cached here — the waiver is not a drift bound.
    if sim.cores.lock_depth[c.index()] > 0 {
        return true;
    }
    let vtime = sim.cores.vtime[c.index()];
    match shared.config.sync {
        SyncPolicy::Spatial { t } => {
            let floor = local_floor(sim, shared, c);
            if sim.sanitizer.is_some() {
                // Re-derive the floor from scratch: the decision below must
                // not rest on a corrupted incremental cache.
                crate::sanitizer::verify_spatial_floor(sim, shared, c, floor);
            }
            if floor == VirtualTime::MAX {
                // No neighbors, no births: nothing to drift from, ever.
                if fast_path_eligible(shared) {
                    sim.cores.headroom_limit[c.index()] = Some(VirtualTime::MAX);
                }
                return true;
            }
            let drift = vtime.saturating_since(floor);
            sim.note_neighbor_drift(shared, c, drift);
            if drift <= t {
                if fast_path_eligible(shared) {
                    sim.cores.headroom_limit[c.index()] = Some(floor + t);
                }
                true
            } else {
                sim.cores.headroom_limit[c.index()] = None;
                // Register on the argmin blocking *neighbor*, whose rise is
                // the only publish event that can lift the neighbor
                // minimum. A floor bound by a birth alone needs no
                // registration: `discard_birth` rechecks directly.
                let nb_floor = sim.cores.floor_nb[c.index()];
                if vtime.saturating_since(nb_floor) > t {
                    let argmin = shared
                        .topo
                        .neighbors(c)
                        .iter()
                        .map(|&(n, _)| n)
                        .find(|n| sim.cores.published[n.index()] == nb_floor);
                    if let Some(r) = argmin {
                        register_waiter(sim, c, r);
                    }
                }
                false
            }
        }
        SyncPolicy::BoundedSlack { window } => {
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
        SyncPolicy::Conservative => {
            let floor = global_floor(sim);
            if floor == VirtualTime::MAX || vtime <= floor {
                true
            } else {
                register_floor_wake(sim, c, vtime);
                false
            }
        }
        SyncPolicy::RandomReferee { slack } => loop {
            match sim.cores.referee[c.index()] {
                None => {
                    // Choose a random *working* core other than c. The
                    // candidate sweep reuses one scratch buffer across
                    // checks instead of allocating per pick.
                    let mut candidates = std::mem::take(&mut sim.scratch_ready);
                    candidates.clear();
                    candidates.extend(
                        (0..sim.cores.len() as u32)
                            .filter(|&i| i != c.0 && !sim.cores.is_idle(i as usize)),
                    );
                    if candidates.is_empty() {
                        sim.scratch_ready = candidates;
                        return true;
                    }
                    let pick = candidates[sim.rng.next_index(candidates.len())];
                    sim.scratch_ready = candidates;
                    sim.cores.referee[c.index()] = Some(CoreId(pick));
                }
                Some(r) => {
                    if sim.cores.is_idle(r.index()) {
                        // Referee retired; pick another next iteration.
                        sim.cores.referee[c.index()] = None;
                        continue;
                    }
                    if vtime.saturating_since(sim.cores.published[r.index()]) <= slack {
                        sim.cores.referee[c.index()] = None;
                        return true;
                    }
                    // Still too far ahead: watch the referee for changes.
                    register_waiter(sim, c, r);
                    return false;
                }
            }
        },
        SyncPolicy::Unbounded => true,
    }
}

/// Side-effect-free synchronization check against *frozen* published
/// values, for activities running confined inside an epoch (parallel
/// mode). During an epoch nothing publishes, so published values, floor
/// caches, birth ledgers and the global floor are all stable: the check
/// reads them without registering waiters, bumping machine-wide stall
/// statistics or touching the shared RNG. Returning `false` is always
/// safe — the activity parks and the coordinator's serial phase replays
/// the authoritative [`sync_ok`].
///
/// Mutations are confined to `c`'s own state and its tile's counter
/// shard: the headroom cache (same values the serial check would write,
/// since its inputs are frozen) and the max-drift statistic.
pub(crate) fn sync_ok_frozen(sim: &mut Sim, shared: &Shared, c: CoreId) -> bool {
    if sim.cores.lock_depth[c.index()] > 0 {
        // The waiver is not a drift bound, and inside an epoch even waiver
        // advances defer their publishes: drop any cached headroom so the
        // coordinator's flush-time sanitizer check cannot mistake them for
        // fast-path overshoot. The next real check recomputes it.
        sim.cores.headroom_limit[c.index()] = None;
        return true;
    }
    let vtime = sim.cores.vtime[c.index()];
    match shared.config.sync {
        SyncPolicy::Spatial { t } => {
            // Published values are frozen for the whole epoch, so even the
            // neighbor sweep behind an invalidated floor cache is
            // side-effect-free here: it reads frozen values, writes `c`'s
            // own cache and counts on `c`'s tile shard — exactly what the
            // serial check would do. (Sanitizer floor verification and
            // waiter registration stay on the serial path; a failing core
            // parks and replays the authoritative check there.)
            let floor = local_floor(sim, shared, c);
            if floor == VirtualTime::MAX {
                if fast_path_eligible(shared) {
                    sim.cores.headroom_limit[c.index()] = Some(VirtualTime::MAX);
                }
                return true;
            }
            let drift = vtime.saturating_since(floor);
            sim.note_neighbor_drift(shared, c, drift);
            if drift <= t {
                if fast_path_eligible(shared) {
                    sim.cores.headroom_limit[c.index()] = Some(floor + t);
                }
                true
            } else {
                sim.cores.headroom_limit[c.index()] = None;
                false
            }
        }
        SyncPolicy::BoundedSlack { window } => {
            let floor = global_floor(sim);
            floor == VirtualTime::MAX || vtime.saturating_since(floor) <= window
        }
        SyncPolicy::Conservative => {
            let floor = global_floor(sim);
            floor == VirtualTime::MAX || vtime <= floor
        }
        // Referee selection and rechecks consume the engine RNG, which is
        // part of the deterministic serial schedule: never confined.
        SyncPolicy::RandomReferee { .. } => false,
        SyncPolicy::Unbounded => true,
    }
}

#[cfg(test)]
mod tests {
    use crate::{
        simulate, CoreId, EngineConfig, Envelope, ExecCtx, Ops, Payload, RuntimeHooks, SimStats,
        SyncPolicy, VDuration,
    };
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
    fn run(sync: SyncPolicy, threads: u32, full_sync_only: bool) -> SimStats {
        let n = 16u32;
        let mut config = EngineConfig::default().with_seed(11).with_threads(threads);
        config.sync = sync;
        config.full_sync_only = full_sync_only;
        simulate(
            simany_topology::mesh_2d(n),
            config,
            Arc::new(AdvanceOnMessage),
            move |ops| {
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
                                    ctx.send(CoreId((c + n / 2) % n), 32, Payload::none());
                                }
                            }
                        }),
                    );
                }
            },
        )
        .expect("simulation failed")
    }

    /// Everything a schedule divergence would show up in. The fast path's
    /// own counters (`fast_path_advances`, `full_sync_checks`,
    /// `publish_sweeps`, `floor_recomputes`) are what it exists to change,
    /// and `max_neighbor_drift` is sampled only at the checks it skips.
    fn fingerprint(s: &SimStats) -> [u64; 9] {
        [
            s.final_vtime.ticks(),
            s.scheduler_picks,
            s.stall_events,
            s.activity_resumes,
            s.late_messages,
            s.on_time_messages,
            s.late_by_total.ticks(),
            s.net.messages,
            s.parallel_epochs,
        ]
    }

    /// The drift-headroom fast path is an optimization, not a semantic
    /// change: the same program with it forced off reaches the same
    /// schedule under every policy, on both engines.
    #[test]
    fn fast_path_is_bit_exact_with_the_full_path() {
        let w = VDuration::from_cycles(100);
        let policies = [
            SyncPolicy::Spatial { t: w },
            SyncPolicy::BoundedSlack { window: w },
            SyncPolicy::RandomReferee { slack: w },
            SyncPolicy::Conservative,
            SyncPolicy::Unbounded,
        ];
        for policy in policies {
            for threads in [1, 4] {
                let fast = run(policy, threads, false);
                let full = run(policy, threads, true);
                assert_eq!(
                    fingerprint(&fast),
                    fingerprint(&full),
                    "{policy:?}, threads={threads}: fast path changed the schedule"
                );
                assert_eq!(full.fast_path_advances, 0, "fast path fired while off");
                if matches!(policy, SyncPolicy::Spatial { .. }) {
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
    }
}
