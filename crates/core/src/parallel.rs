//! Parallel host execution: the epoch coordinator (`threads > 1`).
//!
//! The topology is partitioned into contiguous tiles
//! ([`simany_topology::partition_bfs`]); the scheduler loop is replaced by
//! an *epoch* cycle that alternates a serial phase with a confined
//! concurrent phase:
//!
//! 1. **Collect** (serial): drive the pick front-end shared with the
//!    sequential loop ([`crate::engine::PickLoop`]: checkpoints, watchdog,
//!    sanitizer, message processing, idle transitions), with a grant that,
//!    instead of running each runnable activity exclusively, *stashes* it
//!    into a batch of up to `MEMBERS_PER_TILE` activities per tile. All of
//!    a tile's members execute from a single worker's queue, so their
//!    effects keep a deterministic order; an activity suspended by an
//!    earlier grant claims its tile alone. Extra grantable activities on
//!    full tiles are deferred to the next epoch.
//! 2. **Phase A** (concurrent, lock-free coordination): publish the batch
//!    as a *frame* ([`crate::frame::FrameSync`]): the
//!    coordinator fills each tile's lane with its queued members, bumps an
//!    atomic frame counter and **releases the simulation lock**. Frame
//!    workers — a fixed pool of `min(threads, tiles)` — spin/park on the
//!    counter and claim tiles off an atomic cursor — no condvar wake per
//!    tile, no `Mutex<Sim>` on the coordination path. A worker starts or
//!    resumes each member on the member's own context
//!    ([`crate::engine::run_body`]). Each activity runs its task code natively,
//!    *confined* to mutating its own core: publishes are deferred, sends
//!    are pushed into the tile's lane outbox (lock-free while the
//!    confined cache is armed), synchronization checks run
//!    side-effect-free against frozen published values
//!    ([`crate::sync::sync_ok_frozen`]), and annotations that stay inside
//!    the frozen drift headroom advance the clock without taking the
//!    simulation lock at all (see `Confined` in [`crate::ctx`]).
//!    Completions deposit into the lane and retire from an atomic
//!    countdown — also lock-free. Anything needing shared state *parks*:
//!    the body switches back to its worker, which leaves an
//!    [`EpochPending`] entry and goes on claiming; a parked member's
//!    queued successors are spilled into the lane and revert to `Pending`
//!    at phase B. The countdown reaching zero wakes the coordinator.
//! 3. **Phase B** (serial, on the coordinator): once every member has
//!    parked or finished, apply the cross-core effects in tile order, in
//!    one walk: land the batched confined advances, flush every batch
//!    core's deferred publish ([`crate::sync::flush_deferred`]), route each
//!    lane's buffered sends through the shared network model and
//!    [`crate::engine::deliver`] them, then run the serial tail — park
//!    resolution (parked activities re-granted the token *exclusively*,
//!    one at a time, by the sequential engine's own
//!    [`crate::engine::grant`], replaying the authoritative sequential
//!    logic), finishes and panics — and requeue the batch.
//!
//! ## Determinism
//!
//! Everything that can influence another core serializes through phase B
//! in tile order. Within a tile, order is a single claimant's execution
//! order over a deterministically collected lane queue, so phase B's walk
//! is a pure function of the batch — not of thread scheduling. Worker
//! *identities* are the only racy quantity (which worker wins a claim is a
//! host race), and they are never observable: no statistic a digest
//! covers, trace, or simulation outcome depends on which OS thread runs an
//! activity (the spin/park/claim diagnostics in [`crate::stats::SimStats`]
//! are explicitly excluded). Fixed `--threads N` + seed therefore
//! reproduces bit-identically as long as task bodies share no native state
//! (bodies that do, like Dijkstra's shared distance array, race on it in
//! phase A; see DESIGN.md §5). `threads <= 1` never constructs a partition
//! at all — it runs the sequential grant.
//!
//! ## What an epoch buys
//!
//! A sequential grant costs two register swaps on one thread and no system
//! call (see the `engine` module docs), so the epoch machinery cannot win
//! on hand-offs saved: an epoch of `B` confined grants costs one frame
//! launch (one atomic store + one `notify_all`, and none at all for workers
//! inside their spin budget) plus one coordinator wakeup; a member that
//! needs the serial phase (failed checks, compound `Ops`) costs two more
//! register swaps, on the coordinator — what the sequential engine pays
//! for the same grant. What an epoch buys is overlap and lock avoidance:
//! confined annotations inside the frozen drift headroom skip the
//! simulation lock entirely; with the lane outbox, so do confined sends.
//! On multi-CPU hosts phase A overlaps the native task bodies; phase B is
//! the sequential engine's own publish and delivery code. Whether that
//! pays on a given host is a measurement, not a given: EXPERIMENTS.md
//! records where it does not.

use crate::activity::{ActivityId, ActivityState};
use crate::coro::Pool;
use crate::engine::{
    context_of, deliver, finish_activity, grant, is_ready, push_ready, EpochPending, Failure,
    PickLoop, Picked, Shared, Sim, Token,
};
use crate::frame::Member;
use crate::sync;
use parking_lot::MutexGuard;
use simany_topology::CoreId;
use std::sync::Arc;
use std::time::Instant;

/// Most members one tile contributes to one epoch. A tile's members all
/// run from a single worker's queue (one claim for the lot), so deeper
/// queues amortize the scheduler round trips further; the cap
/// bounds how much work one epoch defers ahead of the serial phase's
/// checkpoint/sanitizer/watchdog bookkeeping.
const MEMBERS_PER_TILE: usize = 8;

/// Stash `aid` into the running batch: mark it granted *now* so the
/// collection loop cannot pick it (or its core) again before the epoch
/// launches, and count the resume exactly where a sequential grant would.
fn stash_grant(sim: &mut Sim, batch: &mut Vec<ActivityId>, aid: ActivityId) {
    sim.act_mut(aid).state = ActivityState::Granted;
    sim.stats.activity_resumes += 1;
    batch.push(aid);
}

/// Try to claim `aid` for the running batch on tile `t`; returns false if
/// the tile cannot take it this epoch (the caller defers it). A tile takes
/// up to `MEMBERS_PER_TILE` never-run activities, or one that an earlier
/// grant left suspended — that one claims the tile alone.
fn try_stash(
    sim: &mut Sim,
    batch: &mut Vec<ActivityId>,
    members: &mut Vec<ActivityId>,
    aid: ActivityId,
) -> bool {
    let suspended = |a: ActivityId| sim.act(a).job.is_none();
    let fits = match members.first() {
        None => true,
        Some(&first) => !suspended(first) && !suspended(aid) && members.len() < MEMBERS_PER_TILE,
    };
    if fits {
        members.push(aid);
        stash_grant(sim, batch, aid);
    }
    fits
}

/// The parallel scheduler loop: the shared pick front-end with an epoch
/// grant (see the module docs for the epoch protocol). Takes and returns
/// the simulation guard — phase A releases the lock — so `simulate` runs
/// the common teardown.
pub(crate) fn run_scheduler<'a>(
    shared: &'a Arc<Shared>,
    mut sim: MutexGuard<'a, Sim>,
    picks: &mut PickLoop,
    pool: &mut Pool,
) -> MutexGuard<'a, Sim> {
    let n_tiles = shared.partition.as_ref().map_or(1, |p| p.n_tiles());

    let mut batch: Vec<ActivityId> = Vec::new();
    let mut deferred: Vec<CoreId> = Vec::new();
    let mut tile_members: Vec<Vec<ActivityId>> = vec![Vec::new(); n_tiles];
    // The claimable-tile list handed to each frame.
    let mut claimable: Vec<u32> = Vec::new();
    let mut phase_a_ns: u64 = 0;
    let mut phase_b_ns: u64 = 0;
    let mut serial_tail_ns: u64 = 0;

    'run: loop {
        // ------------------------------------------------------ collect
        // Stashed and deferred cores stay out of the ready queue until the
        // epoch's serial phase re-pushes them (`dispatch` never requeues a
        // granted core):
        // re-queuing a core whose activity is already claimed would either
        // re-defer it forever or reorder its messages around the pending
        // grant. A deferral implies a non-empty batch, so `Drained` always
        // has something to launch.
        loop {
            match picks.next(&mut sim, shared, batch.len() + deferred.len()) {
                Picked::Core(c) => picks.dispatch(&mut sim, shared, c, |sim, c, aid| {
                    if !try_stash(sim, &mut batch, &mut tile_members[shared.tile_of(c)], aid) {
                        deferred.push(c);
                    }
                }),
                Picked::Drained => break, // launch what we have
                Picked::Stop => break 'run,
            }
            if batch.len() == n_tiles * MEMBERS_PER_TILE {
                break; // full house: every tile is at capacity
            }
        }

        // ------------------------------------------------------ phase A
        // Members sorted by tile: phase B walks them in tile order by
        // construction and the lane fill order is deterministic (it is not
        // observable either way, but determinism-by-construction is
        // cheaper to audit than determinism-by-argument). The sort is
        // stable, so a tile's members keep their stash order — the order
        // their claimant executes them in.
        batch.sort_by_key(|&aid| shared.tile_of(sim.act(aid).core));
        sim.stats.parallel_epochs += 1;
        sim.stats.epoch_grants += batch.len() as u64;
        let fs = shared.frame.as_ref().expect("parallel mode without frames");
        claimable.clear();
        for (t, members) in tile_members.iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            // SAFETY: no frame is in flight (the previous one quiesced
            // before phase B and the next launches below), so the
            // coordinator is the only lane accessor.
            let lane = unsafe { fs.lane_mut(t) };
            debug_assert!(lane.queue.is_empty() && lane.spilled.is_empty());
            for &aid in members {
                let act = sim.act_mut(aid);
                let slot = match context_of(act, pool) {
                    Ok(slot) => slot,
                    Err(failure) => {
                        sim.failure.get_or_insert(failure);
                        break 'run;
                    }
                };
                lane.queue.push_back(Member {
                    aid,
                    core: act.core,
                    name: act.name,
                    ctx: pool.get(slot),
                    job: act.job.take(),
                });
            }
            claimable.push(t as u32);
        }
        sim.token = Token::Epoch;
        let ta = Instant::now();
        fs.launch(batch.len(), &claimable);
        // The whole point: the coordinator drops the simulation lock for
        // the duration of phase A. Workers coordinate through the frame's
        // atomics alone and only take the lock at interaction points.
        drop(sim);
        fs.wait_quiescent();
        sim = shared.sim.lock();
        phase_a_ns += ta.elapsed().as_nanos() as u64;
        sim.token = Token::Scheduler;

        // ------------------------------------------------------ phase B
        let tb = Instant::now();
        // 0. Land the lock-free residue of phase A, in tile order: batched
        //    confined advances whose member completed without another
        //    locked interaction (bit-exact: no phase-A reader observes
        //    another core's raw clock, so landing the flush here instead
        //    of at member completion is unobservable), and members
        //    stranded behind a park — they revert to `Pending` (keeping
        //    the context they never ran on) and simply get picked again.
        let mut ran = batch.len() as u64;
        for t in 0..n_tiles {
            // SAFETY: the frame quiesced; the coordinator is the only lane
            // accessor until the next launch.
            let lane = unsafe { fs.lane_mut(t) };
            for (c, d, n) in lane.flushes.drain(..) {
                sim.cores.advance(c.index(), d);
                sim.cores.publish_pending[c.index()] = true;
                sim.count_fast_path_n(shared, c, n);
            }
            for m in lane.spilled.drain(..) {
                let act = sim.act_mut(m.aid);
                debug_assert!(matches!(act.state, ActivityState::Granted) && m.job.is_some());
                act.state = ActivityState::Pending;
                act.job = m.job;
                sim.stats.activity_resumes -= 1;
                ran -= 1;
            }
        }
        // Each member that ran cost a switch to its body and one back.
        sim.stats.ctx_switches += 2 * ran;
        // 1. Boundary-clock publication: flush the deferred publishes of
        //    every batch core, in tile order. This is the one point where
        //    an epoch's clock advances become visible to other tiles.
        for &aid in &batch {
            if let Some(act) = sim.acts.get(&aid.0) {
                let c = act.core;
                sync::flush_deferred(&mut sim, shared, c);
            }
        }
        // 2. Cross-tile messages: route the buffered sends through the
        //    shared network model and deliver them, tile by tile (within a
        //    tile the lane preserves the sending activity's program order,
        //    so per-sender FIFO holds). Routing consumes the global send
        //    sequence and link occupancy, so the order is the schedule.
        for t in 0..n_tiles {
            // SAFETY: frame quiescent; the coordinator is the only lane
            // accessor until the next launch.
            let lane = unsafe { fs.lane_mut(t) };
            for m in lane.outbox.drain(..) {
                let env = sim.net.send(m.src, m.dst, m.size_bytes, m.sent, m.payload);
                deliver(&mut sim, shared, env);
            }
        }
        // 3. The serial tail: pending entries drained in tile order. A
        //    tile can contribute several entries (its members' completions
        //    and at most one park, after which the rest of its queue
        //    spilled); they were pushed by the tile's single claimant in
        //    execution order, so the drain order is deterministic.
        let tt = Instant::now();
        for t in 0..n_tiles {
            // SAFETY: frame quiescent; sole accessor. Detached so the
            // re-granted activities below (which run arbitrary interaction
            // code) can never observe a half-drained lane.
            let mut pending = std::mem::take(&mut (unsafe { fs.lane_mut(t) }).pending);
            for p in pending.drain(..) {
                match p {
                    EpochPending::Resume(aid) => {
                        if sim.failure.is_some() {
                            // Leave it parked; teardown unwinds it.
                            continue;
                        }
                        // Re-grant exclusively, here on the coordinator:
                        // the activity replays the authoritative
                        // sequential logic it could not run confined
                        // (publish + drain + policy check with its stall
                        // bookkeeping, or the compound operation) and
                        // runs under the ordinary token protocol until it
                        // yields — by stalling, blocking or finishing.
                        debug_assert!(matches!(sim.act(aid).state, ActivityState::Parked));
                        sim.act_mut(aid).state = ActivityState::Granted;
                        grant(shared, &mut sim, pool, aid);
                    }
                    EpochPending::Finish(aid) => finish_activity(&mut sim, shared, pool, aid),
                    EpochPending::Panic { core, name, msg } => {
                        if sim.failure.is_none() {
                            sim.failure = Some(Failure::TaskPanic {
                                core,
                                at: sim.cores.vtime[core.index()],
                                name,
                                msg,
                            });
                        }
                    }
                }
            }
            unsafe { fs.lane_mut(t) }.pending = pending; // keep the capacity
        }
        serial_tail_ns += tt.elapsed().as_nanos() as u64;
        phase_b_ns += tb.elapsed().as_nanos() as u64;

        // 4. Requeue: batch cores first (tile order — including members
        //    spilled from a parked worker's queue, which reverted to
        //    `Pending` and simply get picked again), then the grants
        //    deferred during collection (pick order).
        for &aid in &batch {
            let c = match sim.acts.get(&aid.0) {
                Some(act) => act.core,
                None => continue, // finished; finish_activity requeued it
            };
            if is_ready(&sim, c) {
                push_ready(&mut sim, c);
            }
        }
        for &c in &deferred {
            if is_ready(&sim, c) {
                push_ready(&mut sim, c);
            }
        }
        deferred.clear();
        batch.clear();
        for members in &mut tile_members {
            members.clear();
        }
    }

    sim.stats.phase_a_wall_ns = phase_a_ns;
    sim.stats.phase_b_wall_ns = phase_b_ns;
    sim.stats.serial_tail_ns = serial_tail_ns;
    sim
}
