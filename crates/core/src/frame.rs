//! Lock-free frame coordination for parallel host execution.
//!
//! The PR 5 epoch coordinator woke one worker per tile through a condvar
//! and slept on `Mutex<Sim>` until a counter under the same lock hit zero:
//! every epoch paid one lock round-trip per tile just to start, and the
//! coordinator held the simulation mutex for the whole concurrent phase.
//! This module replaces that handoff with a simulon-style *frame* protocol
//! built from three atomics and a pair of parking condvars:
//!
//! * [`FrameSync::launch`] publishes a frame: a list of claimable tiles,
//!   the per-tile work lanes, and an `outstanding` member count. Workers
//!   observe the bumped `frame` counter (spin first, park after a budget).
//! * Workers *claim* tiles off an atomic `cursor` with one `fetch_add`
//!   each — no condvar, no lock, no coordinator involvement. The cursor
//!   packs `(frame, index)` into one word so a worker that was descheduled
//!   across a frame boundary can never mistake a stale index for current
//!   work (see [`FrameSync::claim`]).
//! * Each piece of work *retires* by decrementing `outstanding`; the last
//!   decrement wakes the coordinator, which parked on a condvar of its own
//!   — crucially *not* on the simulation mutex, so phase A runs with no
//!   `Mutex<Sim>` held by anyone but the activities' own brief locked
//!   interactions.
//!
//! ## Lanes and the `UnsafeCell` ownership discipline
//!
//! Per-tile scratch ([`LaneState`]) lives in `UnsafeCell` slots indexed by
//! tile. No lock guards them; soundness is a strict ownership handoff:
//!
//! * **Between frames** the coordinator owns every lane. `outstanding`
//!   reaching zero is the handoff point: every worker's lane writes are
//!   sequenced before its `retire` (an `AcqRel` read-modify-write on
//!   `outstanding`), the RMWs form a release sequence, and the
//!   coordinator's `Acquire` read of zero synchronizes with all of them.
//! * **During a frame** each tile's lane has exactly one accessor: the
//!   worker that claimed it off the cursor — for itself and for the member
//!   bodies it runs, which execute on that worker's thread (each on its
//!   own [`crate::coro`] context, which the lane entry lends the claimant
//!   along with the lane). The claim's `AcqRel` `fetch_add`
//!   reads (a successor of) the coordinator's `Release` cursor store, so
//!   the lane contents published at launch are visible. The claimant's
//!   ownership ends with the `retire` that takes the tile's last member
//!   off `outstanding`: it retires a tile once, after its last look at
//!   the lane.
//!
//! Worker *identities* (who claimed which tile, who spun vs parked) are
//! racy and are only ever folded into diagnostics counters that no digest,
//! fingerprint or CI diff includes.

use crate::activity::{ActivityId, TaskFn};
use crate::coro::Context;
use crate::engine::{EpochPending, OutMsg};
use parking_lot::{Condvar, Mutex};
use simany_time::VDuration;
use simany_topology::CoreId;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// Bits of the packed cursor word that hold the claim index; the rest hold
/// the frame generation. 24 bits bound the tile count (and the per-frame
/// claim overrun, one failed `fetch_add` per worker) far above any real
/// configuration, while 40 frame bits make generation wraparound
/// unreachable (decades at a microsecond per frame).
const IDX_BITS: u32 = 24;
const IDX_MASK: u64 = (1 << IDX_BITS) - 1;

#[inline]
fn pack(frame: u64, idx: u64) -> u64 {
    debug_assert!(idx <= IDX_MASK);
    (frame << IDX_BITS) | idx
}

#[inline]
fn unpack(v: u64) -> (u64, u64) {
    (v >> IDX_BITS, v & IDX_MASK)
}

/// An epoch member, extracted by the collector so that the tile's claimant
/// can run it without touching `Mutex<Sim>`.
pub(crate) struct Member {
    pub(crate) aid: ActivityId,
    pub(crate) core: CoreId,
    pub(crate) name: &'static str,
    /// The member's context in the run's pool, lent to the claimant for
    /// the frame (the pool outlives every frame worker).
    pub(crate) ctx: *const Context,
    /// Its closure, if it has never run; `None` for a body suspended on
    /// `ctx` by an earlier grant.
    pub(crate) job: Option<TaskFn>,
}

/// Per-tile scratch, owned per the handoff discipline in the module docs.
#[derive(Default)]
pub(crate) struct LaneState {
    /// Members to execute this frame, in deterministic stash order: up to
    /// `MEMBERS_PER_TILE` never-run ones, or one suspended body.
    pub(crate) queue: VecDeque<Member>,
    /// Members stranded by a park or panic ahead of them in `queue`; the
    /// coordinator reverts them to `Pending` for a later epoch.
    pub(crate) spilled: Vec<Member>,
    /// Serial-phase work in tile execution order (finishes, parks, panics).
    pub(crate) pending: Vec<EpochPending>,
    /// Messages sent by this tile's members, in program order.
    pub(crate) outbox: Vec<OutMsg>,
    /// End-of-body confined-advance flushes `(core, delta, annotations)`
    /// recorded lock-free; the coordinator lands them at phase B start.
    pub(crate) flushes: Vec<(CoreId, VDuration, u64)>,
}

struct Lane(UnsafeCell<LaneState>);

/// The lock-free frame coordinator (one per parallel simulation).
pub(crate) struct FrameSync {
    /// Frame generation; bumped with `Release` to publish a frame.
    frame: AtomicU64,
    /// Packed `(frame, next claim index)`; the claim gate.
    cursor: AtomicU64,
    /// Packed `(frame, claimable length)`, published before `cursor`.
    claim_info: AtomicU64,
    /// Un-retired members of the in-flight frame.
    outstanding: AtomicUsize,
    shutdown: AtomicBool,
    /// Fixed-capacity claimable-tile slots (capacity = tile count), so a
    /// stale reader can never observe a reallocation.
    claimable: Box<[AtomicU32]>,
    lanes: Box<[Lane]>,
    /// Spin iterations before parking (0 when the host has fewer CPUs
    /// than worker threads — spinning there only steals cycles from the
    /// thread being waited on).
    spin_budget: u32,
    gate: Mutex<()>,
    gate_cv: Condvar,
    coord: Mutex<()>,
    coord_cv: Condvar,
    /// `(worker index, tiles claimed, frame spins, frame parks)`, folded
    /// by each worker at thread exit. Diagnostics only — nondeterministic.
    worker_stats: Mutex<Vec<(usize, u64, u64, u64)>>,
}

// SAFETY: the `UnsafeCell` fields — and the contexts the lane entries
// point to — follow the single-owner-per-frame handoff discipline
// documented in the module docs, which is the one-driver-at-a-time rule of
// `crate::coro`; everything else is atomics and locks.
unsafe impl Send for FrameSync {}
unsafe impl Sync for FrameSync {}

impl FrameSync {
    pub(crate) fn new(n_tiles: usize, threads: u32) -> FrameSync {
        assert!(
            (n_tiles as u64) < IDX_MASK,
            "tile count overflows claim index"
        );
        let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
        let spin_budget = if host_cpus > threads as usize {
            4096
        } else {
            0
        };
        FrameSync {
            frame: AtomicU64::new(0),
            cursor: AtomicU64::new(0),
            claim_info: AtomicU64::new(0),
            outstanding: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            claimable: (0..n_tiles).map(|_| AtomicU32::new(0)).collect(),
            lanes: (0..n_tiles)
                .map(|_| Lane(UnsafeCell::new(LaneState::default())))
                .collect(),
            spin_budget,
            gate: Mutex::new(()),
            gate_cv: Condvar::new(),
            coord: Mutex::new(()),
            coord_cv: Condvar::new(),
            worker_stats: Mutex::new(Vec::new()),
        }
    }

    /// Tile `t`'s lane.
    ///
    /// # Safety
    /// The caller must be the lane's current owner per the handoff
    /// discipline: the coordinator between frames, the tile's unique
    /// claimant during one.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn lane_mut(&self, t: usize) -> &mut LaneState {
        &mut *self.lanes[t].0.get()
    }

    /// Publish a frame: `members` pieces of work spread over the tiles in
    /// `claimable`, which workers claim off the cursor. Lane contents must
    /// be fully written before the call.
    pub(crate) fn launch(&self, members: usize, claimable: &[u32]) {
        debug_assert!(!claimable.is_empty() && claimable.len() <= self.claimable.len());
        self.outstanding.store(members, Ordering::Relaxed);
        for (slot, &t) in self.claimable.iter().zip(claimable) {
            slot.store(t, Ordering::Relaxed);
        }
        let f = self.frame.load(Ordering::Relaxed) + 1;
        // Publication order matters: lanes and slots are written above,
        // then `claim_info`, then the cursor reset, then the gate bump.
        // A worker's claim reads (a successor of) the cursor store with
        // `AcqRel`, acquiring everything written before it.
        self.claim_info
            .store(pack(f, claimable.len() as u64), Ordering::Release);
        self.cursor.store(pack(f, 0), Ordering::Release);
        self.frame.store(f, Ordering::Release);
        drop(self.gate.lock());
        self.gate_cv.notify_all();
    }

    /// Claim the next tile of the current frame, or `None` when the frame
    /// is exhausted (or the caller raced a frame boundary and should go
    /// back to [`Self::wait_frame`]).
    pub(crate) fn claim(&self) -> Option<usize> {
        let v = self.cursor.fetch_add(1, Ordering::AcqRel);
        let (f, i) = unpack(v);
        let (fi, len) = unpack(self.claim_info.load(Ordering::Acquire));
        // The frame tags close the descheduled-claimant race: an index is
        // only meaningful against the claimable list of its own frame. A
        // mismatch means our increment landed on a dying frame's cursor
        // (the coordinator's reset overwrites it; nothing is lost) or the
        // list we can see is not ours — either way, don't execute.
        if f != fi || i >= len {
            return None;
        }
        Some(self.claimable[i as usize].load(Ordering::Relaxed) as usize)
    }

    /// Retire `n` pieces of frame work; the last retirement wakes the
    /// coordinator. All lane writes of the retiring thread are sequenced
    /// before this call (release via the `AcqRel` RMW).
    pub(crate) fn retire(&self, n: usize) {
        if self.outstanding.fetch_sub(n, Ordering::AcqRel) == n {
            // Empty critical section: pairs with the predicate re-check
            // under `coord`, closing the decide-then-sleep race.
            drop(self.coord.lock());
            self.coord_cv.notify_one();
        }
    }

    /// Coordinator: wait until every member of the launched frame retired.
    pub(crate) fn wait_quiescent(&self) {
        for _ in 0..self.spin_budget {
            if self.outstanding.load(Ordering::Acquire) == 0 {
                return;
            }
            std::hint::spin_loop();
        }
        let mut g = self.coord.lock();
        while self.outstanding.load(Ordering::Acquire) != 0 {
            self.coord_cv.wait(&mut g);
        }
    }

    /// Worker: wait for a frame newer than `last`, spinning up to the
    /// budget before parking on the gate. Returns the new frame number, or
    /// `None` at shutdown. `spins`/`parks` count how each wait resolved.
    pub(crate) fn wait_frame(&self, last: u64, spins: &mut u64, parks: &mut u64) -> Option<u64> {
        for _ in 0..self.spin_budget {
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            let f = self.frame.load(Ordering::Acquire);
            if f != last {
                *spins += 1;
                return Some(f);
            }
            std::hint::spin_loop();
        }
        let mut g = self.gate.lock();
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            let f = self.frame.load(Ordering::Acquire);
            if f != last {
                *parks += 1;
                return Some(f);
            }
            self.gate_cv.wait(&mut g);
        }
    }

    /// Wake every gate-parked worker for teardown.
    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        drop(self.gate.lock());
        self.gate_cv.notify_all();
    }

    /// Fold a worker's lifetime counters; called once at thread exit.
    pub(crate) fn fold_worker_stats(&self, idx: usize, claimed: u64, spins: u64, parks: u64) {
        self.worker_stats.lock().push((idx, claimed, spins, parks));
    }

    /// Harvest the folded worker counters (teardown, after joins).
    pub(crate) fn take_worker_stats(&self) -> Vec<(usize, u64, u64, u64)> {
        std::mem::take(&mut *self.worker_stats.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip() {
        for (f, i) in [(0u64, 0u64), (1, 3), (1 << 39, IDX_MASK - 1)] {
            assert_eq!(unpack(pack(f, i)), (f, i));
        }
    }

    #[test]
    fn claim_is_frame_tagged() {
        let fs = FrameSync::new(4, 2);
        // No frame launched: claims fail.
        assert_eq!(fs.claim(), None);
        fs.launch(2, &[1, 3]);
        assert_eq!(fs.claim(), Some(1));
        assert_eq!(fs.claim(), Some(3));
        assert_eq!(fs.claim(), None);
        fs.retire(1);
        fs.retire(1);
        fs.wait_quiescent();
        // Next frame invalidates leftover indices even though the cursor
        // overran: the tag differs.
        fs.launch(1, &[0]);
        assert_eq!(fs.claim(), Some(0));
        assert_eq!(fs.claim(), None);
        fs.retire(1);
        fs.wait_quiescent();
    }
}
