//! `ExecCtx` — the interaction API available to task code.
//!
//! A task body is ordinary Rust code that runs natively between
//! interactions. Each `ExecCtx` method briefly acquires the simulation
//! lock, performs the interaction (advance the clock, send a message,
//! block...), applies the synchronization policy and returns — possibly
//! after giving the CPU away while the core is stalled, blocked or parked:
//! a switch from the body's context back to whoever granted it (see
//! [`crate::coro`]). All waiting happens here; runtime hooks never block.

use crate::activity::{ActivityId, ActivityState};
use crate::coro::Context;
use crate::engine::{is_ready, push_ready, Shared, ShutdownSignal, Sim, Token};
use crate::ops::Ops;
use crate::sync;
use parking_lot::MutexGuard;
use simany_net::Payload;
use simany_time::{BlockCost, CoreSpeed, VDuration, VirtualTime};
use simany_topology::CoreId;
use std::any::Any;
use std::cell::Cell;
use std::sync::Arc;

/// Lock-free confined-advance cache (parallel epochs only).
///
/// While an activity runs confined inside an epoch (`Token::Epoch`), every
/// input of the drift-headroom fast-path check is frozen until the epoch
/// quiesces: no deliveries land in its inbox, no publishes move its
/// neighbors, no policy re-evaluation can shrink its headroom, and nothing
/// may observe its unpublished clock. So once a locked annotation takes the
/// fast path, subsequent annotations that stay inside the same bounds only
/// touch this core's own clock — they can advance a private copy without
/// the simulation lock, and the batched delta is folded back into `Sim` at
/// the next locked interaction (or when the task body returns). On a
/// contended host this removes the per-annotation lock round-trip that
/// otherwise serializes phase A.
struct Confined {
    active: Cell<bool>,
    /// Private copy of this core's clock (authoritative while `active`).
    vtime: Cell<VirtualTime>,
    /// Frozen drift-headroom bound (`Cores::headroom_limit`).
    limit: Cell<VirtualTime>,
    /// Frozen earliest inbox arrival; a lock-free advance must stay short
    /// of it (reaching a due message needs the authoritative drain).
    due: Cell<Option<VirtualTime>>,
    /// This core's (immutable-while-armed) speed, captured at arm time.
    speed: Cell<CoreSpeed>,
    /// Batched advance total not yet applied to `Sim`.
    accum: Cell<VDuration>,
    /// Batched fast-path annotation count not yet added to the tile shard.
    pending: Cell<u64>,
}

/// Per-activity execution context handed to task bodies.
pub struct ExecCtx {
    shared: Arc<Shared>,
    aid: ActivityId,
    core: CoreId,
    /// The pooled userland context this body runs on: the `&Context` its
    /// closure received. The context outlives the body (the pool frees it
    /// after the run).
    me: *const Context,
    confined: Confined,
}

impl ExecCtx {
    /// For the body being started on `me`.
    ///
    /// # Safety
    /// Must be called by the body running on `me`, which must keep the
    /// result to itself (task code borrows it as `&mut`): [`Self::suspend`]
    /// switches away from `me` on the strength of this.
    pub(crate) unsafe fn on_context(
        shared: Arc<Shared>,
        aid: ActivityId,
        core: CoreId,
        me: &Context,
    ) -> Self {
        ExecCtx {
            shared,
            aid,
            core,
            me,
            confined: Confined {
                active: Cell::new(false),
                vtime: Cell::new(VirtualTime::ZERO),
                limit: Cell::new(VirtualTime::ZERO),
                due: Cell::new(None),
                speed: Cell::new(CoreSpeed::BASE),
                accum: Cell::new(VDuration::ZERO),
                pending: Cell::new(0),
            },
        }
    }

    /// Arm the lock-free confined cache after a passing fast-path or frozen
    /// policy check. Only meaningful under an epoch grant; no-op (one
    /// branch) on the sequential / exclusive paths.
    fn arm_confined(&self, sim: &MutexGuard<'_, Sim>) {
        if sim.token != Token::Epoch {
            return;
        }
        let i = self.core.index();
        if sim.cores.lock_depth[i] != 0 {
            return;
        }
        let Some(limit) = sim.cores.headroom_limit[i] else {
            return;
        };
        debug_assert_eq!(self.confined.pending.get(), 0);
        self.confined.vtime.set(sim.cores.vtime[i]);
        self.confined.limit.set(limit);
        self.confined
            .due
            .set(sim.cores.inboxes.earliest_arrival(self.core));
        self.confined.speed.set(sim.cores.speed[i]);
        self.confined.active.set(true);
    }

    /// Try to absorb an advance of `d` into the confined cache. Succeeds
    /// exactly when the locked fast-path check would have: the new clock
    /// stays within the frozen headroom bound and short of any due message.
    fn try_confined_advance(&self, d: VDuration) -> bool {
        let nv = self.confined.vtime.get() + d;
        if nv > self.confined.limit.get() || self.confined.due.get().is_some_and(|a| a <= nv) {
            return false;
        }
        self.confined.vtime.set(nv);
        self.confined
            .accum
            .set(VDuration(self.confined.accum.get().0 + d.0));
        self.confined.pending.set(self.confined.pending.get() + 1);
        true
    }

    /// Disarm the confined cache and take its batched advance: `Some((delta,
    /// annotation count))` if anything was batched.
    fn take_confined(&self) -> Option<(VDuration, u64)> {
        if !self.confined.active.get() {
            return None;
        }
        self.confined.active.set(false);
        let n = self.confined.pending.replace(0);
        if n == 0 {
            return None;
        }
        Some((self.confined.accum.replace(VDuration::ZERO), n))
    }

    /// Fold batched lock-free advances back into `Sim`. Every locked entry
    /// point calls this first (while the cache is armed nothing else may
    /// read this core's clock).
    fn flush_confined(&self, sim: &mut MutexGuard<'_, Sim>) {
        if let Some((d, n)) = self.take_confined() {
            sim.cores.advance(self.core.index(), d);
            sim.cores.publish_pending[self.core.index()] = true;
            sim.count_fast_path_n(&self.shared, self.core, n);
        }
    }

    /// The task body returned: leave what the confined cache still holds
    /// in this tile's lane, without the simulation lock. The coordinator
    /// lands it (exactly as [`Self::flush_confined`] would) at the start of
    /// phase B, before anything reads the clock. The cache only arms under
    /// an epoch grant, so this does nothing at the end of an exclusive one.
    pub(crate) fn body_returned(&self) {
        if let Some((d, n)) = self.take_confined() {
            self.lane().flushes.push((self.core, d, n));
        }
    }

    /// This core's tile lane, for a body running under an epoch grant.
    #[allow(clippy::mut_from_ref)]
    fn lane(&self) -> &mut crate::frame::LaneState {
        let fs = self.shared.frame.as_ref().expect("epoch without frames");
        // SAFETY: an epoch member runs on the thread that claimed its tile
        // for this frame, the lane's one owner until it retires the tile
        // (callers hold `Token::Epoch`, or the confined cache it arms).
        unsafe { fs.lane_mut(self.shared.tile_of(self.core)) }
    }

    /// The core this task runs on.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// This activity's id.
    pub fn id(&self) -> ActivityId {
        self.aid
    }

    /// Current virtual time of this core.
    pub fn now(&self) -> VirtualTime {
        if self.confined.active.get() {
            return self.confined.vtime.get();
        }
        self.shared.sim.lock().cores.vtime[self.core.index()]
    }

    /// Number of simulated cores.
    pub fn n_cores(&self) -> u32 {
        self.shared.topo.n_cores()
    }

    /// Topological neighbors of this core.
    pub fn neighbors(&self) -> Vec<CoreId> {
        self.shared
            .topo
            .neighbors(self.core)
            .iter()
            .map(|&(n, _)| n)
            .collect()
    }

    /// Execute a timing annotation: charge the block's instruction-class
    /// costs plus branch-prediction penalties, speed-scaled, then apply the
    /// synchronization policy (possibly stalling).
    pub fn compute(&mut self, block: &BlockCost) {
        let base = self.shared.config.cost_model.block_cycles(block);
        let branches = block.cond_branch_count();
        // Branch-free blocks have a lock-independent cost; branchy ones
        // need the core's (locked) predictor state.
        if branches == 0
            && self.confined.active.get()
            && self.try_confined_advance(self.confined.speed.get().scale_cycles(base))
        {
            return;
        }
        let mut sim = self.shared.sim.lock();
        self.flush_confined(&mut sim);
        let mut cycles = base;
        if branches > 0 {
            cycles += sim
                .cores
                .predictor(self.core.index())
                .predict_many(branches);
        }
        let d = sim.cores.speed[self.core.index()].scale_cycles(cycles);
        sim.cores.advance(self.core.index(), d);
        self.after_advance(&mut sim);
    }

    /// Advance this core's clock by `base_cycles` of work (speed-scaled),
    /// then apply the synchronization policy.
    pub fn advance_cycles(&mut self, base_cycles: u64) {
        if self.confined.active.get()
            && self.try_confined_advance(self.confined.speed.get().scale_cycles(base_cycles))
        {
            return;
        }
        let mut sim = self.shared.sim.lock();
        self.flush_confined(&mut sim);
        let d = sim.cores.speed[self.core.index()].scale_cycles(base_cycles);
        sim.cores.advance(self.core.index(), d);
        self.after_advance(&mut sim);
    }

    /// Post-annotation synchronization: the drift-headroom fast path when
    /// the new clock stays inside the cached bound and no message is due,
    /// the full publish + drain + policy check otherwise.
    ///
    /// The fast path only *defers* the publish (`publish_pending`): this
    /// activity holds the run token, so nothing can observe the stale
    /// published value before one of the flush points
    /// ([`sync::flush_deferred`]) runs. Folding the skipped intermediate
    /// publishes into one final publish reaches the same relaxation fixed
    /// point, so the deferral is bit-exact.
    fn after_advance(&self, sim: &mut MutexGuard<'_, Sim>) {
        let i = self.core.index();
        let vtime = sim.cores.vtime[i];
        let fast = sim.cores.lock_depth[i] == 0
            && sim.cores.headroom_limit[i].is_some_and(|limit| vtime <= limit)
            && sim
                .cores
                .inboxes
                .earliest_arrival(self.core)
                .is_none_or(|a| a > vtime);
        if fast {
            sim.cores.publish_pending[self.core.index()] = true;
            sim.count_fast_path(&self.shared, self.core);
            // Under an epoch grant the bounds just checked stay frozen
            // until the epoch quiesces: later annotations inside them can
            // skip the lock entirely.
            self.arm_confined(sim);
            return;
        }
        sim.count_full_sync(&self.shared, self.core);
        if sim.token == Token::Epoch {
            // Confined (epoch) slow path: publishing and message handling
            // mutate shared state, so defer the publish and run only the
            // side-effect-free policy check against frozen published
            // values. A due message or a non-passing check parks the
            // activity; the coordinator's serial phase re-grants it
            // exclusively and it falls through to the authoritative
            // sequential path below.
            sim.cores.publish_pending[self.core.index()] = true;
            let due = sim
                .cores
                .inboxes
                .earliest_arrival(self.core)
                .is_some_and(|a| a <= sim.cores.vtime[self.core.index()]);
            if !due && sync::sync_ok_frozen(sim, &self.shared, self.core) {
                // The frozen check may have refreshed the headroom bound.
                self.arm_confined(sim);
                return;
            }
            // Parking defers the policy decision to the serial phase; any
            // cached headroom no longer describes the deferred clock (an
            // advance may have run into a due message past the bound), and
            // the serial replay recomputes it from scratch. Drop it so the
            // coordinator's flush-time sanitizer check stays meaningful.
            sim.cores.headroom_limit[self.core.index()] = None;
            self.park_epoch(sim);
        }
        sync::publish(sim, &self.shared, self.core);
        crate::engine::drain_due_messages(sim, &self.shared, self.core);
        self.maybe_stall(sim);
    }

    /// Send a message stamped with this core's current clock.
    pub fn send(&mut self, dst: CoreId, size_bytes: u32, payload: Payload) {
        if self.confined.active.get() {
            // Lock-free epoch path: the confined cache only arms under
            // `Token::Epoch`, so the tile lane can take the message without
            // the simulation lock. The stamp is the confined clock —
            // exactly what the locked path would read after flushing the
            // cache.
            self.lane().outbox.push(crate::engine::OutMsg {
                src: self.core,
                dst,
                size_bytes,
                sent: self.confined.vtime.get(),
                payload,
            });
            return;
        }
        let mut sim = self.shared.sim.lock();
        let sent = sim.cores.vtime[self.core.index()];
        if sim.token == Token::Epoch {
            // Confined but the cache is not armed (before the first
            // passing sync check). Routing consumes shared network state
            // (the global send sequence, link occupancy), so buffer into
            // this tile's lane; the coordinator routes all buffered sends
            // in tile order once the epoch quiesces, preserving
            // per-sender FIFO (the lane keeps program order and `sent`
            // stamps are monotone per sender).
            self.lane().outbox.push(crate::engine::OutMsg {
                src: self.core,
                dst,
                size_bytes,
                sent,
                payload,
            });
            return;
        }
        let env = sim.net.send(self.core, dst, size_bytes, sent, payload);
        crate::engine::deliver(&mut sim, &self.shared, env);
    }

    /// Run `f` with full simulator access ([`Ops`]) while holding the run
    /// token. The runtime layer uses this to implement compound primitives
    /// (probe, spawn, data requests) atomically.
    pub fn with_ops<R>(&mut self, f: impl FnOnce(&mut Ops<'_>) -> R) -> R {
        let mut sim = self.shared.sim.lock();
        self.flush_confined(&mut sim);
        self.exclusive_for_ops(&mut sim);
        // `f` can observe published values through `Ops`.
        sync::flush_deferred(&mut sim, &self.shared, self.core);
        let mut ops = Ops::new(&mut sim, &self.shared);
        f(&mut ops)
    }

    /// Like [`Self::with_ops`] followed by a synchronization check: use
    /// when `f` advances this core's clock.
    pub fn with_ops_synced<R>(&mut self, f: impl FnOnce(&mut Ops<'_>) -> R) -> R {
        let mut sim = self.shared.sim.lock();
        self.flush_confined(&mut sim);
        self.exclusive_for_ops(&mut sim);
        sync::flush_deferred(&mut sim, &self.shared, self.core);
        let r = {
            let mut ops = Ops::new(&mut sim, &self.shared);
            f(&mut ops)
        };
        crate::engine::drain_due_messages(&mut sim, &self.shared, self.core);
        self.maybe_stall(&mut sim);
        r
    }

    /// Suspend this task until another party calls `Ops::wake` on it;
    /// returns the wake value. The core is freed meanwhile: it can process
    /// messages, resume other parked tasks or start queued ones (the
    /// "execution context is saved" semantics of paper §IV).
    pub fn block(&mut self, reason: &'static str) -> Box<dyn Any + Send> {
        self.block_with(reason, false)
    }

    /// [`Self::block`] with control over the resume context-switch charge:
    /// pass `true` for full task suspensions (join), `false` for
    /// lightweight protocol waits whose handler costs already account for
    /// the runtime's work.
    pub fn block_with(&mut self, reason: &'static str, charge_resume: bool) -> Box<dyn Any + Send> {
        let mut sim = self.shared.sim.lock();
        self.flush_confined(&mut sim);
        self.exclusive_for_ops(&mut sim);
        {
            let core = self.core;
            debug_assert_eq!(sim.cores.current[core.index()], Some(self.aid));
            sim.act_mut(self.aid).charge_resume = charge_resume;
            sim.act_mut(self.aid).state = ActivityState::Blocked(reason);
            crate::engine::trace(&self.shared, || crate::trace::TraceEvent::Block {
                t: sim.cores.vtime[core.index()],
                core,
                reason,
            });
            sim.cores.current[core.index()] = None;
            sim.floor_dirty = true;
            sync::note_floor_key(&mut sim, core.index());
            // The core may have become idle: switch it to shadow time so
            // its neighborhood is not stalled on a frozen clock.
            sync::publish(&mut sim, &self.shared, core);
            if is_ready(&sim, core) {
                push_ready(&mut sim, core);
            }
        }
        self.suspend(&mut sim);
        // We are current again (make_current charged the context switch and
        // applied the wake time). Apply the synchronization policy before
        // resuming user code.
        self.maybe_stall(&mut sim);
        sim.act_mut(self.aid)
            .wake_value
            .take()
            .expect("woken without a wake value")
    }

    /// Enter a critical section / take a simulated lock: while at least one
    /// is held, the synchronization policy never stalls this core, so it
    /// can always reach the release (the deadlock-avoidance waiver of paper
    /// §II.B).
    pub fn critical_enter(&mut self) {
        let mut sim = self.shared.sim.lock();
        self.flush_confined(&mut sim);
        sim.cores.lock_depth[self.core.index()] += 1;
    }

    /// Leave a critical section; when the depth reaches zero the policy
    /// applies again immediately.
    pub fn critical_exit(&mut self) {
        let mut sim = self.shared.sim.lock();
        self.flush_confined(&mut sim);
        let depth = &mut sim.cores.lock_depth[self.core.index()];
        assert!(*depth > 0, "critical_exit without critical_enter");
        *depth -= 1;
        if *depth == 0 {
            self.maybe_stall(&mut sim);
        }
    }

    /// Stall while the synchronization policy forbids this core to run.
    ///
    /// The token is re-dispatched on every loop iteration: a stalled or
    /// parked activity can be re-granted either exclusively or as part of
    /// an epoch batch, and the check it must run differs (authoritative
    /// vs. frozen/confined).
    fn maybe_stall(&self, sim: &mut MutexGuard<'_, Sim>) {
        let mut stalled = false;
        loop {
            if sim.token == Token::Epoch {
                // Confined: run the frozen check only; flushing the
                // deferred publish or registering waiters would mutate
                // shared state. If it does not pass, park — the serial
                // phase re-grants exclusively and the loop re-dispatches
                // into the authoritative branch below, which does the
                // real check and the stall bookkeeping.
                if sync::sync_ok_frozen(sim, &self.shared, self.core) {
                    self.arm_confined(sim);
                    return;
                }
                self.park_epoch(sim);
                continue;
            }
            // The policy check reads published values, and a stall yields
            // the run token: either way a deferred publish must land first.
            sync::flush_deferred(sim, &self.shared, self.core);
            if sync::sync_ok(sim, &self.shared, self.core) {
                if stalled {
                    crate::engine::trace(&self.shared, || crate::trace::TraceEvent::Resume {
                        t: sim.cores.vtime[self.core.index()],
                        core: self.core,
                    });
                }
                return;
            }
            sim.stats.stall_events += 1;
            if !stalled {
                crate::engine::trace(&self.shared, || crate::trace::TraceEvent::Stall {
                    t: sim.cores.vtime[self.core.index()],
                    core: self.core,
                });
                stalled = true;
            }
            sim.act_mut(self.aid).state = ActivityState::Stalled;
            self.suspend(sim);
        }
    }

    /// If this activity is running confined inside an epoch, park it and
    /// wait until the coordinator's serial phase re-grants it the run token
    /// exclusively. No-op under an exclusive grant. Interactions that need
    /// full simulator access (compound `Ops`, blocking) call this first so
    /// their existing sequential bodies run unchanged.
    fn exclusive_for_ops(&self, sim: &mut MutexGuard<'_, Sim>) {
        if sim.token == Token::Epoch {
            self.park_epoch(sim);
        }
    }

    /// Leave the running epoch: flip this activity to `Parked` and hand
    /// the CPU back to the frame worker, which records the park in the
    /// tile's lane and retires the member once this context is at rest
    /// (`engine::run_exec_tile`). Returns under the exclusive re-grant of
    /// the coordinator's serial phase.
    fn park_epoch(&self, sim: &mut MutexGuard<'_, Sim>) {
        debug_assert_eq!(sim.token, Token::Epoch);
        sim.act_mut(self.aid).state = ActivityState::Parked;
        self.suspend(sim);
        debug_assert_eq!(sim.token, Token::Act(self.aid));
    }

    /// Give the CPU away at a stall, a block or a park (the activity's
    /// state already says which): switch to whoever granted this body, with
    /// the lock released (the granter re-locks if it needs to; see the
    /// `engine` module docs), and return when the next grant — exclusive,
    /// or as a member of an epoch — switches back here, on whichever thread
    /// holds that grant.
    fn suspend(&self, sim: &mut MutexGuard<'_, Sim>) {
        // SAFETY: `on_context`'s contract — an `ExecCtx` is made by, and
        // stays with, the body running on `me` — so the caller is that
        // body, and `me` is alive (see the field).
        MutexGuard::unlocked(sim, || unsafe { (*self.me).suspend() });
        if sim.shutdown {
            // Teardown resumed this body to unwind it: through user code,
            // up to the context's trampoline.
            std::panic::panic_any(ShutdownSignal);
        }
        debug_assert!(matches!(sim.act(self.aid).state, ActivityState::Granted));
    }
}
