//! `ExecCtx` — the interaction API available to task code.
//!
//! A task body is ordinary Rust code that runs natively between
//! interactions. Each `ExecCtx` method briefly borrows the simulator
//! state, performs the interaction (advance the clock, send a message,
//! block...), applies the synchronization policy and returns — possibly
//! after giving the CPU away while the core is stalled or blocked:
//! a switch from the body's context back to the driver (see
//! `coro`). All waiting happens here; runtime hooks never block.

use crate::activity::{ActivityId, ActivityState};
use crate::coro::Context;
use crate::engine::{is_ready, push_ready, Shared, ShutdownSignal, Sim};
use crate::ops::Ops;
use crate::sync;
use simany_net::Payload;
use simany_time::{BlockCost, CoreSpeed, VDuration, VirtualTime};
use simany_topology::CoreId;
use std::cell::RefMut;
use std::rc::Rc;

/// Per-activity execution context handed to task bodies.
pub struct ExecCtx {
    shared: Rc<Shared>,
    aid: ActivityId,
    core: CoreId,
    /// The pooled userland context this body runs on: the `&Context` its
    /// closure received. The context outlives the body (the pool frees it
    /// after the run).
    me: *const Context,
}

impl ExecCtx {
    /// For the body being started on `me`.
    ///
    /// # Safety
    /// Must be called by the body running on `me`, which must keep the
    /// result to itself (task code borrows it as `&mut`): [`Self::suspend`]
    /// switches away from `me` on the strength of this.
    pub(crate) unsafe fn on_context(
        shared: Rc<Shared>,
        aid: ActivityId,
        core: CoreId,
        me: &Context,
    ) -> Self {
        ExecCtx {
            shared,
            aid,
            core,
            me,
        }
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
        self.shared.sim.borrow().cores.vtime(self.core.index())
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
        let mut sim = self.shared.sim.borrow_mut();
        let mut cycles = base;
        if branches > 0 {
            cycles += sim
                .cores
                .predictor(self.core.index())
                .predict_many(branches);
        }
        let d = sim.cores.speed(self.core.index()).scale_cycles(cycles);
        self.advance_by(sim, d);
    }

    /// Advance this core's clock by `base_cycles` of work (speed-scaled),
    /// then apply the synchronization policy.
    pub fn advance_cycles(&mut self, base_cycles: u64) {
        let sim = self.shared.sim.borrow_mut();
        let d = sim.cores.speed(self.core.index()).scale_cycles(base_cycles);
        self.advance_by(sim, d);
    }

    /// Advance this core's clock by exactly `d` (no speed scaling), then
    /// apply the synchronization policy: an annotation of a known duration.
    pub fn advance(&mut self, d: VDuration) {
        self.advance_by(self.shared.sim.borrow_mut(), d);
    }

    /// Speed factor of this core.
    pub fn speed(&self) -> CoreSpeed {
        self.shared.sim.borrow().cores.speed(self.core.index())
    }

    /// Pure route latency of a `bytes` transfer from `src` to `dst` (no
    /// contention), as [`Ops::uncontended_latency`]. It reads routes only,
    /// never a published clock, so unlike [`Self::with_ops`] it flushes no
    /// deferred publish.
    pub fn uncontended_latency(&mut self, src: CoreId, dst: CoreId, bytes: u32) -> VDuration {
        let mut sim = self.shared.sim.borrow_mut();
        sim.net.uncontended_latency(src, dst, bytes)
    }

    /// Every annotation's advance by `d`, then its synchronization: the
    /// drift-headroom fast path when the new clock stays inside the cached
    /// bound and no message is due, the full publish + drain + policy check
    /// otherwise.
    ///
    /// The fast path only *defers* the publish (`publish_pending`): this
    /// activity holds the run token, so nothing can observe the stale
    /// published value before one of the flush points
    /// ([`sync::flush_deferred`]) runs. Folding the skipped intermediate
    /// publishes into one final publish reaches the same relaxation fixed
    /// point, so the deferral is bit-exact.
    fn advance_by(&self, mut sim: RefMut<'_, Sim>, d: VDuration) {
        let i = self.core.index();
        sim.cores.advance(i, d);
        let vtime = sim.cores.vtime(i);
        let fast = sim.cores.lock_depth[i] == 0
            && sim.cores.within_headroom(i, vtime)
            && sim
                .cores
                .inboxes
                .earliest_arrival(self.core)
                .is_none_or(|a| a > vtime);
        if fast {
            debug_assert!(
                sim.cores.publish_pending.is_none_or(|c| c == self.core),
                "{} owes a publish while {} holds the run token",
                sim.cores.publish_pending.unwrap_or(self.core),
                self.core
            );
            sim.cores.publish_pending = Some(self.core);
            sim.stats.fast_path_advances += 1;
            return;
        }
        sim.stats.full_sync_checks += 1;
        sync::publish(&mut sim, &self.shared, self.core);
        crate::engine::drain_due_messages(&mut sim, &self.shared, self.core);
        self.maybe_stall(sim);
    }

    /// Send a message stamped with this core's current clock: an
    /// [`Ops::send`] from this core, with the same arrival or loss. Like
    /// [`Self::uncontended_latency`], it flushes no deferred publish.
    pub fn send(
        &mut self,
        dst: CoreId,
        size_bytes: u32,
        payload: Payload,
    ) -> Result<VirtualTime, Payload> {
        let mut sim = self.shared.sim.borrow_mut();
        let sent = sim.cores.vtime(self.core.index());
        Ops::new(&mut sim, &self.shared).send(self.core, dst, size_bytes, sent, payload)
    }

    /// Run `f` with full simulator access ([`Ops`]) while holding the run
    /// token. The runtime layer uses this to implement compound primitives
    /// (probe, spawn, data requests) atomically.
    pub fn with_ops<R>(&mut self, f: impl FnOnce(&mut Ops<'_>) -> R) -> R {
        let mut sim = self.shared.sim.borrow_mut();
        // `f` can observe published values through `Ops`.
        sync::flush_deferred(&mut sim, &self.shared, self.core);
        let mut ops = Ops::new(&mut sim, &self.shared);
        f(&mut ops)
    }

    /// Like [`Self::with_ops`] followed by a synchronization check: use
    /// when `f` advances this core's clock.
    pub fn with_ops_synced<R>(&mut self, f: impl FnOnce(&mut Ops<'_>) -> R) -> R {
        let mut sim = self.shared.sim.borrow_mut();
        sync::flush_deferred(&mut sim, &self.shared, self.core);
        let r = {
            let mut ops = Ops::new(&mut sim, &self.shared);
            f(&mut ops)
        };
        crate::engine::drain_due_messages(&mut sim, &self.shared, self.core);
        self.maybe_stall(sim);
        r
    }

    /// Suspend this task until another party calls `Ops::wake` on it. The
    /// core is freed meanwhile: it can process messages, resume other
    /// parked tasks or start queued ones (the "execution context is saved"
    /// semantics of paper §IV).
    pub fn block(&mut self, reason: &'static str) {
        self.block_with(reason, false);
    }

    /// [`Self::block`] with control over the resume context-switch charge:
    /// pass `true` for full task suspensions (join), `false` for
    /// lightweight protocol waits whose handler costs already account for
    /// the runtime's work.
    pub fn block_with(&mut self, reason: &'static str, charge_resume: bool) {
        let mut sim = self.shared.sim.borrow_mut();
        {
            let core = self.core;
            debug_assert_eq!(sim.cores.current(core.index()), Some(self.aid));
            sim.act_mut(self.aid).charge_resume = charge_resume;
            sim.act_mut(self.aid).state = ActivityState::Blocked(reason);
            crate::engine::trace(&self.shared, || crate::trace::TraceEvent::Block {
                t: sim.cores.vtime(core.index()),
                core,
                reason,
            });
            sim.cores.set_current(core.index(), None);
            sync::note_floor_key(&mut sim, core.index());
            // The core may have become idle: switch it to shadow time so
            // its neighborhood is not stalled on a frozen clock.
            sync::publish(&mut sim, &self.shared, core);
            if is_ready(&sim, core) {
                push_ready(&mut sim, core);
            }
        }
        let sim = self.suspend(sim);
        // We are current again (make_current charged the context switch and
        // applied the wake time). Apply the synchronization policy before
        // resuming user code.
        self.maybe_stall(sim);
    }

    /// Enter a critical section / take a simulated lock: while at least one
    /// is held, the synchronization policy never stalls this core, so it
    /// can always reach the release (the deadlock-avoidance waiver of paper
    /// §II.B).
    pub fn critical_enter(&mut self) {
        let mut sim = self.shared.sim.borrow_mut();
        sim.cores.lock_depth[self.core.index()] += 1;
    }

    /// Leave a critical section; when the depth reaches zero the policy
    /// applies again immediately.
    pub fn critical_exit(&mut self) {
        let mut sim = self.shared.sim.borrow_mut();
        let depth = &mut sim.cores.lock_depth[self.core.index()];
        assert!(*depth > 0, "critical_exit without critical_enter");
        *depth -= 1;
        if *depth == 0 {
            self.maybe_stall(sim);
        }
    }

    /// Stall while the synchronization policy forbids this core to run.
    fn maybe_stall<'s>(&'s self, mut sim: RefMut<'s, Sim>) -> RefMut<'s, Sim> {
        let mut stalled = false;
        loop {
            // The policy check reads published values, and a stall yields
            // the run token: either way a deferred publish must land first.
            sync::flush_deferred(&mut sim, &self.shared, self.core);
            if sync::sync_ok(&mut sim, &self.shared, self.core) {
                if stalled {
                    crate::engine::trace(&self.shared, || crate::trace::TraceEvent::Resume {
                        t: sim.cores.vtime(self.core.index()),
                        core: self.core,
                    });
                }
                return sim;
            }
            sim.stats.stall_events += 1;
            if !stalled {
                crate::engine::trace(&self.shared, || crate::trace::TraceEvent::Stall {
                    t: sim.cores.vtime(self.core.index()),
                    core: self.core,
                });
                stalled = true;
            }
            sim.act_mut(self.aid).state = ActivityState::Stalled;
            sim.stalled += 1;
            sim = self.suspend(sim);
        }
    }

    /// Give the CPU away at a stall or a block (the activity's state
    /// already says which): drop the borrow, switch to the driver (which
    /// borrows `Sim` in turn; see the `engine` module docs), and borrow
    /// again when the next grant switches back here.
    fn suspend<'s>(&'s self, sim: RefMut<'s, Sim>) -> RefMut<'s, Sim> {
        drop(sim);
        // SAFETY: `on_context`'s contract — an `ExecCtx` is made by, and
        // stays with, the body running on `me` — so the caller is that
        // body, and `me` is alive (see the field).
        unsafe { (*self.me).suspend() };
        let sim = self.shared.sim.borrow_mut();
        if sim.shutdown {
            // Teardown resumed this body to unwind it: through user code,
            // up to the context's trampoline.
            std::panic::panic_any(ShutdownSignal);
        }
        debug_assert!(matches!(sim.act(self.aid).state, ActivityState::Granted));
        sim
    }
}
