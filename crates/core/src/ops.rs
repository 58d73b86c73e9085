//! `Ops` — the full simulator API available to runtime hooks (and, through
//! `ExecCtx::with_ops`, to task code while it holds the run token).
//!
//! Everything here executes inside the run-token holder's borrow of the
//! simulator state and never blocks.

use crate::activity::{ActivityId, ActivityMeta, TaskFn};
use crate::engine::{deliver, start_activity_impl, trace, wake_impl, Shared, Sim};
use crate::state::BirthId;
use crate::sync;
use crate::trace::TraceEvent;
use simany_net::Payload;
use simany_time::{CoreSpeed, CostModel, VDuration, VirtualTime};
use simany_topology::CoreId;

/// Outcome of an [`Ops::send`]/[`Ops::send_at`] on a possibly-faulty
/// machine. Callers that don't care (occupancy broadcasts, best-effort
/// hints) may ignore it; callers that need delivery should use
/// [`Ops::try_send_at`] to get the payload back for a retry.
#[derive(Debug)]
#[must_use = "on a faulty machine a send may be dropped"]
pub enum SendFate {
    /// The message was delivered to the destination inbox.
    Delivered {
        /// Simulator-computed arrival time at the destination.
        arrival: VirtualTime,
    },
    /// The fault plan lost the message (dropped, corrupted or unroutable).
    Dropped,
}

/// Handle over the full simulator state, passed to [`crate::RuntimeHooks`]
/// callbacks.
pub struct Ops<'a> {
    pub(crate) sim: &'a mut Sim,
    pub(crate) shared: &'a Shared,
}

impl<'a> Ops<'a> {
    pub(crate) fn new(sim: &'a mut Sim, shared: &'a Shared) -> Self {
        Ops { sim, shared }
    }

    /// Number of simulated cores.
    pub fn n_cores(&self) -> u32 {
        self.shared.topo.n_cores()
    }

    /// Virtual clock of `core`.
    pub fn now(&self, core: CoreId) -> VirtualTime {
        self.sim.cores.vtime[core.index()]
    }

    /// Published (neighbor-visible) time of `core` — its clock while
    /// working, its shadow time while idle.
    pub fn published(&self, core: CoreId) -> VirtualTime {
        sync::exposed(self.sim, self.shared, core.index())
    }

    /// Topological neighbors of `core`.
    pub fn neighbors(&self, core: CoreId) -> Vec<CoreId> {
        self.shared
            .topo
            .neighbors(core)
            .iter()
            .map(|&(n, _)| n)
            .collect()
    }

    /// Speed factor of `core`.
    pub fn speed(&self, core: CoreId) -> CoreSpeed {
        self.sim.cores.speed(core.index())
    }

    /// The shared instruction cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.shared.config.cost_model
    }

    /// The engine's master seed (for deriving runtime-level PRNG streams).
    pub fn seed(&self) -> u64 {
        self.shared.config.seed
    }

    /// True iff `core` hosts no work at all.
    pub fn is_idle(&self, core: CoreId) -> bool {
        self.sim.cores.is_idle(core.index())
    }

    /// The activity currently scheduled on `core`, if any.
    pub fn current_activity(&self, core: CoreId) -> Option<ActivityId> {
        self.sim.cores.current(core.index())
    }

    /// Advance `core`'s clock by `base_cycles` of work, scaled by the
    /// core's speed (polymorphic cores take longer).
    pub fn advance_core(&mut self, core: CoreId, base_cycles: u64) {
        let d = self.sim.cores.speed(core.index()).scale_cycles(base_cycles);
        self.sim.cores.advance(core.index(), d);
        sync::publish(self.sim, self.shared, core);
    }

    /// Advance `core`'s clock by an exact duration (no speed scaling).
    pub fn advance_core_raw(&mut self, core: CoreId, d: VDuration) {
        self.sim.cores.advance(core.index(), d);
        sync::publish(self.sim, self.shared, core);
    }

    /// Advance `core`'s clock forward to `t` if it is later (waiting, not
    /// busy time).
    pub fn advance_core_to(&mut self, core: CoreId, t: VirtualTime) {
        self.sim.cores.advance_to(core.index(), t);
        sync::publish(self.sim, self.shared, core);
    }

    /// Send a message from `src` (stamped with `src`'s current clock) to
    /// `dst` through the interconnect model; it lands in `dst`'s inbox with
    /// a simulator-computed arrival time. On a faulty machine the message
    /// may be lost — the returned [`SendFate`] says which; use
    /// [`Ops::try_send_at`] when the payload is needed back for a retry.
    pub fn send(
        &mut self,
        src: CoreId,
        dst: CoreId,
        size_bytes: u32,
        payload: Payload,
    ) -> SendFate {
        let sent = self.sim.cores.vtime[src.index()];
        self.send_at(src, dst, size_bytes, sent, payload)
    }

    /// Send a message with an explicit departure stamp instead of the
    /// sender's clock. This implements the paper's reply rule: "If a
    /// request requires a reply, the reply message is dated with the
    /// request time augmented with a local processing time" (§II.A) — a
    /// responder whose own clock has drifted must not leak that drift into
    /// the requester's timeline.
    pub fn send_at(
        &mut self,
        src: CoreId,
        dst: CoreId,
        size_bytes: u32,
        at: VirtualTime,
        payload: Payload,
    ) -> SendFate {
        match self.try_send_at(src, dst, size_bytes, at, payload) {
            Ok(arrival) => SendFate::Delivered { arrival },
            Err(_) => SendFate::Dropped,
        }
    }

    /// Fault-aware send: like [`Ops::send_at`], but on loss the payload is
    /// handed back so the caller can retry it (task bodies are not
    /// clonable). Also announces any fault-plan epoch boundaries reached by
    /// `at` (LinkDown/LinkUp traces) and traces the drop itself.
    pub fn try_send_at(
        &mut self,
        src: CoreId,
        dst: CoreId,
        size_bytes: u32,
        at: VirtualTime,
        payload: Payload,
    ) -> Result<VirtualTime, Payload> {
        self.announce_epochs(at);
        match self.sim.net.try_send(src, dst, size_bytes, at, payload) {
            Ok(env) => {
                let arrival = env.arrival;
                deliver(self.sim, self.shared, env);
                Ok(arrival)
            }
            Err((_, payload)) => {
                trace(self.shared, || TraceEvent::MsgDropped {
                    t: at,
                    src,
                    dst,
                    bytes: size_bytes,
                });
                Err(payload)
            }
        }
    }

    /// True iff the fault plan has failed `core` by virtual time `at`. The
    /// first observation of each failed core emits a `CoreFailed` trace and
    /// bumps the counter.
    pub fn core_failed(&mut self, core: CoreId, at: VirtualTime) -> bool {
        let Some(plan) = &self.shared.config.fault else {
            return false;
        };
        if !plan.core_failed(core, at) {
            return false;
        }
        if !self.sim.core_fail_announced[core.index()] {
            self.sim.core_fail_announced[core.index()] = true;
            self.sim.stats.core_failures += 1;
            let t = plan.core_fail_time(core).expect("failed core has a time");
            trace(self.shared, || TraceEvent::CoreFailed { t, core });
        }
        true
    }

    /// Record a runtime-level retry of a lost message (trace + counter).
    pub fn note_retry(&mut self, src: CoreId, dst: CoreId, at: VirtualTime) {
        self.sim.stats.msg_retries += 1;
        trace(self.shared, || TraceEvent::MsgRetried { t: at, src, dst });
    }

    /// Announce fault-plan epoch boundaries reached by virtual time `t`:
    /// one `LinkDown`/`LinkUp` trace per changed link, counters for link
    /// faults and partition entries. Cheap no-op when nothing is pending.
    fn announce_epochs(&mut self, t: VirtualTime) {
        if !self.sim.net.epochs_pending(t) {
            return;
        }
        for tr in self.sim.net.observe_epochs(t) {
            self.sim.stats.link_faults += tr.went_down.len() as u64;
            if tr.partitioned {
                self.sim.stats.partitions_observed += 1;
            }
            if self.shared.config.tracer.is_some() {
                for &link in &tr.went_down {
                    let props = self.shared.topo.link(link);
                    trace(self.shared, || TraceEvent::LinkDown {
                        t: tr.at,
                        link,
                        src: props.src,
                        dst: props.dst,
                    });
                }
                for &link in &tr.came_up {
                    let props = self.shared.topo.link(link);
                    trace(self.shared, || TraceEvent::LinkUp {
                        t: tr.at,
                        link,
                        src: props.src,
                        dst: props.dst,
                    });
                }
            }
        }
    }

    /// Pure route latency estimate (no contention) — used by memory models.
    pub fn uncontended_latency(&mut self, src: CoreId, dst: CoreId, size: u32) -> VDuration {
        self.sim.net.uncontended_latency(src, dst, size)
    }

    /// Simulate a payload-less transfer on the interconnect departing at
    /// `depart`: walks the route updating per-link contention and returns
    /// the arrival time. The cycle-level reference uses this for coherence
    /// protocol legs, which contend for links like any other traffic but
    /// need no envelope/handler machinery.
    pub fn transit(
        &mut self,
        src: CoreId,
        dst: CoreId,
        size: u32,
        depart: VirtualTime,
    ) -> VirtualTime {
        self.sim.net.transit(src, dst, size, depart)
    }

    /// Start a new activity as the current activity of `core` (which must
    /// have none). The task body runs with the core's clock as it stands —
    /// charge any task-start overhead *before* calling.
    pub fn start_activity(
        &mut self,
        core: CoreId,
        name: &'static str,
        meta: ActivityMeta,
        job: TaskFn,
    ) -> ActivityId {
        start_activity_impl(self.sim, self.shared, core, name, meta, job)
    }

    /// Wake a blocked activity, delivering `value` (available at virtual
    /// time `at`) to its pending `ExecCtx::block` call.
    pub fn wake(&mut self, aid: ActivityId, value: Box<dyn std::any::Any>, at: VirtualTime) {
        wake_impl(self.sim, self.shared, aid, value, at);
    }

    /// Declare `n` additional queued-but-unstarted work items on `core`
    /// (the engine will call `on_idle` while the hint is positive and the
    /// core has no current activity).
    pub fn queue_hint_add(&mut self, core: CoreId, n: u32) {
        let was_idle = self.sim.cores.is_idle(core.index());
        self.sim.cores.queue_hint[core.index()] += n;
        self.sim.total_queue_hint += u64::from(n);
        self.sim.floor_dirty = true;
        sync::note_floor_key(self.sim, core.index());
        if was_idle {
            sync::publish(self.sim, self.shared, core);
        }
        crate::engine::push_ready(self.sim, core);
    }

    /// Remove `n` queued work items from `core`'s hint.
    pub fn queue_hint_sub(&mut self, core: CoreId, n: u32) {
        let hint = &mut self.sim.cores.queue_hint[core.index()];
        assert!(*hint >= n, "queue_hint underflow on {core}");
        *hint -= n;
        self.sim.total_queue_hint -= u64::from(n);
        self.sim.floor_dirty = true;
        sync::note_floor_key(self.sim, core.index());
        if self.sim.cores.is_idle(core.index()) {
            sync::publish(self.sim, self.shared, core);
        }
    }

    /// Record the birth of an in-flight spawned task: until discarded, the
    /// birth time bounds `core`'s drift as if the new task were a neighbor
    /// (paper §II.A, *Time drift of dynamically created tasks*).
    pub fn record_birth(&mut self, core: CoreId, birth: VirtualTime) -> BirthId {
        if self.sim.sanitizer.is_some() {
            // A birth stamped ahead of its spawner cannot bound the
            // spawner's drift — catch the runtime bug at the source.
            crate::sanitizer::verify_birth(self.sim, self.shared, core, birth);
        }
        let id = BirthId(self.sim.next_birth);
        self.sim.next_birth += 1;
        self.sim.cores.birth_push(core.index(), id, birth);
        // A new birth can lower the spatial floor below any cached bound.
        self.sim.cores.set_headroom(core.index(), None);
        self.sim.floor_dirty = true;
        sync::note_floor_key(self.sim, core.index());
        id
    }

    /// Discard a birth entry (the spawned task landed on its destination);
    /// the spawning core may become unstalled.
    pub fn discard_birth(&mut self, core: CoreId, id: BirthId) {
        let removed = self.sim.cores.birth_remove(core.index(), id);
        assert!(removed, "unknown birth id");
        self.sim.floor_dirty = true;
        // Key update must precede the recheck: its sync check reads the
        // incremental floor.
        sync::note_floor_key(self.sim, core.index());
        sync::recheck_stall(self.sim, self.shared, core);
    }
}
