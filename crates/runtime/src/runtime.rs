//! The run-time system object: protocol message handlers and task
//! dispatching, as `RuntimeHooks` for the engine.

use crate::msg::RtMsg;
use crate::params::RuntimeParams;
use crate::state::{GroupId, LockId, QueuedTask, RtState, RtStats};
use crate::task_ctx::{TaskBody, TaskCtx};
use simany_core::activity::TaskFn;
use simany_core::{ActivityId, Envelope, ExecCtx, Ops, Payload, RuntimeHooks, VirtualTime};
use simany_mem::DirectoryTiming;
use simany_time::Digest;
use simany_topology::CoreId;
use std::any::Any;
use std::cell::RefCell;
use std::sync::{Arc, Weak};

/// Activity descriptor: which group the task decrements at termination.
pub(crate) struct TaskMeta {
    pub group: Option<GroupId>,
}

/// The task run-time system (paper §IV). One instance drives one
/// simulation and owns all protocol state.
///
/// The state sits in a `RefCell` that each hook and each `TaskCtx` call
/// borrows **once**, for the whole entry, and hands to the protocol
/// helpers of `Step` as `&mut RtState`; no helper borrows. The borrow lives
/// inside the entry's `Ops` closure, so it is never held across an
/// `ExecCtx` call that can drain due messages into
/// [`RuntimeHooks::on_message`] (the tail of `with_ops_synced`,
/// `advance_cycles`, `compute`) or switch tasks (`block`): a hook run
/// meanwhile would borrow it a second time and panic. `Ops` itself never
/// calls a hook.
pub struct TaskRuntime {
    pub(crate) params: RuntimeParams,
    pub(crate) st: RefCell<RtState>,
    /// Back-reference to our own `Arc` (the form `simulate` takes hooks
    /// in) so hooks, which receive `&self`, can re-wrap queued task bodies
    /// into engine closures.
    me: Weak<TaskRuntime>,
}

impl TaskRuntime {
    /// Create the run-time system for `n_cores` cores.
    pub fn new(n_cores: u32, params: RuntimeParams) -> Arc<Self> {
        let directory = if params.arch.coherence_enabled() {
            Some(DirectoryTiming::new(n_cores, params.mem.line_bytes))
        } else {
            None
        };
        Arc::new_cyclic(|me| TaskRuntime {
            params,
            st: RefCell::new(RtState::new(n_cores, directory)),
            me: me.clone(),
        })
    }

    /// Run-time parameters.
    pub fn params(&self) -> &RuntimeParams {
        &self.params
    }

    /// Snapshot of the run-time statistics.
    pub fn stats(&self) -> RtStats {
        self.st.borrow().stats.clone()
    }

    /// Wrap a user task body into an engine activity closure.
    pub(crate) fn wrap(self: Arc<Self>, body: TaskBody) -> TaskFn {
        Box::new(move |ec: &mut ExecCtx| {
            let mut tc = TaskCtx::new(ec, &self);
            body(&mut tc);
        })
    }

    /// Run one protocol step on core `me`: the state is borrowed here,
    /// once, for all of `f`.
    pub(crate) fn step<R>(
        &self,
        ops: &mut Ops<'_>,
        me: CoreId,
        f: impl FnOnce(&mut Step<'_, '_>) -> R,
    ) -> R {
        let mut st = self.st.borrow_mut();
        f(&mut Step {
            params: &self.params,
            st: &mut st,
            ops,
            me,
        })
    }
}

/// One protocol step on core `me`: the run-time parameters, the state
/// (borrowed once by [`TaskRuntime::step`]) and the engine's operations.
/// Every message the helpers send leaves from `me`.
pub(crate) struct Step<'s, 'o> {
    pub params: &'s RuntimeParams,
    pub st: &'s mut RtState,
    pub ops: &'s mut Ops<'o>,
    pub me: CoreId,
}

impl Step<'_, '_> {
    /// Send a protocol message, retrying lost attempts with exponential
    /// backoff per [`crate::params::RetryPolicy`]. The k-th retry departs
    /// `timeout(k)` after the previous failure — modeling a sender-side
    /// timeout without engine timer machinery (the fate of each attempt is
    /// known at send time). After exhausting the budget it returns the
    /// payload and the virtual time of the final failed attempt so the
    /// caller can degrade gracefully.
    ///
    /// With no fault plan the first attempt always succeeds and this is
    /// exactly one `try_send_at`.
    pub fn send(
        &mut self,
        dst: CoreId,
        bytes: u32,
        at: VirtualTime,
        payload: Payload,
    ) -> Result<(), (Payload, VirtualTime)> {
        let retry = self.params.retry;
        let mut t = at;
        let mut payload = match self.ops.try_send_at(self.me, dst, bytes, t, payload) {
            Ok(_) => return Ok(()),
            Err(p) => p,
        };
        for k in 0..retry.max_retries {
            t += retry.timeout(k);
            self.st.stats.send_retries += 1;
            self.ops.note_retry(self.me, dst, t);
            payload = match self.ops.try_send_at(self.me, dst, bytes, t, payload) {
                Ok(_) => return Ok(()),
                Err(p) => p,
            };
        }
        self.st.stats.send_failures += 1;
        Err((payload, t))
    }

    /// Send `msg`, on which `waiter` is blocked; if it is lost for good,
    /// wake `waiter` directly with `lost` at the final attempt's time so
    /// the step it waits for never deadlocks. Returns whether the message
    /// got through.
    pub fn send_or_wake(
        &mut self,
        dst: CoreId,
        bytes: u32,
        at: VirtualTime,
        msg: RtMsg,
        waiter: ActivityId,
        lost: impl Any,
    ) -> bool {
        match self.send(dst, bytes, at, Payload::new(msg)) {
            Ok(()) => true,
            Err((_, fail_t)) => {
                self.ops.wake(waiter, Box::new(lost), fail_t);
                false
            }
        }
    }

    /// Broadcast `me`'s occupancy to its neighbors (paper §IV: the
    /// accepting core "broadcasts its new task queue's state to its own
    /// neighbors").
    pub fn broadcast_occupancy(&mut self) {
        let me = self.me;
        let occupancy = self.st.cores[me.index()].occupancy();
        for n in self.ops.neighbors(me) {
            self.st.stats.occupancy_msgs += 1;
            // Best-effort: a lost occupancy hint only stales a proxy.
            let _ = self.ops.send(
                me,
                n,
                self.params.ctrl_msg_bytes,
                Payload::new(RtMsg::Occupancy {
                    from: me,
                    occupancy,
                }),
            );
        }
    }

    /// Ship `task` to `dst` with TASK_SPAWN, its birth recorded on `me` at
    /// `at` until it lands (paper §II.A). If the message is lost for good
    /// the birth is discarded and the task comes back, with the final
    /// attempt's time.
    pub fn ship(
        &mut self,
        dst: CoreId,
        at: VirtualTime,
        task: QueuedTask,
        reserved: bool,
        hops: u32,
    ) -> Result<(), (QueuedTask, VirtualTime)> {
        let me = self.me;
        let birth = self.ops.record_birth(me, at);
        let msg = RtMsg::TaskSpawn {
            body: task.body,
            group: task.group,
            birth,
            parent: me,
            name: task.name,
            reserved,
            pinned: task.pinned,
            hops,
        };
        let bytes = self.params.spawn_msg_bytes;
        let (mut payload, fail_t) = match self.send(dst, bytes, at, Payload::new(msg)) {
            Ok(()) => return Ok(()),
            Err(lost) => lost,
        };
        self.ops.discard_birth(me, birth);
        let RtMsg::TaskSpawn {
            body,
            group,
            name,
            pinned,
            ..
        } = payload.take::<RtMsg>()
        else {
            unreachable!("spawn payload round-trips")
        };
        Err((
            QueuedTask {
                body,
                group,
                name,
                pinned,
            },
            fail_t,
        ))
    }

    /// A program's spawn of `task` from `me`, now: it joins its group and
    /// is shipped to `target`. A pinned task is placed without a queue
    /// reservation; any other ships into the slot its probe reserved.
    pub fn spawn(
        &mut self,
        target: CoreId,
        task: QueuedTask,
    ) -> Result<(), (QueuedTask, VirtualTime)> {
        if let Some(g) = task.group {
            self.st.group(g).active += 1;
        }
        self.st.stats.spawns += 1;
        let at = self.ops.now(self.me);
        let reserved = !task.pinned;
        self.ship(target, at, task, reserved, 0)
    }

    /// Queue `task` on `me` and tell the neighborhood.
    pub fn enqueue(&mut self, task: QueuedTask) {
        self.st.cores[self.me.index()].queue.push_back(task);
        self.ops.queue_hint_add(self.me, 1);
        self.broadcast_occupancy();
    }

    /// A spawn that could not leave `me` (failed core / partition) keeps
    /// its task here. Only unpinned tasks come back: a pinned one that
    /// cannot reach its core is dropped instead.
    pub fn keep_local(&mut self, task: QueuedTask) {
        debug_assert!(!task.pinned, "a pinned task kept off its core");
        self.st.stats.fault_local_runs += 1;
        self.enqueue(task);
    }

    /// Release `lock` at its home `me`, virtually free from `free_at`; the
    /// next waiter, if any, is handed the lock with a LOCK_ACK sent at
    /// `send_at`.
    pub fn release_lock(&mut self, lock: LockId, free_at: VirtualTime, send_at: VirtualTime) {
        if let Some((activity, core)) = self.st.release(lock, free_at) {
            let bytes = self.params.ctrl_msg_bytes;
            let ack = RtMsg::LockAck { activity };
            self.send_or_wake(core, bytes, send_at, ack, activity, ());
        }
    }
}

impl RuntimeHooks for TaskRuntime {
    /// Fold the runtime's mutable state into a deterministic digest for
    /// verification checkpoints: protocol counters, per-core queue state,
    /// and the id allocators. Proxy maps are folded order-independently
    /// because their iteration order is unspecified. Groups are too: they
    /// lived in a hash map once, and the same fold keeps checkpoints
    /// written then resumable.
    fn state_digest(&self) -> u64 {
        let st = self.st.borrow();
        let mut d = Digest::new();
        let s = &st.stats;
        for x in [
            s.probes,
            s.probe_acks,
            s.probe_nacks,
            s.probe_skips,
            s.spawns,
            s.sequential_fallbacks,
            s.task_migrations,
            s.occupancy_msgs,
            s.joiner_notifies,
            s.joins_immediate,
            s.joins_suspended,
            s.sm_loads,
            s.sm_stores,
            s.coherence_legs,
            s.cell_local,
            s.cell_remote,
            s.cell_forwards,
            s.lock_fast,
            s.lock_waits,
            s.send_retries,
            s.send_failures,
            s.probe_unavailable,
            s.fault_local_runs,
            s.cell_access_failures,
            s.app_sends,
            s.app_deliveries,
            s.app_send_failures,
            s.timers_set,
            s.timer_fires,
            s.timers_stale,
            s.pinned_spawns,
            s.pinned_spawn_drops,
        ] {
            d.u64(x);
        }
        for core in &st.cores {
            d.u64(core.queue.len() as u64);
            d.u64(u64::from(core.reserved));
            d.unordered(&core.proxy, |e, (&c, &occ)| {
                e.u64(u64::from(c.0)).u64(u64::from(occ));
            });
            // Mailbox order is deterministic (delivery order), so fold it
            // order-dependently; the waiter registration and token are part
            // of the resumable state too.
            d.u64(core.mailbox.len() as u64);
            for m in &core.mailbox {
                d.u64(u64::from(m.from.0)).u64(u64::from(m.tag));
                for w in m.data {
                    d.u64(w);
                }
            }
            d.u64(core.recv_token);
            match core.recv_waiter {
                Some((aid, token)) => d.u64(1).u64(aid.0).u64(token),
                None => d.u64(0),
            };
        }
        d.u64(st.groups.len() as u64);
        d.u64(st.cells.len() as u64);
        d.u64(st.locks.len() as u64);
        d.unordered(st.groups.iter().enumerate(), |e, (id, g)| {
            e.u64(id as u64)
                .u64(u64::from(g.active))
                .u64(g.joiners.len() as u64);
        });
        d.finish()
    }

    fn on_message(&self, ops: &mut Ops<'_>, mut env: Envelope) {
        let me = env.dst;
        ops.advance_core(me, self.params.handler_cost.cycles());
        // Replies are dated from the request's arrival plus the local
        // processing time (paper §II.A), never from the responder's own
        // clock, which may have drifted arbitrarily.
        let reply_at = env.arrival + self.params.handler_cost;
        let ctrl = self.params.ctrl_msg_bytes;
        let msg = env.payload.take::<RtMsg>();
        self.step(ops, me, |s| match msg {
            RtMsg::Probe { prober, reply_to } => {
                // A failed core accepts no new work: every probe is denied
                // (the prober falls back to running the task locally —
                // the paper's conditional-spawn model).
                let failed = s.ops.core_failed(me, env.arrival);
                let core = &mut s.st.cores[me.index()];
                let granted = !failed && core.occupancy() < s.params.queue_capacity;
                if granted {
                    core.reserved += 1;
                }
                let occupancy = core.occupancy();
                if failed {
                    s.st.stats.probe_unavailable += 1;
                }
                if granted {
                    s.st.stats.probe_acks += 1;
                } else {
                    s.st.stats.probe_nacks += 1;
                }
                let reply = RtMsg::ProbeReply {
                    prober,
                    granted,
                    responder: me,
                    occupancy,
                };
                // A reply lost for good denies the prober directly (it
                // blocked before this handler ran — the run-token protocol
                // guarantees it) and revokes the reservation.
                let denied: Option<CoreId> = None;
                if !s.send_or_wake(reply_to, ctrl, reply_at, reply, prober, denied) && granted {
                    s.st.cores[me.index()].reserved -= 1;
                }
            }
            RtMsg::ProbeReply {
                prober,
                granted,
                responder,
                occupancy,
            } => {
                s.st.cores[me.index()].proxy.insert(responder, occupancy);
                // The prober wakes with the reserved core, or `None`.
                let at = s.ops.now(me);
                s.ops
                    .wake(prober, Box::new(granted.then_some(responder)), at);
            }
            RtMsg::TaskSpawn {
                body,
                group,
                birth,
                parent,
                name,
                reserved,
                pinned,
                hops,
            } => {
                s.ops.discard_birth(parent, birth);
                let core = &mut s.st.cores[me.index()];
                if reserved {
                    assert!(core.reserved > 0, "TASK_SPAWN without reservation");
                    core.reserved -= 1;
                }
                let task = QueuedTask {
                    body,
                    group,
                    name,
                    pinned,
                };
                // Progressive task migration (paper §IV: tasks "migrate to
                // other cores if the local ones are overloaded"): if this
                // task would wait behind queued work and a neighbor looks
                // idle, pass it along instead of enqueueing. Pinned tasks
                // never move — their placement is the program's contract.
                const MAX_MIGRATION_HOPS: u32 = 16;
                let busy = s.ops.current_activity(me).is_some() || !core.queue.is_empty();
                let target = if busy && !pinned && hops < MAX_MIGRATION_HOPS {
                    s.ops
                        .neighbors(me)
                        .into_iter()
                        .filter(|&n| n != env.src)
                        .find(|n| core.proxy.get(n).copied().unwrap_or(0) == 0)
                        // Never migrate onto a failed core.
                        .filter(|&n| !s.ops.core_failed(n, env.arrival))
                } else {
                    None
                };
                let Some(t) = target else {
                    s.enqueue(task);
                    return;
                };
                s.st.stats.task_migrations += 1;
                // Optimistically bump the proxy so repeated arrivals do not
                // all pile onto the same neighbor before its occupancy
                // broadcast comes back.
                s.st.cores[me.index()].proxy.insert(t, 1);
                if let Err((task, _)) = s.ship(t, reply_at, task, false, hops + 1) {
                    s.keep_local(task);
                }
            }
            RtMsg::Occupancy { from, occupancy } => {
                let core = &mut s.st.cores[me.index()];
                core.proxy.insert(from, occupancy);
                // Progressive migration, pull-triggered: a neighbor just
                // announced an empty queue while we have more than one task
                // waiting — hand one over (paper §IV: tasks migrate when
                // the local cores are overloaded).
                if occupancy == 0
                    && core.queue.len() > 1
                    && core.queue.back().is_some_and(|t| !t.pinned)
                    && !s.ops.core_failed(from, env.arrival)
                {
                    let task = core.queue.pop_back().expect("len > 1");
                    core.proxy.insert(from, 1);
                    s.st.stats.task_migrations += 1;
                    s.ops.queue_hint_sub(me, 1);
                    // Either way our own occupancy changed: the
                    // neighborhood hears of it.
                    match s.ship(from, reply_at, task, false, 0) {
                        Ok(()) => s.broadcast_occupancy(),
                        Err((task, _)) => s.keep_local(task),
                    }
                }
            }
            RtMsg::JoinerRequest { joiner: waiter }
            | RtMsg::DataResponse { activity: waiter }
            | RtMsg::LockAck { activity: waiter } => {
                let at = s.ops.now(me);
                s.ops.wake(waiter, Box::new(()), at);
            }
            RtMsg::DataRequest {
                cell,
                requester,
                activity,
                hops,
            } => {
                let info = s.st.cell(cell);
                let sent = if info.location == me {
                    info.location = requester;
                    let size = info.size_bytes;
                    let response = RtMsg::DataResponse { activity };
                    s.send_or_wake(requester, size, reply_at, response, activity, ())
                } else {
                    // Stale location: chase the cell.
                    let loc = info.location;
                    s.st.stats.cell_forwards += 1;
                    let forward = RtMsg::DataRequest {
                        cell,
                        requester,
                        activity,
                        hops: hops + 1,
                    };
                    s.send_or_wake(loc, ctrl, reply_at, forward, activity, ())
                };
                if !sent {
                    // The requester was unblocked anyway so the run can
                    // finish: a degraded (backing-store) access.
                    s.st.stats.cell_access_failures += 1;
                }
            }
            RtMsg::LockRequest {
                lock,
                activity,
                requester,
            } => {
                debug_assert_eq!(s.st.lock_state(lock).home, me);
                if let Some(free_at) = s.st.acquire(lock, activity, requester) {
                    // Grants never predate the previous release; a lost
                    // grant hands over directly (the lock stays held by the
                    // requester, and free_at keeps the serialization).
                    let ack = RtMsg::LockAck { activity };
                    s.send_or_wake(requester, ctrl, reply_at.max(free_at), ack, activity, ());
                }
            }
            RtMsg::LockRelease { lock } => {
                debug_assert_eq!(s.st.lock_state(lock).home, me);
                s.release_lock(lock, env.arrival, reply_at);
            }
            RtMsg::App { from, tag, data } => {
                s.st.stats.app_deliveries += 1;
                let core = &mut s.st.cores[me.index()];
                core.mailbox
                    .push_back(crate::state::AppMsg { from, tag, data });
                // Wake the registered receiver (its armed timer goes stale:
                // the token was consumed with the registration).
                if let Some((waiter, _token)) = core.recv_waiter.take() {
                    let at = s.ops.now(me);
                    s.ops.wake(waiter, Box::new(()), at);
                }
            }
            RtMsg::Deadline { token } => {
                let core = &mut s.st.cores[me.index()];
                match core.recv_waiter {
                    Some((waiter, t)) if t == token => {
                        core.recv_waiter = None;
                        s.st.stats.timer_fires += 1;
                        let at = s.ops.now(me);
                        s.ops.wake(waiter, Box::new(()), at);
                    }
                    // The wait this timer was armed for is already over
                    // (a message arrived first, or a newer wait replaced
                    // it): ignore.
                    _ => s.st.stats.timers_stale += 1,
                }
            }
        })
    }

    fn on_idle(&self, ops: &mut Ops<'_>, core: CoreId) {
        let task = self.step(ops, core, |s| {
            let task = s.st.cores[core.index()]
                .queue
                .pop_front()
                .expect("on_idle with empty queue");
            s.broadcast_occupancy();
            task
        });
        ops.queue_hint_sub(core, 1);
        // "Starting a task on a core has an overhead of 10 cycles in
        // addition to the time to receive the spawn message" (§V).
        ops.advance_core(core, self.params.task_start_cost.cycles());
        let meta = TaskMeta { group: task.group };
        let this = self.me.upgrade().expect("runtime Arc gone");
        ops.start_activity(core, task.name, Box::new(meta), this.wrap(task.body));
    }

    fn on_activity_end(&self, ops: &mut Ops<'_>, core: CoreId, meta: Box<dyn Any + Send>) {
        let meta = meta.downcast::<TaskMeta>().expect("foreign activity meta");
        let Some(g) = meta.group else { return };
        let ctrl = self.params.ctrl_msg_bytes;
        self.step(ops, core, |s| {
            for (joiner, jcore) in s.st.leave_group(g) {
                s.st.stats.joiner_notifies += 1;
                let at = s.ops.now(core);
                let notify = RtMsg::JoinerRequest { joiner };
                s.send_or_wake(jcore, ctrl, at, notify, joiner, ());
            }
        });
    }
}
