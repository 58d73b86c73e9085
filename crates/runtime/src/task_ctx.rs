//! `TaskCtx` — the API task bodies program against.
//!
//! A task is an ordinary Rust closure over `&mut TaskCtx`; between calls it
//! runs natively at host speed. `TaskCtx` provides the paper's programming
//! model: timing annotations, conditional spawning (`probe`/`spawn`), task
//! groups and `join`, shared-memory accesses timed by the memory models,
//! distributed-memory cells, and simulated locks.

use crate::msg::RtMsg;
use crate::runtime::{ProbeOutcome, TaskRuntime};
use crate::state::{CellId, GroupId, LockId};
use simany_core::{BlockCost, ExecCtx, Payload, VirtualTime};
use simany_mem::{Addr, ScopedL1};
use simany_time::{VDuration, Xoshiro256StarStar};
use simany_topology::CoreId;
use std::sync::Arc;

/// A task body: what `spawn` ships to another core.
pub type TaskBody = Box<dyn FnOnce(&mut TaskCtx<'_>) + Send>;

/// Execution context of one task.
pub struct TaskCtx<'a> {
    ec: &'a mut ExecCtx,
    rt: Arc<TaskRuntime>,
    /// Pessimistic L1 presence (reads or writes).
    l1: ScopedL1,
    /// Write-permission presence (first write in scope upgrades the line
    /// through the directory when coherence timings are on).
    l1w: ScopedL1,
    rng: Xoshiro256StarStar,
}

impl<'a> TaskCtx<'a> {
    pub(crate) fn new(ec: &'a mut ExecCtx, rt: Arc<TaskRuntime>) -> Self {
        let seed = ec.with_ops(|ops| ops.seed());
        let line = rt.params.mem.line_bytes;
        let rng = Xoshiro256StarStar::stream(seed, 0x7A5C_0000 ^ ec.id().0);
        TaskCtx {
            ec,
            rt,
            l1: ScopedL1::new(line),
            l1w: ScopedL1::new(line),
            rng,
        }
    }

    // ----- introspection ---------------------------------------------------

    /// The core this task runs on.
    pub fn core(&self) -> CoreId {
        self.ec.core()
    }

    /// Current virtual time of this core.
    pub fn now(&self) -> VirtualTime {
        self.ec.now()
    }

    /// Number of simulated cores.
    pub fn n_cores(&self) -> u32 {
        self.ec.n_cores()
    }

    /// Run-time parameters (architecture type, costs...).
    pub fn params(&self) -> &crate::params::RuntimeParams {
        self.rt.params()
    }

    /// Deterministic per-task random number in `[0, bound)`.
    pub fn rand_below(&mut self, bound: u64) -> u64 {
        self.rng.next_below(bound)
    }

    /// Deterministic per-task Bernoulli trial.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.chance(p)
    }

    // ----- timing annotations ----------------------------------------------

    /// Execute a timing annotation for an instruction block (paper §II.A).
    /// With a detailed timing plug-in installed (cycle-level reference),
    /// the block is timed by the detailed pipeline/predictor model instead
    /// of the abstract cost table.
    pub fn compute(&mut self, block: &BlockCost) {
        if let Some(detailed) = self.rt.params.detailed.clone() {
            let core = self.core();
            let cycles = detailed.block_cycles(core, block);
            self.ec.advance_cycles(cycles);
        } else {
            self.ec.compute(block);
        }
    }

    /// Shorthand: charge `n` simple-integer-op cycles.
    pub fn work(&mut self, n: u64) {
        self.ec.advance_cycles(n);
    }

    // ----- conditional spawning (paper §IV) ---------------------------------

    /// Create a task group.
    pub fn make_group(&mut self) -> GroupId {
        self.rt.create_group()
    }

    /// The `probe` primitive: consult the occupancy proxies; if a neighbor
    /// looks free, send it a PROBE reservation and wait for the reply.
    /// Returns the reserved core on success.
    pub fn probe(&mut self) -> Option<CoreId> {
        let rt = Arc::clone(&self.rt);
        let params = rt.params();
        let me = self.core();
        let my_aid = self.ec.id();
        let candidate = self.ec.with_ops(|ops| {
            let now = ops.now(me);
            // Failed cores accept no new work: drop them from the candidate
            // set up front instead of wasting a probe round-trip.
            let neighbors: Vec<CoreId> = ops
                .neighbors(me)
                .into_iter()
                .filter(|&n| {
                    let failed = ops.core_failed(n, now);
                    if failed {
                        rt.st.lock().stats.probe_unavailable += 1;
                    }
                    !failed
                })
                .collect();
            let mut st = rt.st.lock();
            if neighbors.is_empty() {
                st.stats.probe_skips += 1;
                return None;
            }
            // Order candidates per the spawn policy using the proxies.
            let pick = match params.spawn_policy {
                crate::params::SpawnPolicy::LeastLoaded => neighbors
                    .iter()
                    .copied()
                    .min_by_key(|n| (*st.cores[me.index()].proxy.get(n).unwrap_or(&0), n.0)),
                crate::params::SpawnPolicy::RoundRobin => {
                    let cur = st.spawn_cursor[me.index()] as usize % neighbors.len();
                    st.spawn_cursor[me.index()] += 1;
                    Some(neighbors[cur])
                }
                crate::params::SpawnPolicy::FavorFast => {
                    neighbors.iter().copied().min_by_key(|n| {
                        let occ = *st.cores[me.index()].proxy.get(n).unwrap_or(&0);
                        let speed = ops.speed(*n);
                        // Effective load: queue length divided by speed —
                        // compare occ * den/num via cross-multiplied key.
                        (
                            u64::from(occ + 1) * u64::from(speed.den) * 1000 / u64::from(speed.num),
                            n.0,
                        )
                    })
                }
            }?;
            // Only probe when the proxy suggests a free slot.
            let believed = *st.cores[me.index()].proxy.get(&pick).unwrap_or(&0);
            if believed >= params.queue_capacity {
                st.stats.probe_skips += 1;
                return None;
            }
            st.stats.probes += 1;
            drop(st);
            let sent = rt.retry_send(
                ops,
                me,
                pick,
                params.ctrl_msg_bytes,
                now,
                Payload::new(RtMsg::Probe {
                    prober: my_aid,
                    reply_to: me,
                }),
            );
            match sent {
                Ok(_) => Some(pick),
                Err((_, fail_t)) => {
                    // The probe never got through: treat it as denied (the
                    // caller falls back to sequential execution) and charge
                    // the time spent retrying.
                    ops.advance_core_to(me, fail_t);
                    None
                }
            }
        });
        candidate?;
        let outcome = self.ec.block("probe");
        let outcome = outcome.downcast::<ProbeOutcome>().expect("probe outcome");
        if outcome.granted {
            Some(outcome.target)
        } else {
            None
        }
    }

    /// Ship a task to a core previously reserved with [`Self::probe`]. The
    /// task's birth time is recorded on this core until it lands
    /// (paper §II.A).
    pub fn spawn(&mut self, target: CoreId, group: Option<GroupId>, body: TaskBody) {
        self.spawn_named(target, group, "task", body)
    }

    /// [`Self::spawn`] with a debug name.
    pub fn spawn_named(
        &mut self,
        target: CoreId,
        group: Option<GroupId>,
        name: &'static str,
        body: TaskBody,
    ) {
        let rt = Arc::clone(&self.rt);
        let me = self.core();
        self.ec.with_ops(|ops| {
            if let Some(g) = group {
                let mut st = rt.st.lock();
                st.groups.get_mut(&g.0).expect("unknown group").active += 1;
                st.stats.spawns += 1;
            } else {
                rt.st.lock().stats.spawns += 1;
            }
            let at = ops.now(me);
            let birth = ops.record_birth(me, at);
            let sent = rt.retry_send(
                ops,
                me,
                target,
                rt.params().spawn_msg_bytes,
                at,
                Payload::new(RtMsg::TaskSpawn {
                    body,
                    group,
                    birth,
                    parent: me,
                    name,
                    reserved: true,
                    pinned: false,
                    hops: 0,
                }),
            );
            if let Err((mut payload, fail_t)) = sent {
                // The spawn cannot reach its reserved target (failed core /
                // partition): run the task on this core instead. The remote
                // reservation leaks, which is harmless — the target is
                // unreachable anyway.
                ops.discard_birth(me, birth);
                let RtMsg::TaskSpawn {
                    body, group, name, ..
                } = payload.take::<RtMsg>()
                else {
                    unreachable!("spawn payload round-trips")
                };
                ops.advance_core_to(me, fail_t);
                let mut st = rt.st.lock();
                st.stats.fault_local_runs += 1;
                st.cores[me.index()]
                    .queue
                    .push_back(crate::state::QueuedTask {
                        body,
                        group,
                        name,
                        pinned: false,
                    });
                ops.queue_hint_add(me, 1);
                rt.broadcast_occupancy(ops, &mut st, me);
            }
        });
    }

    /// Place a task on an exact core. Unlike [`Self::spawn`], the task is
    /// *pinned* — it never migrates, and no queue reservation is made — so
    /// a protocol node lands on precisely the core it models. If the target
    /// is unreachable after the retry budget, the task is **dropped** (its
    /// group counter is rolled back and `pinned_spawn_drops` counts it)
    /// rather than run on the wrong core. Returns whether the spawn message
    /// got through.
    pub fn spawn_pinned(
        &mut self,
        target: CoreId,
        group: Option<GroupId>,
        name: &'static str,
        body: TaskBody,
    ) -> bool {
        let rt = Arc::clone(&self.rt);
        let me = self.core();
        self.ec.with_ops(|ops| {
            {
                let mut st = rt.st.lock();
                if let Some(g) = group {
                    st.groups.get_mut(&g.0).expect("unknown group").active += 1;
                }
                st.stats.spawns += 1;
                st.stats.pinned_spawns += 1;
            }
            let at = ops.now(me);
            let birth = ops.record_birth(me, at);
            let sent = rt.retry_send(
                ops,
                me,
                target,
                rt.params().spawn_msg_bytes,
                at,
                Payload::new(RtMsg::TaskSpawn {
                    body,
                    group,
                    birth,
                    parent: me,
                    name,
                    reserved: false,
                    pinned: true,
                    hops: 0,
                }),
            );
            match sent {
                Ok(_) => true,
                Err((_, fail_t)) => {
                    ops.discard_birth(me, birth);
                    ops.advance_core_to(me, fail_t);
                    let mut st = rt.st.lock();
                    st.stats.pinned_spawn_drops += 1;
                    let mut orphaned_joiners = Vec::new();
                    if let Some(g) = group {
                        let grp = st.groups.get_mut(&g.0).expect("unknown group");
                        assert!(grp.active > 0, "group counter underflow");
                        grp.active -= 1;
                        if grp.active == 0 {
                            orphaned_joiners = std::mem::take(&mut grp.joiners);
                        }
                    }
                    drop(st);
                    // No sane program joins before it finished spawning, but
                    // keep the group sound regardless.
                    for (joiner, _jcore) in orphaned_joiners {
                        ops.wake(joiner, Box::new(()), fail_t);
                    }
                    false
                }
            }
        })
    }

    // ----- protocol messaging (protocol workload pack) -----------------------

    /// Send an application-level protocol message to `dst`, retrying lost
    /// attempts with the runtime's exponential-backoff [`RetryPolicy`]
    /// (`crate::params::RetryPolicy`). Returns `true` when some attempt got
    /// through (the sender knows each attempt's fate at send time — the
    /// engine's out-of-order send model). On failure this core's clock is
    /// advanced past the final attempt, so protocol-level timeouts measured
    /// from `now()` stay meaningful.
    pub fn send_app(&mut self, dst: CoreId, tag: u32, data: [u64; 4]) -> bool {
        let rt = Arc::clone(&self.rt);
        let me = self.core();
        let bytes = rt.params().ctrl_msg_bytes;
        self.ec.with_ops(|ops| {
            rt.st.lock().stats.app_sends += 1;
            let at = ops.now(me);
            let sent = rt.retry_send(
                ops,
                me,
                dst,
                bytes,
                at,
                Payload::new(RtMsg::App {
                    from: me,
                    tag,
                    data,
                }),
            );
            match sent {
                Ok(_) => true,
                Err((_, fail_t)) => {
                    rt.st.lock().stats.app_send_failures += 1;
                    ops.advance_core_to(me, fail_t);
                    false
                }
            }
        })
    }

    /// Wait for an application message until `deadline` (an absolute
    /// virtual time). Returns the message, or `None` once this core's clock
    /// reaches the deadline with an empty mailbox.
    ///
    /// The timeout is a **self-addressed deadline message**: a same-core
    /// send traverses no links, so it is immune to the fault plan and
    /// arrives at exactly `deadline` — the protocol re-issue primitive works
    /// identically under partitions, lossy links and core churn. A message
    /// arriving first consumes the waiter registration; the now-stale timer
    /// is recognized by its token and ignored.
    pub fn recv_deadline(&mut self, deadline: VirtualTime) -> Option<crate::state::AppMsg> {
        loop {
            let rt = Arc::clone(&self.rt);
            let me = self.core();
            let my_aid = self.ec.id();
            if let Some(m) = rt.st.lock().cores[me.index()].mailbox.pop_front() {
                return Some(m);
            }
            if self.now() >= deadline {
                return None;
            }
            self.ec.with_ops(|ops| {
                let mut st = rt.st.lock();
                let core = &mut st.cores[me.index()];
                assert!(
                    core.recv_waiter.is_none(),
                    "one recv_deadline waiter per core"
                );
                core.recv_token += 1;
                let token = core.recv_token;
                core.recv_waiter = Some((my_aid, token));
                st.stats.timers_set += 1;
                drop(st);
                let sent =
                    ops.try_send_at(me, me, 0, deadline, Payload::new(RtMsg::Deadline { token }));
                debug_assert!(sent.is_ok(), "self-send timers are infallible");
            });
            let _ = self.ec.block("recv");
        }
    }

    /// True iff this core has permanently failed (crash-stop churn) by its
    /// current virtual time. Protocol nodes use this to fall silent when
    /// the fault plan kills their core.
    pub fn core_failed(&mut self) -> bool {
        let me = self.core();
        self.ec.with_ops(|ops| {
            let now = ops.now(me);
            ops.core_failed(me, now)
        })
    }

    /// Conditional spawn: probe, and either ship `body` to the reserved
    /// neighbor or run it sequentially right here (the paper's fallback:
    /// "When the probe is denied, no task is spawned and the program
    /// executes the code of the task sequentially").
    pub fn spawn_or_run(
        &mut self,
        group: GroupId,
        body: impl FnOnce(&mut TaskCtx<'_>) + Send + 'static,
    ) {
        let body: TaskBody = Box::new(body);
        match self.probe() {
            Some(target) => self.spawn(target, Some(group), body),
            None => {
                self.rt.st.lock().stats.sequential_fallbacks += 1;
                body(self);
            }
        }
    }

    /// Wait until every task in `group` has terminated. If tasks are still
    /// active the execution context is saved and the core freed until the
    /// JOINER_REQUEST arrives (paper §IV); resuming costs the engine's
    /// 15-cycle context switch.
    pub fn join(&mut self, group: GroupId) {
        let rt = Arc::clone(&self.rt);
        let me_aid = self.ec.id();
        let me = self.core();
        let suspended = self.ec.with_ops(|_ops| {
            let mut st = rt.st.lock();
            let g = st.groups.get_mut(&group.0).expect("unknown group");
            if g.active == 0 {
                st.stats.joins_immediate += 1;
                false
            } else {
                g.joiners.push((me_aid, me));
                st.stats.joins_suspended += 1;
                true
            }
        });
        if suspended {
            // Full suspension: resuming costs the paper's 15-cycle context
            // switch.
            let _ = self.ec.block_with("join", true);
        }
    }

    // ----- shared-memory accesses (paper §V, shared-memory type) ------------

    /// Enter/exit a function scope around `f`: the pessimistic L1 forgets
    /// all lines touched inside once `f` returns (paper §V).
    pub fn scope<R>(&mut self, f: impl FnOnce(&mut TaskCtx<'_>) -> R) -> R {
        self.l1.enter_scope();
        self.l1w.enter_scope();
        let r = f(self);
        self.l1.exit_scope();
        self.l1w.exit_scope();
        r
    }

    /// Timed shared-memory load of `addr`.
    pub fn load(&mut self, addr: Addr) {
        let hit = self.l1.access(addr);
        self.mem_access(addr, hit, false);
    }

    /// Timed shared-memory store to `addr`.
    pub fn store(&mut self, addr: Addr) {
        let whit = self.l1w.access(addr);
        if !whit {
            self.l1.access(addr);
        }
        self.mem_access(addr, whit, true);
    }

    fn mem_access(&mut self, addr: Addr, l1_hit: bool, write: bool) {
        let rt = Arc::clone(&self.rt);
        let me = self.core();
        let params = rt.params().clone();
        if let Some(detailed) = params.detailed.clone() {
            self.ec.with_ops_synced(|ops| {
                {
                    let mut st = rt.st.lock();
                    if write {
                        st.stats.sm_stores += 1;
                    } else {
                        st.stats.sm_loads += 1;
                    }
                }
                detailed.mem_access(ops, me, addr, write);
            });
            return;
        }
        self.ec.with_ops_synced(|ops| {
            let mut st = rt.st.lock();
            if write {
                st.stats.sm_stores += 1;
            } else {
                st.stats.sm_loads += 1;
            }
            if l1_hit {
                st.stats.l1_hits += 1;
                drop(st);
                ops.advance_core(me, params.mem.l1_latency.cycles());
                return;
            }
            st.stats.l1_misses += 1;
            // Coherence-effect timings (validation mode): charge the legs a
            // real MSI directory would exchange.
            let mut extra = VDuration::ZERO;
            if let Some(dir) = st.directory.as_mut() {
                let legs = if write {
                    dir.write(me, addr)
                } else {
                    dir.read(me, addr)
                };
                st.stats.coherence_legs += legs.len() as u64;
                for leg in legs {
                    extra += ops.uncontended_latency(leg.from, leg.to, leg.bytes);
                }
            }
            drop(st);
            ops.advance_core(me, params.mem.backing_latency.cycles());
            if !extra.is_zero() {
                ops.advance_core_raw(me, extra);
            }
        });
    }

    // ----- distributed-memory cells (paper §IV) ------------------------------

    /// Allocate a cell of `size_bytes`, initially located on this core.
    pub fn alloc_cell(&mut self, size_bytes: u32) -> CellId {
        self.rt.create_cell(self.core(), size_bytes)
    }

    /// Access a cell (read or write — the run-time system implements both
    /// "as an exclusive operation", §VI): if remote, DATA_REQUEST /
    /// DATA_RESPONSE move it into this core's L2 first.
    pub fn cell_access(&mut self, cell: CellId) {
        let rt = Arc::clone(&self.rt);
        let me = self.core();
        let my_aid = self.ec.id();
        let params = rt.params().clone();
        let local = self.ec.with_ops(|ops| {
            let mut st = rt.st.lock();
            let loc = st.cells.get(&cell.0).expect("unknown cell").location;
            if loc == me {
                st.stats.cell_local += 1;
                true
            } else {
                st.stats.cell_remote += 1;
                drop(st);
                let at = ops.now(me);
                let sent = rt.retry_send(
                    ops,
                    me,
                    loc,
                    params.ctrl_msg_bytes,
                    at,
                    Payload::new(RtMsg::DataRequest {
                        cell,
                        requester: me,
                        activity: my_aid,
                        hops: 0,
                    }),
                );
                match sent {
                    Ok(_) => false,
                    Err((_, fail_t)) => {
                        // The cell's home is unreachable: degrade to a
                        // backing-store access without moving the cell.
                        rt.st.lock().stats.cell_access_failures += 1;
                        ops.advance_core_to(me, fail_t);
                        true
                    }
                }
            }
        });
        if !local {
            let _ = self.ec.block("cell");
        }
        // The data now sits in this core's L2 (paper §V: "the requested
        // data are stored in the initiating core's L2 cache, where they can
        // be accessed with the usual 10-cycle latency").
        let backing = params.mem.backing_latency.cycles();
        self.ec.advance_cycles(backing);
    }

    /// Broadcast `size_bytes` from this core to every other core along a
    /// breadth-first tree over the topology, charging all link traversals
    /// (with contention) and advancing this core to the completion time.
    /// Models bulk distribution phases such as Barnes-Hut's "the built
    /// tree has been broadcasted to all cores" (paper §V) when a program
    /// wants that phase *inside* the measured region.
    pub fn broadcast(&mut self, size_bytes: u32) {
        let me = self.core();
        self.ec.with_ops_synced(|ops| {
            let n = ops.n_cores();
            let start = ops.now(me);
            let mut arrival = vec![None; n as usize];
            arrival[me.index()] = Some(start);
            let mut queue = std::collections::VecDeque::from([me]);
            let mut last = start;
            while let Some(c) = queue.pop_front() {
                let at = arrival[c.index()].expect("visited");
                for nb in ops.neighbors(c) {
                    if arrival[nb.index()].is_none() {
                        let t = ops.transit(c, nb, size_bytes, at);
                        arrival[nb.index()] = Some(t);
                        last = last.max(t);
                        queue.push_back(nb);
                    }
                }
            }
            ops.advance_core_to(me, last);
        });
    }

    /// Where a cell currently lives (placement diagnostics).
    pub fn cell_location(&self, cell: CellId) -> CoreId {
        self.rt
            .st
            .lock()
            .cells
            .get(&cell.0)
            .expect("unknown cell")
            .location
    }

    // ----- locks (paper §II.B) -----------------------------------------------

    /// Create a lock homed on this core.
    pub fn make_lock(&mut self) -> LockId {
        self.rt.create_lock(self.core())
    }

    /// Acquire a simulated lock. While held, the synchronization policy
    /// never stalls this core (the waiver of paper §II.B).
    pub fn lock(&mut self, lock: LockId) {
        let rt = Arc::clone(&self.rt);
        let me = self.core();
        let my_aid = self.ec.id();
        let params = rt.params().clone();
        let acquired_locally = self.ec.with_ops(|ops| {
            let mut st = rt.st.lock();
            let ls = st.locks.get_mut(&lock.0).expect("unknown lock");
            if ls.home == me {
                if ls.held {
                    ls.waiters.push_back((my_aid, me));
                    st.stats.lock_waits += 1;
                    Some(false)
                } else {
                    ls.held = true;
                    // The lock may have been virtually free only in the
                    // future (out-of-order processing): wait for it.
                    let free_at = ls.free_at;
                    st.stats.lock_fast += 1;
                    drop(st);
                    ops.advance_core_to(me, free_at);
                    Some(true)
                }
            } else {
                let home = ls.home;
                drop(st);
                let at = ops.now(me);
                let sent = rt.retry_send(
                    ops,
                    me,
                    home,
                    params.ctrl_msg_bytes,
                    at,
                    Payload::new(RtMsg::LockRequest {
                        lock,
                        activity: my_aid,
                        requester: me,
                    }),
                );
                match sent {
                    Ok(_) => None,
                    Err((_, fail_t)) => {
                        // The lock's home is unreachable: proceed as if
                        // acquired (degraded mutual exclusion — the home is
                        // partitioned away, so no reachable core contends
                        // through it either).
                        ops.advance_core_to(me, fail_t);
                        Some(true)
                    }
                }
            }
        });
        match acquired_locally {
            Some(true) => {}
            Some(false) | None => {
                let _ = self.ec.block("lock");
            }
        }
        self.ec.critical_enter();
    }

    /// Release a simulated lock; the next waiter (if any) is granted.
    pub fn unlock(&mut self, lock: LockId) {
        let rt = Arc::clone(&self.rt);
        let me = self.core();
        let params = rt.params().clone();
        self.ec.with_ops(|ops| {
            let mut st = rt.st.lock();
            let now = ops.now(me);
            let ls = st.locks.get_mut(&lock.0).expect("unknown lock");
            if ls.home == me {
                ls.free_at = ls.free_at.max(now);
                if let Some((activity, core)) = ls.waiters.pop_front() {
                    drop(st);
                    let sent = rt.retry_send(
                        ops,
                        me,
                        core,
                        params.ctrl_msg_bytes,
                        now,
                        Payload::new(RtMsg::LockAck { activity }),
                    );
                    if let Err((_, fail_t)) = sent {
                        // Handoff lost: wake the waiter directly so the
                        // lock chain keeps moving.
                        ops.wake(activity, Box::new(()), fail_t);
                    }
                } else {
                    ls.held = false;
                }
            } else {
                let home = ls.home;
                drop(st);
                // Best effort: if the release never reaches the home core,
                // it is unreachable anyway — retry_send already counted the
                // failure.
                let _ = rt.retry_send(
                    ops,
                    me,
                    home,
                    params.ctrl_msg_bytes,
                    now,
                    Payload::new(RtMsg::LockRelease { lock }),
                );
            }
        });
        self.ec.critical_exit();
    }

    /// Escape hatch to the raw engine context (advanced use: custom
    /// runtimes layered on top, instrumentation).
    pub fn raw(&mut self) -> &mut ExecCtx {
        self.ec
    }
}
