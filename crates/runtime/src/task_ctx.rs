//! `TaskCtx` — the API task bodies program against.
//!
//! A task is an ordinary Rust closure over `&mut TaskCtx`; between calls it
//! runs natively at host speed. `TaskCtx` provides the paper's programming
//! model: timing annotations, conditional spawning (`probe`/`spawn`), task
//! groups and `join`, shared-memory accesses timed by the memory models,
//! distributed-memory cells, and simulated locks.

use crate::msg::RtMsg;
use crate::params::SpawnPolicy;
use crate::runtime::{Step, TaskRuntime};
use crate::state::{CellId, GroupId, LockId, QueuedTask};
use simany_core::{BlockCost, ExecCtx, Payload, VirtualTime};
use simany_mem::{Addr, ScopedL1};
use simany_time::{VDuration, Xoshiro256StarStar};
use simany_topology::CoreId;

/// A task body: what `spawn` ships to another core.
pub type TaskBody = Box<dyn FnOnce(&mut TaskCtx<'_>)>;

/// Execution context of one task.
pub struct TaskCtx<'a> {
    ec: &'a mut ExecCtx,
    rt: &'a TaskRuntime,
    /// Pessimistic L1 presence (reads or writes).
    l1: ScopedL1,
    /// Write-permission presence (first write in scope upgrades the line
    /// through the directory when coherence timings are on).
    l1w: ScopedL1,
    rng: Xoshiro256StarStar,
}

impl<'a> TaskCtx<'a> {
    pub(crate) fn new(ec: &'a mut ExecCtx, rt: &'a TaskRuntime) -> Self {
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

    /// One protocol step on this task's core: the run-time state is locked
    /// once, inside `with_ops`, for all of `f`.
    fn step<R>(&mut self, f: impl FnOnce(&mut Step<'_, '_>) -> R) -> R {
        let (rt, me) = (self.rt, self.core());
        self.ec.with_ops(|ops| rt.step(ops, me, f))
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
        &self.rt.params
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
        if let Some(detailed) = &self.rt.params.detailed {
            let cycles = detailed.block_cycles(self.ec.core(), block);
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
        self.rt.st.borrow_mut().new_group()
    }

    /// The `probe` primitive: consult the occupancy proxies; if a neighbor
    /// looks free, send it a PROBE reservation and wait for the reply.
    /// Returns the reserved core on success.
    pub fn probe(&mut self) -> Option<CoreId> {
        let prober = self.ec.id();
        let asked = self.step(|s| {
            let me = s.me;
            let now = s.ops.now(me);
            // Failed cores accept no new work: drop them from the candidate
            // set up front instead of wasting a probe round-trip.
            let neighbors: Vec<CoreId> = s
                .ops
                .neighbors(me)
                .into_iter()
                .filter(|&n| {
                    let failed = s.ops.core_failed(n, now);
                    if failed {
                        s.st.stats.probe_unavailable += 1;
                    }
                    !failed
                })
                .collect();
            // Pick a candidate per the spawn policy using the proxies.
            let proxy = &s.st.cores[me.index()].proxy;
            let load = |n: &CoreId| proxy.get(n).copied().unwrap_or(0);
            let pick = match s.params.spawn_policy {
                SpawnPolicy::LeastLoaded => {
                    neighbors.iter().copied().min_by_key(|n| (load(n), n.0))
                }
                SpawnPolicy::FavorFast => neighbors.iter().copied().min_by_key(|n| {
                    let speed = s.ops.speed(*n);
                    // Effective load: queue length divided by speed —
                    // compare occ * den/num via cross-multiplied key.
                    (
                        u64::from(load(n) + 1) * u64::from(speed.den) * 1000 / u64::from(speed.num),
                        n.0,
                    )
                }),
            };
            // Only probe when the proxy suggests a free slot.
            let Some(pick) = pick.filter(|n| load(n) < s.params.queue_capacity) else {
                s.st.stats.probe_skips += 1;
                return false;
            };
            s.st.stats.probes += 1;
            let probe = Payload::new(RtMsg::Probe {
                prober,
                reply_to: me,
            });
            match s.send(pick, s.params.ctrl_msg_bytes, now, probe) {
                Ok(()) => true,
                Err((_, fail_t)) => {
                    // The probe never got through: treat it as denied (the
                    // caller falls back to sequential execution) and charge
                    // the time spent retrying.
                    s.ops.advance_core_to(me, fail_t);
                    false
                }
            }
        });
        if !asked {
            return None;
        }
        self.ec.block("probe");
        // The reply's handler recorded a grant; a denial, or a reply lost
        // for good, recorded none.
        self.rt.st.borrow_mut().probe_grants.remove(&prober)
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
        let task = QueuedTask {
            body,
            group,
            name,
            pinned: false,
        };
        self.step(|s| {
            if let Err((task, fail_t)) = s.spawn(target, task) {
                // The spawn cannot reach its reserved target (failed core /
                // partition): run the task on this core instead. The remote
                // reservation leaks, which is harmless — the target is
                // unreachable anyway.
                s.ops.advance_core_to(s.me, fail_t);
                s.keep_local(task);
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
        let task = QueuedTask {
            body,
            group,
            name,
            pinned: true,
        };
        self.step(|s| {
            s.st.stats.pinned_spawns += 1;
            let Err((_, fail_t)) = s.spawn(target, task) else {
                return true;
            };
            s.ops.advance_core_to(s.me, fail_t);
            s.st.stats.pinned_spawn_drops += 1;
            // No sane program joins before it finished spawning, but keep
            // the group sound regardless.
            for (joiner, _jcore) in group.map(|g| s.st.leave_group(g)).unwrap_or_default() {
                s.ops.wake(joiner, fail_t);
            }
            false
        })
    }

    // ----- protocol messaging (protocol workload pack) -----------------------

    /// Send an application-level protocol message to `dst`, retrying lost
    /// attempts with the runtime's exponential-backoff
    /// [`RetryPolicy`](crate::params::RetryPolicy). Returns `true` when some attempt got
    /// through (the sender knows each attempt's fate at send time — the
    /// engine's out-of-order send model). On failure this core's clock is
    /// advanced past the final attempt, so protocol-level timeouts measured
    /// from `now()` stay meaningful.
    pub fn send_app(&mut self, dst: CoreId, tag: u32, data: [u64; 4]) -> bool {
        self.step(|s| {
            s.st.stats.app_sends += 1;
            let me = s.me;
            let at = s.ops.now(me);
            let msg = Payload::new(RtMsg::App {
                from: me,
                tag,
                data,
            });
            match s.send(dst, s.params.ctrl_msg_bytes, at, msg) {
                Ok(()) => true,
                Err((_, fail_t)) => {
                    s.st.stats.app_send_failures += 1;
                    s.ops.advance_core_to(me, fail_t);
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
        let me = self.core();
        let my_aid = self.ec.id();
        loop {
            let now = self.now();
            let token = {
                let mut st = self.rt.st.borrow_mut();
                let core = &mut st.cores[me.index()];
                if let Some(m) = core.mailbox.pop_front() {
                    return Some(m);
                }
                if now >= deadline {
                    return None;
                }
                assert!(
                    core.recv_waiter.is_none(),
                    "one recv_deadline waiter per core"
                );
                core.recv_token += 1;
                let token = core.recv_token;
                core.recv_waiter = Some((my_aid, token));
                st.stats.timers_set += 1;
                token
            };
            self.ec.with_ops(|ops| {
                let timer = Payload::new(RtMsg::Deadline { token });
                let sent = ops.send(me, me, 0, deadline, timer);
                debug_assert!(sent.is_ok(), "self-send timers are infallible");
            });
            self.ec.block("recv");
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
    pub fn spawn_or_run(&mut self, group: GroupId, body: impl FnOnce(&mut TaskCtx<'_>) + 'static) {
        let body: TaskBody = Box::new(body);
        match self.probe() {
            Some(target) => self.spawn(target, Some(group), body),
            None => {
                self.rt.st.borrow_mut().stats.sequential_fallbacks += 1;
                body(self);
            }
        }
    }

    /// Wait until every task in `group` has terminated. If tasks are still
    /// active the execution context is saved and the core freed until the
    /// JOINER_REQUEST arrives (paper §IV); resuming costs the engine's
    /// 15-cycle context switch.
    pub fn join(&mut self, group: GroupId) {
        let joiner = self.ec.id();
        let suspended = self.step(|s| {
            let me = s.me;
            let g = s.st.group(group);
            if g.active == 0 {
                s.st.stats.joins_immediate += 1;
                false
            } else {
                g.joiners.push((joiner, me));
                s.st.stats.joins_suspended += 1;
                true
            }
        });
        if suspended {
            // Full suspension: resuming costs the paper's 15-cycle context
            // switch.
            self.ec.block_with("join", true);
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

    /// Time one shared-memory access. Without a detailed timing plug-in it
    /// is an annotation of a known duration: the counters and the
    /// directory are updated under one run-time state borrow, then one
    /// [`ExecCtx::advance`] charges the latency and applies the
    /// synchronization policy (taking the annotation fast path when the
    /// core stays inside its drift headroom).
    fn mem_access(&mut self, addr: Addr, l1_hit: bool, write: bool) {
        let (rt, me) = (self.rt, self.core());
        if let Some(detailed) = &rt.params.detailed {
            self.ec.with_ops_synced(|ops| {
                rt.st.borrow_mut().stats.count_sm_access(write);
                detailed.mem_access(ops, me, addr, write);
            });
            return;
        }
        let mem = &rt.params.mem;
        let (cycles, extra) = {
            let mut st = rt.st.borrow_mut();
            st.stats.count_sm_access(write);
            if l1_hit {
                st.stats.l1_hits += 1;
                (mem.l1_latency.cycles(), VDuration::ZERO)
            } else {
                st.stats.l1_misses += 1;
                // Coherence-effect timings (validation mode): charge the
                // legs a real MSI directory would exchange.
                let mut extra = VDuration::ZERO;
                if let Some(dir) = st.directory.as_mut() {
                    let legs = if write {
                        dir.write(me, addr)
                    } else {
                        dir.read(me, addr)
                    };
                    st.stats.coherence_legs += legs.len() as u64;
                    for leg in legs {
                        extra += self.ec.uncontended_latency(leg.from, leg.to, leg.bytes);
                    }
                }
                (mem.backing_latency.cycles(), extra)
            }
        };
        let d = self.ec.speed().scale_cycles(cycles) + extra;
        self.ec.advance(d);
    }

    // ----- distributed-memory cells (paper §IV) ------------------------------

    /// Allocate a cell of `size_bytes`, initially located on this core.
    pub fn alloc_cell(&mut self, size_bytes: u32) -> CellId {
        self.rt.st.borrow_mut().new_cell(self.core(), size_bytes)
    }

    /// Access a cell (read or write — the run-time system implements both
    /// "as an exclusive operation", §VI): if remote, DATA_REQUEST /
    /// DATA_RESPONSE move it into this core's L2 first.
    pub fn cell_access(&mut self, cell: CellId) {
        let activity = self.ec.id();
        let local = self.step(|s| {
            let me = s.me;
            let loc = s.st.cell(cell).location;
            if loc == me {
                s.st.stats.cell_local += 1;
                return true;
            }
            s.st.stats.cell_remote += 1;
            let at = s.ops.now(me);
            let request = Payload::new(RtMsg::DataRequest {
                cell,
                requester: me,
                activity,
                hops: 0,
            });
            match s.send(loc, s.params.ctrl_msg_bytes, at, request) {
                Ok(()) => false,
                Err((_, fail_t)) => {
                    // The cell's home is unreachable: degrade to a
                    // backing-store access without moving the cell.
                    s.st.stats.cell_access_failures += 1;
                    s.ops.advance_core_to(me, fail_t);
                    true
                }
            }
        });
        if !local {
            self.ec.block("cell");
        }
        // The data now sits in this core's L2 (paper §V: "the requested
        // data are stored in the initiating core's L2 cache, where they can
        // be accessed with the usual 10-cycle latency").
        self.ec
            .advance_cycles(self.rt.params.mem.backing_latency.cycles());
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
        self.rt.st.borrow_mut().cell(cell).location
    }

    // ----- locks (paper §II.B) -----------------------------------------------

    /// Create a lock homed on this core.
    pub fn make_lock(&mut self) -> LockId {
        self.rt.st.borrow_mut().new_lock(self.core())
    }

    /// Acquire a simulated lock. While held, the synchronization policy
    /// never stalls this core (the waiver of paper §II.B).
    pub fn lock(&mut self, lock: LockId) {
        let activity = self.ec.id();
        let acquired = self.step(|s| {
            let me = s.me;
            let home = s.st.lock_state(lock).home;
            if home == me {
                // The lock may have been virtually free only in the future
                // (out-of-order processing): wait for it.
                let free_at = s.st.acquire(lock, activity, me);
                if let Some(free_at) = free_at {
                    s.ops.advance_core_to(me, free_at);
                }
                return free_at.is_some();
            }
            let at = s.ops.now(me);
            let request = Payload::new(RtMsg::LockRequest {
                lock,
                activity,
                requester: me,
            });
            match s.send(home, s.params.ctrl_msg_bytes, at, request) {
                Ok(()) => false,
                Err((_, fail_t)) => {
                    // The lock's home is unreachable: proceed as if
                    // acquired (degraded mutual exclusion — the home is
                    // partitioned away, so no reachable core contends
                    // through it either).
                    s.ops.advance_core_to(me, fail_t);
                    true
                }
            }
        });
        if !acquired {
            self.ec.block("lock");
        }
        self.ec.critical_enter();
    }

    /// Release a simulated lock; the next waiter (if any) is granted.
    pub fn unlock(&mut self, lock: LockId) {
        self.step(|s| {
            let me = s.me;
            let now = s.ops.now(me);
            let home = s.st.lock_state(lock).home;
            if home == me {
                s.release_lock(lock, now, now);
            } else {
                // Best effort: `send` counts a release lost for good, and
                // the home keeps the lock held — its later requesters wait
                // forever (a known gap, pinned by the runtime counter
                // golden's lossy lock program).
                let release = Payload::new(RtMsg::LockRelease { lock });
                let _ = s.send(home, s.params.ctrl_msg_bytes, now, release);
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
