//! The simulation engine: shared state, the pick loop, the flat driver
//! that runs it and the userland contexts task code executes on.
//!
//! ## Run-token protocol
//!
//! Exactly one party executes simulation work at any instant, mirroring
//! the paper's single-process, non-preemptive userland scheduling (§III).
//! The driver and every task body take turns on one host thread; a *run
//! token* designates whose turn it is — the driver running the pick loop,
//! or exactly one activity. All simulator state lives in one `RefCell`,
//! borrowed by whoever holds the token.
//!
//! Between `ExecCtx` calls task code runs natively without borrowing the
//! state — that is the "sequential pieces of code are executed natively for
//! maximal speed" of the paper — but since nobody else can hold the token
//! meanwhile, the simulation stays sequential and deterministic.
//!
//! ## Bodies on userland contexts
//!
//! Every task body runs on a pooled stack of its own (`coro`): a
//! first grant takes the activity's closure and *starts* it on a context,
//! a later grant *resumes* the context where the body left it —
//! `run_body`, the one place either happens. The body gives the CPU back
//! by returning, or — mid-closure, at a stall or a block — by switching to
//! the driver (`ExecCtx::suspend`). Either way `start`/`resume` returns in
//! `grant`. A grant therefore costs two register swaps
//! ([`SimStats::ctx_switches`]) and no system call.
//!
//! **One borrow around a switch.** Only the running side borrows `Sim`:
//! `grant` drops its borrow before `start`/`resume` and borrows again
//! when the body hands the CPU back, and the body does the same around its
//! switch to the driver, so every switch happens with `Sim` unborrowed.
//! Task code in between borrows it per `ExecCtx` call. A nested borrow — a
//! switch made while borrowed — is a `RefCell` panic in every build.
//!
//! **Nothing unwinds across a switch.** A body runs under `catch_unwind`
//! in the context's outermost frame, so a task panic comes back to the
//! granter as a value and is recorded as [`SimError::TaskPanic`]; a panic
//! of the engine or a hook under the driver simply propagates up
//! `simulate`'s own stack to its caller. When a run ends early (deadlock,
//! watchdog, preemption, task panic) `unwind_suspended` resumes each
//! suspended body once with `Sim::shutdown` set: it raises
//! `ShutdownSignal` where it was parked, its locals drop on its own
//! stack, and the trampoline hands the context back. Every stack is
//! unmapped when the pool drops, before `simulate` returns.
//!
//! ## The driver
//!
//! One host thread — the one that called [`simulate`] — running `drive`:
//! `next → dispatch → grant`, a loop with no nesting. `PickLoop::next`
//! does everything that happens between two grants — checkpoint
//! observation, floor wakes, pop-and-revalidate, the quiet/deadlock check,
//! the pick count, watchdog, sanitizer cadence and parallelism sample — and
//! `PickLoop::dispatch` processes a message, runs an idle hook or grants
//! an activity, in the one order every digest, checkpoint and golden
//! timing depends on. After a grant the driver re-evaluates the activity's
//! core for the ready queue (what `dispatch` does itself after a message or
//! an idle hook), closes the pick's action lap and picks again. A run of
//! tasks that never suspend reuses one stack ([`SimStats::peak_stacks`] =
//! 1).
//!
//! The order of picks, every `Ops` call and every counter a digest covers
//! are those of a dedicated scheduler thread handing a token to per-task
//! threads — only *where the registers live* differs — so digests, golden
//! timings and checkpoints do not depend on the mechanism.

use crate::activity::{Activity, ActivityId, ActivityMeta, ActivityState, TaskFn};
use crate::config::{EngineConfig, SyncPolicy};
use crate::coro::{Context, Outcome, Pool};
use crate::hooks::RuntimeHooks;
use crate::ops::Ops;
use crate::ready::ReadyQueue;
use crate::state::Cores;
use crate::stats::SimStats;
use crate::sync;
use crate::trace::TraceEvent;
use simany_net::{Envelope, NetworkModel};
use simany_time::{IdHasher, VDuration, VirtualTime};
use simany_topology::{CoreId, Topology};
use std::cell::{RefCell, RefMut};
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;
use std::rc::Rc;
use std::sync::Arc;

/// Panic payload used to unwind suspended activities at simulation
/// teardown.
pub(crate) struct ShutdownSignal;

/// Record a trace event if a tracer is installed.
pub(crate) fn trace(shared: &Shared, make: impl FnOnce() -> TraceEvent) {
    if let Some(tr) = &shared.config.tracer {
        tr.record(make());
    }
}

/// Run-wide context shared by the driver and every task body.
pub(crate) struct Shared {
    pub(crate) sim: RefCell<Sim>,
    pub(crate) hooks: Arc<dyn RuntimeHooks>,
    pub(crate) config: EngineConfig,
    /// The interconnect; the network model holds the same allocation.
    pub(crate) topo: Arc<Topology>,
}

/// All mutable simulator state.
pub(crate) struct Sim {
    pub(crate) cores: Cores,
    pub(crate) net: NetworkModel,
    /// Live activities by id; every pick looks it up several times.
    pub(crate) acts: HashMap<u64, Activity, BuildHasherDefault<IdHasher>>,
    pub(crate) next_act: u64,
    pub(crate) next_birth: u64,
    pub(crate) ready: ReadyQueue,
    pub(crate) stats: SimStats,
    /// Teardown has begun: a suspended body that is resumed raises
    /// [`ShutdownSignal`] instead of continuing.
    pub(crate) shutdown: bool,
    /// Why the run stops early, set by whoever holds the run token and
    /// returned by [`simulate`].
    pub(crate) failure: Option<SimError>,
    /// Largest clock any core has reached (monotone): the front. Bounds
    /// shadow-time propagation: shadows above `max_vtime + T` cannot
    /// influence any stall decision, so the relaxation caps them there
    /// instead of diverging in fully idle regions. A capped shadow is
    /// stored as a marker that resolves against this field at every read
    /// (`sync::exposed`), so raising it rewrites no published word; only
    /// `sync::publish` raises it, and it consults `uncap` when it does.
    pub(crate) max_vtime: VirtualTime,
    /// Capped idle cores by the key the front must overtake before they
    /// need re-evaluation (spatial policy only; see [`sync::UncapIndex`]).
    pub(crate) uncap: sync::UncapIndex,
    /// Activities in [`ActivityState::Stalled`]. Only `ExecCtx`'s stall
    /// enters that state and only `sync::recheck_stall` leaves it, so the
    /// two keep the count.
    pub(crate) stalled: u32,
    /// The publishes owed by the open publish window, if one is open (see
    /// [`sync::Window`]).
    pub(crate) window: sync::Window,
    /// Per core: waiter set — blocked neighbors registered on this core as
    /// their argmin laggard (spatial policy only), in registration order.
    /// A rising publish rechecks only these.
    pub(crate) waiters: crate::state::ListPool<u32>,
    /// Scratch for `sync::publish` relaxation: `(core, exposed value before
    /// the sweep)` for every core whose value changed. Reused across calls
    /// so the steady state allocates nothing.
    pub(crate) scratch_changed: Vec<(CoreId, VirtualTime)>,
    /// Scratch worklist for the shadow relaxation (first in, first out).
    pub(crate) scratch_work: Vec<CoreId>,
    /// Scratch of the relaxation's region settle (`sync::settle_region`).
    pub(crate) region: sync::Region,
    /// Visit stamps (epoch per core) used to dedup scratch traversals
    /// without clearing a bitmap each sweep. The two low bits are marks of
    /// the traversal the rest of the word names (a publish sweep's
    /// "in `changed`" and "on the worklist").
    pub(crate) stamp: Vec<u64>,
    /// Current stamp epoch, a multiple of four; bumped at the start of each
    /// traversal.
    pub(crate) stamp_cur: u64,
    /// Per core: whether its fault-plan failure has been announced
    /// (CoreFailed trace emitted, counter bumped).
    pub(crate) core_fail_announced: Vec<bool>,
    /// Online invariant sanitizer state; `Some` iff
    /// [`EngineConfig::sanitize`] is on (see [`crate::sanitizer`]).
    pub(crate) sanitizer: Option<Box<crate::sanitizer::SanitizerState>>,
    /// Scratch for the wake set of `sync::wake_stalled_by_floor`; reused
    /// across picks so the steady state allocates nothing.
    pub(crate) scratch_ready: Vec<u32>,
    /// Incrementally-maintained global floor (tournament tree over per-core
    /// floor keys). `Some` iff the policy queries the global floor on the
    /// hot path (BoundedSlack / Conservative); `None` costs nothing.
    /// Maintained via `sync::note_floor_key` wherever a key input changes.
    pub(crate) gfloor: Option<crate::floor::GlobalFloor>,
    /// Floor-threshold wakes of the stalled cores; `Some` exactly when
    /// `gfloor` is.
    pub(crate) stall_wakes: Option<crate::floor::FloorWakes>,
}

impl Sim {
    pub(crate) fn act(&self, aid: ActivityId) -> &Activity {
        self.acts.get(&aid.0).expect("unknown activity")
    }

    pub(crate) fn act_mut(&mut self, aid: ActivityId) -> &mut Activity {
        self.acts.get_mut(&aid.0).expect("unknown activity")
    }

    /// Live activities per core — current, stalled, blocked or woken —
    /// counted from `acts` for the reports and the checkpoint digest that
    /// read them.
    pub(crate) fn resident(&self) -> Vec<u32> {
        let mut resident = vec![0; self.cores.len()];
        for act in self.acts.values() {
            resident[act.core.index()] += 1;
        }
        resident
    }
}

/// Why a simulation failed.
#[derive(Debug)]
pub enum SimError {
    /// No core could make progress while work remained (a program bug: the
    /// engine itself is deadlock-free by the argument of paper §II.B).
    Deadlock(String),
    /// A task panicked.
    TaskPanic {
        /// Core the panicking task was bound to.
        core: CoreId,
        /// The core's virtual time when the panic was recorded.
        at: VirtualTime,
        /// Name of the panicking task.
        name: &'static str,
        /// The panic payload, stringified.
        message: String,
    },
    /// The stall watchdog fired: `watchdog_picks` consecutive scheduler
    /// picks completed without any virtual-time progress (livelock — e.g. a
    /// bad fault plan or a synchronization-policy bug). Carries a
    /// diagnostic snapshot of the stuck machine.
    Stalled {
        /// The stuck maximum virtual time.
        at: VirtualTime,
        /// How many progress-free picks the watchdog tolerated.
        picks: u64,
        /// Diagnostic snapshot: per-core clocks/shadow times, waiter sets,
        /// lock ownership and in-flight messages.
        report: String,
    },
    /// Checkpoint machinery failed outside the simulation proper: an
    /// unreadable/malformed checkpoint file, a configuration that does not
    /// match the one the checkpoint was written under, an I/O error while
    /// writing, or a resume watermark the program never reached.
    Checkpoint(String),
    /// A resumed run diverged from its checkpoint at the watermark
    /// (changed binary, configuration drift, or a nondeterminism bug).
    CheckpointMismatch(String),
    /// The run was preempted by the external-preemption budget
    /// ([`crate::EngineConfig::preempt_after_checkpoints`]): the budgeted
    /// number of fresh-ground checkpoints was written and the engine
    /// stopped cleanly. Not a failure — the checkpoint on disk is valid and
    /// the run can be completed later via
    /// [`crate::EngineConfig::resume_from`].
    Preempted {
        /// Virtual-time watermark of the last checkpoint written (where a
        /// resumed run will verify).
        at: VirtualTime,
        /// Fresh-ground checkpoints written before stopping (the budget).
        checkpoints: u64,
    },
    /// The host refused a resource the run needs: the mapping for a task
    /// body's stack (see [`crate::EngineConfig::worker_stack_bytes`]).
    /// Nothing is wrong with the simulated program; the same run can
    /// succeed with a smaller stack or on a roomier host.
    HostResources {
        /// What the engine was trying to do.
        what: &'static str,
        /// The host's error number for the refusal.
        errno: i32,
    },
}

impl SimError {
    /// Typed process exit code for embedding binaries (`simulate`,
    /// `simany-serve` workers): lets a driving scheduler classify worker
    /// failures without parsing stderr. Success is `0` by convention;
    /// usage errors are `2` (the binaries' own convention); everything
    /// here is `>= 10` so the three ranges cannot collide.
    pub fn exit_code(&self) -> i32 {
        match self {
            SimError::Stalled { .. } => 10,
            SimError::CheckpointMismatch(_) => 11,
            SimError::Checkpoint(_) => 12,
            SimError::TaskPanic { .. } => 13,
            SimError::Deadlock(_) => 14,
            SimError::Preempted { .. } => 15,
            SimError::HostResources { .. } => 16,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(d) => write!(f, "simulation deadlock: {d}"),
            SimError::TaskPanic {
                core,
                at,
                name,
                message,
            } => write!(f, "task '{name}' on {core} panicked at {at}: {message}"),
            SimError::Stalled { at, picks, report } => write!(
                f,
                "simulation stalled at {at} ({picks} scheduler picks without progress): {report}"
            ),
            SimError::Checkpoint(m) => write!(f, "checkpoint error: {m}"),
            SimError::CheckpointMismatch(m) => write!(f, "checkpoint mismatch: {m}"),
            SimError::Preempted { at, checkpoints } => write!(
                f,
                "preempted at {at} after {checkpoints} checkpoint(s); resume from the checkpoint file to continue"
            ),
            SimError::HostResources { what, errno } => write!(
                f,
                "host resources exhausted: cannot {what}: {}",
                std::io::Error::from_raw_os_error(*errno)
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// True iff the scheduler has (or may have) work to perform on `c`.
pub(crate) fn is_ready(sim: &Sim, c: CoreId) -> bool {
    if !sim.cores.inboxes.is_empty(c) {
        return true;
    }
    match sim.cores.current(c.index()) {
        Some(a) => sim.act(a).grantable(),
        None => !sim.cores.resumable.is_empty(c.index()) || sim.cores.queue_hint[c.index()] > 0,
    }
}

/// Scheduling priority of core `c`: its next-event time — the earlier of
/// its pending messages' first arrival and its own clock. Using the raw
/// published time would starve blocked cores (whose shadow time is high by
/// construction) of their pending replies behind running neighbors.
fn ready_priority(sim: &Sim, c: CoreId) -> VirtualTime {
    let vtime = sim.cores.vtime(c.index());
    match sim.cores.inboxes.earliest_arrival(c) {
        Some(a) => a.min(vtime),
        None => vtime,
    }
}

/// Queue `c` for scheduling if it is not already queued.
pub(crate) fn push_ready(sim: &mut Sim, c: CoreId) {
    if !sim.cores.in_ready[c.index()] {
        sim.cores.in_ready[c.index()] = true;
        let t = ready_priority(sim, c);
        sim.ready.push(c, t);
    }
}

/// Deposit a routed envelope into its destination inbox and requeue the
/// destination core. If the core is already queued at a later priority,
/// push a second entry so the new message's arrival takes effect now
/// (stale duplicates are skipped by the pop-revalidate loop).
pub(crate) fn deliver(sim: &mut Sim, shared: &Shared, env: Envelope) {
    trace(shared, || TraceEvent::Send {
        t: env.sent,
        src: env.src,
        dst: env.dst,
        bytes: env.size_bytes,
    });
    let dst = env.dst;
    let arrival = env.arrival;
    if sim.sanitizer.is_some() {
        crate::sanitizer::on_deliver(sim, shared, &env);
    }
    sim.cores.inboxes.push(dst, env);
    if sim.cores.in_ready[dst.index()] {
        // Possible priority raise: re-push with the (possibly earlier)
        // next-event time.
        if arrival < sim.cores.vtime(dst.index()) {
            let t = ready_priority(sim, dst);
            sim.ready.push(dst, t);
        }
    } else {
        push_ready(sim, dst);
    }
}

/// Make `aid` the current activity of its core, charging the context-switch
/// cost if it is resuming from a wake.
pub(crate) fn make_current(sim: &mut Sim, shared: &Shared, aid: ActivityId) {
    let c = sim.act(aid).core;
    debug_assert!(sim.cores.current(c.index()).is_none());
    sim.cores.set_current(c.index(), Some(aid));
    sync::note_floor_key(sim, c.index());
    let woken = matches!(sim.act(aid).state, ActivityState::Woken);
    if woken {
        let wake_time = sim
            .act_mut(aid)
            .wake_time
            .take()
            .unwrap_or(VirtualTime::ZERO);
        let charge = sim.act(aid).charge_resume;
        sim.cores.advance_to(c.index(), wake_time);
        if charge {
            let cost = sim
                .cores
                .speed(c.index())
                .scale_duration(shared.config.resume_cost);
            sim.cores.advance(c.index(), cost);
        }
    }
    sim.act_mut(aid).state = ActivityState::Resumable;
    if woken {
        sync::publish(sim, shared, c);
    }
}

/// Create a new activity as the current activity of `core` (engine-level;
/// the runtime's `Ops::start_activity` wraps this).
pub(crate) fn start_activity_impl(
    sim: &mut Sim,
    shared: &Shared,
    core: CoreId,
    name: &'static str,
    meta: ActivityMeta,
    job: TaskFn,
) -> ActivityId {
    assert!(
        sim.cores.current(core.index()).is_none(),
        "start_activity on a busy core {core}"
    );
    let was_idle = sim.cores.is_idle(core.index());
    let aid = ActivityId(sim.next_act);
    sim.next_act += 1;
    sim.acts.insert(
        aid.0,
        Activity {
            id: aid,
            core,
            state: ActivityState::Pending,
            job: Some(job),
            context: None,
            wake_time: None,
            charge_resume: false,
            meta: Some(meta),
            name,
        },
    );
    sim.cores.set_current(core.index(), Some(aid));
    sync::note_floor_key(sim, core.index());
    sim.stats.activities_started += 1;
    trace(shared, || TraceEvent::ActivityStart {
        t: sim.cores.vtime(core.index()),
        core,
        aid: aid.0,
        name,
    });
    let live = sim.acts.len();
    sim.stats.peak_live_activities = sim.stats.peak_live_activities.max(live);
    assert!(
        live <= shared.config.max_live_activities,
        "activity explosion: more than {} live tasks",
        shared.config.max_live_activities
    );
    if was_idle {
        // The core transitions from shadow time back to a real clock.
        sync::publish(sim, shared, core);
    }
    push_ready(sim, core);
    aid
}

/// Wake a blocked activity, its core's clock at least `at` when it resumes.
pub(crate) fn wake_impl(sim: &mut Sim, shared: &Shared, aid: ActivityId, at: VirtualTime) {
    let act = sim.act_mut(aid);
    assert!(
        matches!(act.state, ActivityState::Blocked(_)),
        "wake of non-blocked activity {aid:?} in state {:?}",
        act.state
    );
    act.state = ActivityState::Woken;
    act.wake_time = Some(at);
    let c = act.core;
    trace(shared, || TraceEvent::Wake { t: at, core: c });
    if sim.cores.current(c.index()).is_none() {
        make_current(sim, shared, aid);
    } else {
        sim.cores.resumable.push_back(c.index(), aid);
    }
    push_ready(sim, c);
}

/// Bookkeeping when an activity's closure returns: its context goes back
/// to the pool, its core is freed.
pub(crate) fn finish_activity(sim: &mut Sim, shared: &Shared, pool: &mut Pool, aid: ActivityId) {
    let mut act = sim.acts.remove(&aid.0).expect("finishing unknown activity");
    pool.release(act.context.expect("finished without ever running"));
    let c = act.core;
    // The flush and the idle publish below, and whatever the hook
    // publishes, land once each when the window closes.
    sync::open_window(sim, shared);
    // The end-of-task hooks below observe published values; make any
    // fast-path deferred publish visible first.
    sync::flush_deferred(sim, shared, c);
    debug_assert_eq!(sim.cores.current(c.index()), Some(aid));
    sim.cores.set_current(c.index(), None);
    // The working set changed: global-policy floors must be recomputed.
    sync::note_floor_key(sim, c.index());
    let meta = act.meta.take().expect("activity meta missing at end");
    trace(shared, || TraceEvent::ActivityEnd {
        t: sim.cores.vtime(c.index()),
        core: c,
        aid: aid.0,
        name: act.name,
    });
    {
        let mut ops = Ops::new(sim, shared);
        shared.hooks.on_activity_end(&mut ops, c, meta);
    }
    // Possible idle transition; also the hooks may have advanced the clock.
    sync::publish(sim, shared, c);
    sync::close_window(sim, shared);
    if is_ready(sim, c) {
        push_ready(sim, c);
    }
}

/// Count core `c` starting on a message that arrived at `arrival` while its
/// clock read `now` — late when the arrival is already in the core's past —
/// and trace the processing, which starts at the later of the two.
fn note_processing(
    sim: &mut Sim,
    shared: &Shared,
    c: CoreId,
    arrival: VirtualTime,
    now: VirtualTime,
) {
    let late = now.saturating_since(arrival);
    if arrival < now {
        sim.stats.late_messages += 1;
        sim.stats.late_by_total += late;
    } else {
        sim.stats.on_time_messages += 1;
    }
    trace(shared, || TraceEvent::Process {
        arrival,
        t: now.max(arrival),
        core: c,
        late_by: late.ticks(),
    });
}

/// Process every message whose virtual arrival time has already passed on
/// core `c`. Called from `ExecCtx` at each timing-annotation boundary: a
/// running task's core handles due protocol requests (probes, lock
/// requests, occupancy updates...) at its runtime entry points instead of
/// making senders wait until the task yields. Handlers may advance the
/// clock, making further messages due — the loop keeps going until none
/// remain.
pub(crate) fn drain_due_messages(sim: &mut Sim, shared: &Shared, c: CoreId) {
    loop {
        let now = sim.cores.vtime(c.index());
        let Some(env) = sim.cores.inboxes.pop_arrived(c, now) else {
            return;
        };
        note_processing(sim, shared, c, env.arrival, now);
        let mut ops = Ops::new(sim, shared);
        shared.hooks.on_message(&mut ops, env);
    }
}

/// One message-processing step on core `c`.
///
/// A message is processed at `max(core clock, arrival)`: the clock records
/// how long the core has been busy in virtual time, so work cannot start
/// before the core frees up; a message whose arrival stamp is already in
/// the core's past is processed late (the accuracy-loss mechanism of paper
/// §II.A — replies still carry request-relative stamps, so the lateness
/// does not leak into the requester's timeline).
pub(crate) fn process_message(sim: &mut Sim, shared: &Shared, c: CoreId) {
    let env = sim.cores.inboxes.pop(c).expect("no message");
    note_processing(sim, shared, c, env.arrival, sim.cores.vtime(c.index()));
    sim.cores.advance_to(c.index(), env.arrival);
    sync::publish(sim, shared, c);
    let mut ops = Ops::new(sim, shared);
    shared.hooks.on_message(&mut ops, env);
}

/// What the scheduler decided to do with a popped ready core.
pub(crate) enum Action {
    Message,
    Grant(ActivityId),
    ResumeParked,
    Idle,
    Nothing,
}

pub(crate) fn decide(sim: &Sim, c: CoreId) -> Action {
    let i = c.index();
    let vtime = sim.cores.vtime(i);
    let cur_grantable = sim.cores.current(i).map(|a| sim.act(a).grantable());
    if let Some(arr) = sim.cores.inboxes.earliest_arrival(c) {
        // Prefer the message unless something runnable on this core is
        // earlier in virtual time than the message's arrival: the current
        // activity's clock, or the front resumable's wake time (processing
        // a future-stamped message first would needlessly inflate the
        // resumed task's clock to the message's arrival).
        let prefer_msg = match cur_grantable {
            Some(true) => arr <= vtime,
            Some(false) => true,
            None => match sim
                .cores
                .resumable
                .front(i)
                .and_then(|&a| sim.act(a).wake_time)
            {
                Some(wake) => arr <= wake.max(vtime),
                None => true,
            },
        };
        if prefer_msg {
            return Action::Message;
        }
    }
    match sim.cores.current(i) {
        Some(a) if cur_grantable == Some(true) => Action::Grant(a),
        Some(_) => Action::Nothing, // stalled current; wait for drift event
        None => {
            if !sim.cores.resumable.is_empty(i) {
                Action::ResumeParked
            } else if sim.cores.queue_hint[i] > 0 {
                Action::Idle
            } else {
                Action::Nothing
            }
        }
    }
}

/// `ready_queued=` of the reports: the cores flagged as queued over the
/// queue's entries, which count a raised-priority duplicate twice.
fn ready_queued(sim: &Sim) -> String {
    let queued = sim.cores.in_ready.iter().filter(|&&q| q).count();
    format!("ready_queued={queued}/{}", sim.ready.len())
}

pub(crate) fn deadlock_report(sim: &Sim, shared: &Shared) -> String {
    let mut s = format!(
        "no runnable core but work remains; live_activities={} {}",
        sim.acts.len(),
        ready_queued(sim)
    );
    append_core_dump(sim, shared, &mut s);
    s
}

/// Diagnostic snapshot for the stall watchdog: everything
/// `deadlock_report` shows, plus shadow times and waiter sets (a livelock,
/// unlike a deadlock, has cores that *look* runnable — the useful signal is
/// who is stalled on whom and which messages are in flight).
pub(crate) fn diagnostic_snapshot(sim: &Sim, shared: &Shared) -> String {
    use std::fmt::Write as _;
    let mut s = format!(
        "max_vtime={} live_activities={} picks={} {}",
        sim.max_vtime,
        sim.acts.len(),
        sim.stats.scheduler_picks,
        ready_queued(sim)
    );
    append_core_dump(sim, shared, &mut s);
    for idx in 0..sim.cores.len() {
        if !sim.waiters.is_empty(idx) {
            let ws: Vec<u32> = sim.waiters.iter(idx).copied().collect();
            let _ = write!(s, "\n  waiters-on-core{idx}: {ws:?}");
        }
    }
    s
}

/// Shared body of `deadlock_report` and `diagnostic_snapshot`: one line per
/// core with any interesting state, then every blocked activity.
fn append_core_dump(sim: &Sim, shared: &Shared, s: &mut String) {
    use std::fmt::Write as _;
    for (idx, &resident) in sim.resident().iter().enumerate() {
        if resident > 0
            || sim.cores.queue_hint[idx] > 0
            || !sim.cores.inboxes.is_empty(CoreId(idx as u32))
            || sim.cores.lock_depth[idx] > 0
            || sim.cores.waiting_on(idx).is_some()
        {
            let _ = write!(
                s,
                "\n  core{idx}: {}",
                sim.cores.debug_line(idx, sync::exposed(sim, shared, idx))
            );
            if let Some(a) = sim.cores.current(idx) {
                let act = sim.act(a);
                let _ = write!(s, " current={:?}({}) {:?}", act.id, act.name, act.state);
            }
        }
    }
    // The table's iteration order is arbitrary: list by activity id so two
    // reports of the same stuck machine read the same.
    let mut blocked: Vec<(&Activity, &str)> = sim
        .acts
        .values()
        .filter_map(|act| match act.state {
            ActivityState::Blocked(reason) => Some((act, reason)),
            _ => None,
        })
        .collect();
    blocked.sort_unstable_by_key(|(act, _)| act.id);
    for (act, reason) in blocked {
        let _ = write!(
            s,
            "\n  blocked {:?}({}) on {} @{}",
            act.id, act.name, reason, act.core
        );
    }
}

/// Run a simulation.
///
/// * `topo` — the interconnect (see `simany-topology`).
/// * `config` — engine configuration (synchronization policy, seeds,
///   per-core speeds, cost model...).
/// * `hooks` — the task run-time system (see [`RuntimeHooks`]).
/// * `setup` — runs once before the first scheduler pick, with full [`Ops`]
///   access; typically starts the root task on core 0.
///
/// Returns run statistics, or an error if the program deadlocked, a task
/// panicked or the host ran out of a resource the run needs.
pub fn simulate(
    topo: Topology,
    config: EngineConfig,
    hooks: Arc<dyn RuntimeHooks>,
    setup: impl FnOnce(&mut Ops<'_>),
) -> Result<SimStats, SimError> {
    let n = topo.n_cores();
    silence_shutdown_panics();
    if let Some(speeds) = &config.speeds {
        assert_eq!(
            speeds.len(),
            n as usize,
            "speeds length must match core count"
        );
    }
    // Checkpoint/resume preflight: fail before building anything.
    if config.checkpoint_every.is_some() && config.checkpoint_path.is_none() {
        return Err(SimError::Checkpoint(
            "checkpoint_every set without checkpoint_path".to_string(),
        ));
    }
    if config.checkpoint_every.is_some_and(VDuration::is_zero) {
        return Err(SimError::Checkpoint(
            "checkpoint_every must be at least one cycle".to_string(),
        ));
    }
    if config.preempt_after_checkpoints.is_some() && config.checkpoint_every.is_none() {
        return Err(SimError::Checkpoint(
            "preempt_after_checkpoints set without checkpoint_every".to_string(),
        ));
    }
    let cfg_digest = crate::checkpoint::config_digest(&config);
    let resume_target = match &config.resume_from {
        Some(path) => {
            let cp = crate::checkpoint::Checkpoint::load(path).map_err(SimError::Checkpoint)?;
            if cp.config_digest != cfg_digest {
                return Err(SimError::Checkpoint(format!(
                    "checkpoint {} was written under configuration {:016x}, \
                     this run is {:016x} (policy/seed/network/fault must match)",
                    path.display(),
                    cp.config_digest,
                    cfg_digest
                )));
            }
            Some(cp)
        }
        None => None,
    };
    let start_wall = std::time::Instant::now();
    let topo = Arc::new(topo);
    let cores = Cores::new(
        n as usize,
        config.speeds.clone(),
        config.cost_model.branch_accuracy,
        config.cost_model.pipeline_depth,
        config.seed,
    );
    if let Some(plan) = &config.fault {
        assert_eq!(
            plan.n_cores(),
            n,
            "fault plan compiled against a different topology"
        );
    }
    // The policies that read the global floor on the hot path.
    let global_policy = matches!(
        config.sync,
        SyncPolicy::BoundedSlack { .. } | SyncPolicy::Conservative
    );
    let sim = Sim {
        cores,
        net: NetworkModel::with_faults(
            Arc::clone(&topo),
            config.net,
            config.fault.clone(),
            config.seed,
        ),
        acts: HashMap::default(),
        next_act: 0,
        next_birth: 0,
        ready: ReadyQueue::new(),
        stats: SimStats::default(),
        shutdown: false,
        failure: None,
        max_vtime: VirtualTime::ZERO,
        uncap: sync::UncapIndex::new(&config),
        stalled: 0,
        window: sync::Window::new(n as usize),
        waiters: crate::state::ListPool::new(n as usize),
        scratch_changed: Vec::new(),
        scratch_work: Vec::new(),
        region: sync::Region::default(),
        stamp: vec![0; n as usize],
        stamp_cur: 0,
        core_fail_announced: vec![false; n as usize],
        sanitizer: None,
        scratch_ready: Vec::new(),
        // All cores start idle with empty birth ledgers: every key is MAX,
        // which is exactly `GlobalFloor::new`'s initial state.
        gfloor: global_policy.then(|| crate::floor::GlobalFloor::new(n as usize)),
        stall_wakes: global_policy.then(|| crate::floor::FloorWakes::new(n as usize)),
    };
    let shared = Rc::new(Shared {
        sim: RefCell::new(sim),
        hooks,
        config,
        topo,
    });

    // Where task bodies' registers live. Dropped — every stack unmapped —
    // on every way out of this function.
    let mut pool = Pool::new(shared.config.worker_stack_bytes);
    let mut sim = shared.sim.borrow_mut();
    if shared.config.sanitize {
        crate::sanitizer::install(&mut sim, &shared);
    }
    {
        let mut ops = Ops::new(&mut sim, &shared);
        setup(&mut ops);
    }
    sync::settle(&mut sim, &shared);

    // Everything up to here — topology, routing, core arrays, workload
    // setup — is construction; the pick loop is the simulation. Scale
    // benchmarks need the two separated, or setup cost masquerades as
    // per-event cost.
    let build = start_wall.elapsed();
    let run_start = std::time::Instant::now();
    let mut picks = PickLoop::new(&shared.config, &sim, cfg_digest, resume_target);
    sim = drive(&shared, sim, &mut picks, &mut pool);
    picks.finish(&mut sim, &shared);
    sim.stats.build_ns = build.as_nanos() as u64;
    sim.stats.run_ns = run_start.elapsed().as_nanos() as u64;
    sim.stats.peak_stacks = pool.peak();
    sim.stats.os_threads = os_threads();

    // Teardown: unwind every body still suspended on a context. The
    // harvest below reads `Sim` through the cell, not by unwrapping the
    // `Rc`: a body that swallowed the shutdown signal still holds a clone.
    sim.shutdown = true;
    let mut sim = unwind_suspended(&shared, sim, &pool);
    if let Some(e) = sim.failure.take() {
        return Err(e);
    }
    let mut stats = std::mem::take(&mut sim.stats);
    // The floor structure counts its own key updates; harvest them now
    // that the run is over.
    if let Some(g) = &sim.gfloor {
        stats.floor_key_updates = g.updates();
    }
    // Single teardown pass over the core arrays: the final virtual time and
    // a streaming busy-time summary (total, max, top cores) — no O(cores)
    // vector is retained in the stats.
    let mut busy = crate::stats::BusySummary::default();
    let mut final_vtime = VirtualTime::ZERO;
    for i in 0..sim.cores.len() {
        final_vtime = final_vtime.max(sim.cores.vtime(i));
        busy.record(CoreId(i as u32), sim.cores.busy(i));
    }
    stats.final_vtime = final_vtime;
    stats.busy = busy;
    stats.net = sim.net.stats();
    stats.msgs_dropped = stats.net.dropped + stats.net.corrupted + stats.net.unreachable;
    stats.hot_links = sim
        .net
        .busiest_links(8)
        .into_iter()
        .map(|(props, busy)| (props.src, props.dst, busy))
        .collect();
    stats.wall = start_wall.elapsed();
    Ok(stats)
}

/// The per-pick bookkeeping of [`drive`]: everything that happens between
/// two grants, in the one order every digest, checkpoint and golden timing
/// depends on.
///
/// All bookkeeping here observes the machine at scheduler-time quiescence
/// (deferred publishes are flushed at every token yield), so `max_vtime`,
/// pick counts and state digests are well-defined at these points.
struct PickLoop {
    ckpt: crate::checkpoint::CheckpointDriver,
    cfg_digest: u64,
    /// Stall watchdog: the last `max_vtime` seen to rise, and the pick it
    /// rose at.
    wd_last_vtime: VirtualTime,
    wd_last_pick: u64,
    /// `profile_picks`, and the phase-profile lap mark it gates.
    profiling: bool,
    mark: std::time::Instant,
}

impl PickLoop {
    fn new(
        config: &EngineConfig,
        sim: &Sim,
        cfg_digest: u64,
        resume_target: Option<crate::checkpoint::Checkpoint>,
    ) -> Self {
        PickLoop {
            ckpt: crate::checkpoint::CheckpointDriver::new(config, resume_target),
            cfg_digest,
            wd_last_vtime: sim.max_vtime,
            wd_last_pick: 0,
            profiling: config.profile_picks,
            mark: std::time::Instant::now(),
        }
    }

    /// Fold the time since the last lap into `acc` and restart the lap. A
    /// no-op (no clock read) unless `profile_picks` is on.
    #[inline]
    fn lap(&mut self, acc: &mut u64) {
        if self.profiling {
            let now = std::time::Instant::now();
            *acc += now.duration_since(self.mark).as_nanos() as u64;
            self.mark = now;
        }
    }

    /// Machine-wide sanitizer scan, if the sanitizer is installed.
    fn sanitizer_scan(sim: &mut Sim, shared: &Shared) {
        if sim.sanitizer.is_some() {
            crate::sanitizer::scan(sim, shared);
        }
    }

    /// Advance to the next pick: a validated ready core, already counted as
    /// a scheduler pick, or `None` once the run is over — normal
    /// completion, or `sim.failure` is set (deadlock, watchdog, checkpoint
    /// mismatch, preemption, task panic).
    fn next(&mut self, sim: &mut Sim, shared: &Shared) -> Option<CoreId> {
        if self.profiling {
            self.mark = std::time::Instant::now();
        }
        if sim.failure.is_some() || !self.ckpt.observe(sim, shared, self.cfg_digest) {
            return None;
        }
        sync::floor_moved(sim, shared);
        self.lap(&mut sim.stats.prof_floor_ns);
        // Pop a valid ready core, skipping stale entries.
        let mut picked = None;
        while let Some(c) = sim.ready.pop() {
            sim.cores.in_ready[c.index()] = false;
            if is_ready(sim, c) {
                picked = Some(c);
                break;
            }
            sim.stats.ready_stale_skipped += 1;
        }
        self.lap(&mut sim.stats.prof_pop_ns);
        let Some(c) = picked else {
            // The ready queue is empty, which ends the run: it is over if
            // no activity lives and no core has a message or queued work.
            let quiet = sim.acts.is_empty()
                && (0..sim.cores.len()).all(|i| {
                    sim.cores.queue_hint[i] == 0 && sim.cores.inboxes.is_empty(CoreId(i as u32))
                });
            if !quiet {
                sim.failure = Some(SimError::Deadlock(deadlock_report(sim, shared)));
            }
            return None;
        };
        sim.stats.scheduler_picks += 1;
        // Stall watchdog: abort (with a diagnostic snapshot) instead of
        // spinning forever when picks stop moving virtual time — classic
        // deadlocks never get here (the quiet-state check above catches
        // them); this guards against livelock.
        if sim.max_vtime > self.wd_last_vtime {
            self.wd_last_vtime = sim.max_vtime;
            self.wd_last_pick = sim.stats.scheduler_picks;
        } else if let Some(budget) = shared.config.watchdog_picks {
            if sim.stats.scheduler_picks - self.wd_last_pick >= budget {
                sim.failure = Some(SimError::Stalled {
                    at: sim.max_vtime,
                    picks: budget,
                    report: diagnostic_snapshot(sim, shared),
                });
                return None;
            }
        }
        if sim
            .stats
            .scheduler_picks
            .is_multiple_of(crate::sanitizer::SCAN_EVERY_PICKS)
        {
            Self::sanitizer_scan(sim, shared);
        }
        self.lap(&mut sim.stats.prof_overhead_ns);
        Some(c)
    }

    /// Act on picked core `c`. Returns the activity to grant, already
    /// `Granted`, if the pick is a grant: [`drive`] runs it and then
    /// re-evaluates `c` for the ready queue, which every other action does
    /// here.
    fn dispatch(&mut self, sim: &mut Sim, shared: &Shared, c: CoreId) -> Option<ActivityId> {
        // No activity runs until the window closes, so an idle hook's
        // idle-then-busy transient publishes nothing and a message's
        // arrival jump and handler costs publish once.
        sync::open_window(sim, shared);
        let granted = match decide(sim, c) {
            Action::Message => {
                process_message(sim, shared, c);
                None
            }
            Action::Grant(aid) => Some(aid),
            Action::ResumeParked => {
                let aid = sim
                    .cores
                    .resumable
                    .pop_front(c.index())
                    .expect("`decide` saw a resumable activity");
                make_current(sim, shared, aid);
                // Grant immediately if still allowed (it may have become
                // stalled by the resume-cost advance).
                sim.act(aid).grantable().then_some(aid)
            }
            Action::Idle => {
                let before_hint = sim.cores.queue_hint[c.index()];
                {
                    let mut ops = Ops::new(sim, shared);
                    shared.hooks.on_idle(&mut ops, c);
                }
                assert!(
                    sim.cores.queue_hint[c.index()] < before_hint
                        || sim.cores.current(c.index()).is_some(),
                    "on_idle made no progress (runtime bug)"
                );
                None
            }
            Action::Nothing => None,
        };
        sync::close_window(sim, shared);
        match granted {
            Some(aid) => {
                sim.act_mut(aid).state = ActivityState::Granted;
                sim.stats.activity_resumes += 1;
            }
            None if is_ready(sim, c) => push_ready(sim, c),
            None => {}
        }
        self.lap(&mut sim.stats.prof_action_ns);
        granted
    }

    /// End of a run that did not fail: the final machine-wide scan over
    /// the quiescent end state, and the resume-watermark check.
    fn finish(mut self, sim: &mut Sim, shared: &Shared) {
        if sim.failure.is_none() {
            Self::sanitizer_scan(sim, shared);
            self.ckpt.finish(sim);
        }
    }
}

/// The engine: pick, dispatch, grant, and — once the activity has handed
/// the CPU back by returning, panicking or suspending — pick again (see the
/// module docs). Returns when the run is over: `sim.failure` says how.
fn drive<'s>(
    shared: &'s Rc<Shared>,
    mut sim: RefMut<'s, Sim>,
    picks: &mut PickLoop,
    pool: &mut Pool,
) -> RefMut<'s, Sim> {
    while let Some(c) = picks.next(&mut sim, shared) {
        let Some(aid) = picks.dispatch(&mut sim, shared, c) else {
            continue;
        };
        sim = grant(shared, sim, pool, aid);
        // The end of the pick: re-evaluate the activity's core for the
        // ready queue — what `dispatch` does after every other action —
        // and close the action lap.
        if is_ready(&sim, c) {
            push_ready(&mut sim, c);
        }
        picks.lap(&mut sim.stats.prof_action_ns);
    }
    sim
}

/// The slot of `act`'s context in `pool`, acquired now if this is its
/// first grant. `Err`, if the host refuses the stack, is the failure the
/// caller must stop the run with.
fn context_of(act: &mut Activity, pool: &mut Pool) -> Result<usize, SimError> {
    if let Some(slot) = act.context {
        return Ok(slot);
    }
    let slot = pool.acquire().map_err(|errno| SimError::HostResources {
        what: "map a task stack",
        errno,
    })?;
    act.context = Some(slot);
    Ok(slot)
}

/// Run activity `aid`'s body on `ctx` until it gives the CPU back: start
/// `job` there (a first grant) or resume what an earlier grant left
/// suspended. The caller holds the grant — nobody else drives `ctx` — and
/// no borrow of `Sim`.
fn run_body(
    shared: &Rc<Shared>,
    ctx: &Context,
    aid: ActivityId,
    core: CoreId,
    job: Option<TaskFn>,
) -> Outcome {
    let Some(job) = job else {
        return ctx.resume();
    };
    let shared = Rc::clone(shared);
    ctx.start(move |me| {
        // SAFETY: this closure is the body running on `me`, and only lends
        // the `ExecCtx` to the task's code.
        let mut ctx = unsafe { crate::ctx::ExecCtx::on_context(shared, aid, core, me) };
        job(&mut ctx);
    })
}

/// One grant, start to finish: `aid` (already `Granted`) holds the run
/// token and runs on the calling thread until it returns, panics or
/// suspends; a body that ended is accounted for. Requeueing its core is
/// `drive`'s business.
fn grant<'s>(
    shared: &'s Rc<Shared>,
    mut sim: RefMut<'s, Sim>,
    pool: &mut Pool,
    aid: ActivityId,
) -> RefMut<'s, Sim> {
    let act = sim.act_mut(aid);
    debug_assert!(matches!(act.state, ActivityState::Granted));
    let slot = match context_of(act, pool) {
        Ok(slot) => slot,
        Err(failure) => {
            sim.failure.get_or_insert(failure);
            return sim; // `PickLoop::next` stops the run
        }
    };
    // `job`: `Some` on a first grant; `None` once the closure is running —
    // suspended mid-call on its context by an earlier grant.
    let (core, name, job) = (act.core, act.name, act.job.take());
    sim.stats.ctx_switches += 2; // to the body, and back
    drop(sim);
    let outcome = run_body(shared, pool.get(slot), aid, core, job);
    let mut sim = shared.sim.borrow_mut();
    match outcome {
        Outcome::Suspended => {}
        Outcome::Returned => finish_activity(&mut sim, shared, pool, aid),
        Outcome::Panicked(payload) => {
            let at = sim.cores.vtime(core.index());
            sim.failure.get_or_insert(SimError::TaskPanic {
                core,
                at,
                name,
                message: panic_message(payload.as_ref()),
            });
        }
    }
    sim
}

/// Teardown: resume, once, every body still suspended on a context —
/// stalled or blocked. `Sim::shutdown` is set, so it raises
/// [`ShutdownSignal`] where it was suspended, drops its locals while
/// unwinding its own stack and leaves the context idle. (A body that
/// swallows the signal and suspends again is abandoned with its stack.)
fn unwind_suspended<'s>(shared: &'s Shared, sim: RefMut<'s, Sim>, pool: &Pool) -> RefMut<'s, Sim> {
    debug_assert!(sim.shutdown);
    drop(sim);
    for slot in 0..pool.peak() {
        let ctx = pool.get(slot);
        if ctx.is_suspended() {
            let _ = ctx.resume();
        }
    }
    shared.sim.borrow_mut()
}

/// Host threads of this process right now (`Threads:` in
/// `/proc/self/status`); 0 where there is no procfs to ask.
fn os_threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("Threads:"))?;
            line.trim().parse().ok()
        })
        .unwrap_or(0)
}

/// Keep the default panic hook from printing a message-and-backtrace for
/// every [`ShutdownSignal`] unwind: those are the engine's own cancellation
/// mechanism (stall watchdog, preemption, early failure), caught at the
/// context trampoline, and with external preemption they are routine
/// rather than exceptional. Real panics still reach the previous
/// hook untouched.
fn silence_shutdown_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ShutdownSignal>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Stringify a caught panic payload for failure reports.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}
