//! The interface between the engine and the task run-time system.
//!
//! The engine simulates cores, clocks, drift and message transport; it
//! knows nothing about probes, task queues, joins, locks or data cells.
//! That protocol lives above, in an implementation of [`RuntimeHooks`]
//! (`simany-runtime` provides the paper's Capsule/TBB-like model).
//!
//! Hook implementations own their own state inside the hooks object.
//! Every hook invocation and every task-side `ExecCtx` call runs on the
//! thread that called `simulate`, one at a time (the driver and the task
//! bodies take turns), so that state needs no lock: it sits in a
//! `RefCell`, where a re-entrant access panics instead of deadlocking.
//! The trait has no `Send`/`Sync` bound. Two types keep a thread-safe
//! shape only because the benchmark package's hooks name them: `simulate`
//! takes the hooks as an `Arc<dyn RuntimeHooks>`, and
//! [`crate::ActivityMeta`] is `Box<dyn Any + Send>`.
//!
//! Hooks run while the driver or a body holds the run token, and **must
//! never block**; anything that needs to wait belongs in task code
//! (`ExecCtx::block`).

use crate::ops::Ops;
use simany_net::Envelope;
use simany_topology::CoreId;
use std::any::Any;

/// Runtime-layer callbacks driven by the engine.
pub trait RuntimeHooks: 'static {
    /// A message has been scheduled for processing on its destination core.
    /// The engine has already advanced the core's clock to at least the
    /// arrival time; the handler performs the protocol action (reply,
    /// enqueue task, wake a blocked activity, ...) and charges any
    /// processing time via [`Ops::advance_core`]. Must not block.
    fn on_message(&self, ops: &mut Ops<'_>, env: Envelope);

    /// `core` has no current activity and declared queued work
    /// (`queue_hint > 0`): start the next task (via
    /// [`Ops::start_activity`]) and update the hint. Must not block.
    fn on_idle(&self, ops: &mut Ops<'_>, core: CoreId);

    /// An activity's closure returned. `meta` is the descriptor passed at
    /// `start_activity`; typical duties: decrement the task group counter,
    /// notify joiners, broadcast queue occupancy. Must not block.
    fn on_activity_end(&self, ops: &mut Ops<'_>, core: CoreId, meta: Box<dyn Any + Send>);

    /// A deterministic digest of the runtime's own mutable state, folded
    /// into verification checkpoints (see `simany-core`'s checkpoint
    /// module). Implementations must return the same value at the same
    /// simulation instant across identically configured runs, and should
    /// cover any state that could silently diverge (queue occupancy,
    /// protocol counters...). The default — no runtime state — is fine for
    /// engine-level tests.
    fn state_digest(&self) -> u64 {
        0
    }
}

/// A do-nothing hooks implementation for engine-level tests that only use
/// plain activities and raw messages.
pub struct NullHooks;

impl RuntimeHooks for NullHooks {
    fn on_message(&self, _ops: &mut Ops<'_>, _env: Envelope) {}
    fn on_idle(&self, _ops: &mut Ops<'_>, _core: CoreId) {}
    fn on_activity_end(&self, _ops: &mut Ops<'_>, _core: CoreId, _meta: Box<dyn Any + Send>) {}
}
