//! Activities: the engine-level representation of running tasks.
//!
//! An *activity* is one task body: a closure executing natively between
//! interaction points on a pooled userland context — a stack of its own,
//! from first grant until the closure returns (see `crate::coro` and the
//! `engine` module docs): the paper's per-core userland contexts (§III,
//! *Implementation Efficiency*). A core hosts at
//! most one *current* activity (the one that runs when the core is
//! scheduled) plus any number of blocked or woken-but-waiting activities
//! (e.g. tasks suspended in `join`, whose "execution context is saved until
//! it receives a notification", paper §IV).

use crate::ctx::ExecCtx;
use simany_time::VirtualTime;
use std::any::Any;
use std::fmt;

/// Unique activity identifier (never reused within a run).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ActivityId(pub u64);

impl fmt::Debug for ActivityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "act{}", self.0)
    }
}

/// Task body type: ordinary Rust code with an [`ExecCtx`] for interactions.
pub type TaskFn = Box<dyn FnOnce(&mut ExecCtx)>;

/// Opaque runtime-layer descriptor attached to each activity (the task
/// run-time system stores its task bookkeeping here and receives it back in
/// `RuntimeHooks::on_activity_end`).
pub type ActivityMeta = Box<dyn Any + Send>;

/// Lifecycle state of an activity.
#[derive(Debug)]
pub enum ActivityState {
    /// Created; its closure has not started executing yet. It is its core's
    /// current activity; its first grant gives it a stack.
    Pending,
    /// Holds the run token and is executing user code right now.
    Granted,
    /// Yielded because the synchronization policy stalled its core; still
    /// the core's current activity. Flipped to `Resumable` by the engine
    /// when the drift condition clears.
    Stalled,
    /// Ready to continue (drift cleared, or just made current after a
    /// wake); waiting for the scheduler to grant the token.
    Resumable,
    /// Waiting for an explicit wake (probe ack, join notification, data
    /// response, lock grant...). Not the core's current activity.
    Blocked(&'static str),
    /// Woken but waiting in the core's resumable queue for the core to
    /// switch back to it.
    Woken,
}

/// One activity record.
pub struct Activity {
    /// Identifier.
    pub id: ActivityId,
    /// Core this activity executes on (fixed: tasks do not migrate once
    /// started — migration happens before start, at spawn time).
    pub core: simany_topology::CoreId,
    /// Lifecycle state.
    pub state: ActivityState,
    /// The not-yet-started closure (taken at first grant).
    pub job: Option<TaskFn>,
    /// The slot, in the run's `coro::Pool`, of the context this activity's
    /// closure runs on — where a grant must switch to. Set when the
    /// activity is first granted, `None` before.
    pub context: Option<usize>,
    /// Virtual time at which the wake became available; the resuming core's
    /// clock is advanced to at least this.
    pub wake_time: Option<VirtualTime>,
    /// Whether resuming this activity from its current block charges the
    /// engine's context-switch cost (paper §V: 15 cycles apply to a
    /// "context switch to a joining task resuming execution"; lightweight
    /// protocol waits like probe replies resume for free beyond their
    /// handler costs).
    pub charge_resume: bool,
    /// Runtime-layer descriptor (task bookkeeping).
    pub meta: Option<ActivityMeta>,
    /// Debug label.
    pub name: &'static str,
}

impl Activity {
    /// True iff the scheduler may grant the token to this activity.
    pub fn grantable(&self) -> bool {
        matches!(
            self.state,
            ActivityState::Pending | ActivityState::Resumable
        )
    }

    /// True iff this activity is stalled by the synchronization policy.
    pub fn is_stalled(&self) -> bool {
        matches!(self.state, ActivityState::Stalled)
    }
}

impl fmt::Debug for Activity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Activity")
            .field("id", &self.id)
            .field("core", &self.core)
            .field("state", &self.state)
            .field("name", &self.name)
            .finish()
    }
}
