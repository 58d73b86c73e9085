//! Run-time protocol messages (paper §IV, *Semantics and Messages*).

use crate::state::{CellId, GroupId, LockId};
use crate::task_ctx::TaskBody;
use simany_core::ActivityId;
use simany_core::BirthId;
use simany_topology::CoreId;

/// Every message the run-time system exchanges. Travels as the opaque
/// payload of a `simany_net::Envelope`.
pub enum RtMsg {
    /// Reservation request for one task-queue slot (paper: PROBE).
    Probe {
        /// The probing task, to be woken with the outcome.
        prober: ActivityId,
        /// Core the reply goes to.
        reply_to: CoreId,
    },
    /// Reservation reply (paper: PROBE_ACK / PROBE_NACK).
    ProbeReply {
        /// The probing task.
        prober: ActivityId,
        /// Granted or denied.
        granted: bool,
        /// The responding core (so the prober can refresh its proxy).
        responder: CoreId,
        /// The responder's occupancy after the decision.
        occupancy: u32,
    },
    /// The new task itself (paper: TASK_SPAWN).
    TaskSpawn {
        /// Task closure.
        body: TaskBody,
        /// Group whose counter the task will decrement at termination.
        group: Option<GroupId>,
        /// Birth-ledger entry to discard on the spawning core once the
        /// task lands (paper §II.A).
        birth: BirthId,
        /// The spawning core.
        parent: CoreId,
        /// Debug name.
        name: &'static str,
        /// Whether this message consumes a PROBE reservation at the
        /// destination (false for migration forwards).
        reserved: bool,
        /// Pinned tasks never migrate: protocol node tasks must run on the
        /// exact core they were placed on, so both push- and pull-migration
        /// skip them.
        pinned: bool,
        /// Migration hops so far (bounded to stop pathological bouncing).
        hops: u32,
    },
    /// Queue occupancy broadcast to neighbors (paper: the accepting core
    /// "broadcasts its new task queue's state to its own neighbors").
    Occupancy {
        /// Sender core.
        from: CoreId,
        /// Its occupancy (queue + reservations).
        occupancy: u32,
    },
    /// Group-completion notification to a joiner (paper: JOINER_REQUEST).
    JoinerRequest {
        /// The suspended joiner to wake.
        joiner: ActivityId,
    },
    /// Request to move a cell to the requester (paper: DATA_REQUEST).
    DataRequest {
        /// Cell to fetch.
        cell: CellId,
        /// Requesting core (destination of the data).
        requester: CoreId,
        /// Requesting task, woken by the DATA_RESPONSE.
        activity: ActivityId,
        /// Forwarding count (stale location chasing).
        hops: u32,
    },
    /// The cell content (paper: DATA_RESPONSE).
    DataResponse {
        /// Requesting task to wake.
        activity: ActivityId,
    },
    /// Lock acquisition request sent to the lock's home core.
    LockRequest {
        /// Lock to acquire.
        lock: LockId,
        /// Requesting task (woken by the LOCK_ACK) and its core.
        activity: ActivityId,
        /// Requester core.
        requester: CoreId,
    },
    /// Lock granted.
    LockAck {
        /// The task that now holds the lock.
        activity: ActivityId,
    },
    /// Lock released (sent to the home core).
    LockRelease {
        /// Lock being released.
        lock: LockId,
    },
    /// Application-level protocol payload (the protocol workload pack):
    /// the run-time system delivers it into the destination core's mailbox
    /// and wakes the registered `recv_deadline` waiter, if any.
    App {
        /// Sending core.
        from: CoreId,
        /// Protocol-defined message discriminator.
        tag: u32,
        /// Protocol-defined payload words.
        data: [u64; 4],
    },
    /// Self-addressed deadline timer. A same-core send traverses no links,
    /// so it bypasses every fault mechanism (drop/corrupt/delay/reroute)
    /// and arrives at exactly the requested instant regardless of the
    /// active fault plan; the token guards against a stale timer waking a
    /// later wait.
    Deadline {
        /// Matches the waiter registration that armed this timer.
        token: u64,
    },
}

impl std::fmt::Debug for RtMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            RtMsg::Probe { .. } => "PROBE",
            RtMsg::ProbeReply { granted: true, .. } => "PROBE_ACK",
            RtMsg::ProbeReply { granted: false, .. } => "PROBE_NACK",
            RtMsg::TaskSpawn { .. } => "TASK_SPAWN",
            RtMsg::Occupancy { .. } => "OCCUPANCY",
            RtMsg::JoinerRequest { .. } => "JOINER_REQUEST",
            RtMsg::DataRequest { .. } => "DATA_REQUEST",
            RtMsg::DataResponse { .. } => "DATA_RESPONSE",
            RtMsg::LockRequest { .. } => "LOCK_REQUEST",
            RtMsg::LockAck { .. } => "LOCK_ACK",
            RtMsg::LockRelease { .. } => "LOCK_RELEASE",
            RtMsg::App { .. } => "APP",
            RtMsg::Deadline { .. } => "DEADLINE",
        };
        write!(f, "{name}")
    }
}
