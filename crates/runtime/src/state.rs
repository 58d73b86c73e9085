//! Run-time system state: task queues, occupancy proxies, groups, cells,
//! locks and statistics.

use crate::task_ctx::TaskBody;
use simany_core::{ActivityId, VirtualTime};
use simany_topology::CoreId;
use std::collections::{HashMap, VecDeque};

/// Identifier of a task group (coarse synchronization unit, paper §IV).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GroupId(pub u64);

/// Identifier of a distributed-memory cell.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CellId(pub u64);

/// Identifier of a simulated lock.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LockId(pub u64);

/// An application-level message delivered to a core's protocol mailbox
/// (the protocol workload pack's `send_app`/`recv_deadline` seam).
#[derive(Clone, Copy, Debug)]
pub struct AppMsg {
    /// Sending core.
    pub from: CoreId,
    /// Protocol-defined message discriminator.
    pub tag: u32,
    /// Protocol-defined payload words.
    pub data: [u64; 4],
}

/// A task waiting in a core's queue.
pub(crate) struct QueuedTask {
    pub body: TaskBody,
    pub group: Option<GroupId>,
    pub name: &'static str,
    /// Pinned tasks are excluded from pull-migration.
    pub pinned: bool,
}

/// Per-core run-time state.
#[derive(Default)]
pub(crate) struct RtCore {
    /// Tasks accepted but not yet started.
    pub queue: VecDeque<QueuedTask>,
    /// Slots promised to in-flight probes.
    pub reserved: u32,
    /// Occupancy proxies: believed queue occupation of each neighbor
    /// (paper §IV: "the run-time system maintains proxies to neighbors'
    /// occupation status").
    pub proxy: HashMap<CoreId, u32>,
    /// Application messages awaiting a `recv_deadline` on this core.
    pub mailbox: VecDeque<AppMsg>,
    /// The task (and its timer token) currently blocked in `recv_deadline`.
    pub recv_waiter: Option<(ActivityId, u64)>,
    /// Monotonic token distinguishing the live deadline timer from stale
    /// ones still in flight.
    pub recv_token: u64,
}

impl RtCore {
    /// Occupation counted against the queue capacity.
    pub fn occupancy(&self) -> u32 {
        self.queue.len() as u32 + self.reserved
    }
}

/// A task group: active-task counter plus registered joiners.
pub(crate) struct Group {
    pub active: u32,
    pub joiners: Vec<(ActivityId, CoreId)>,
}

/// A distributed-memory cell: current location and architectural size.
pub(crate) struct CellInfo {
    pub location: CoreId,
    pub size_bytes: u32,
}

/// A simulated lock living on its home core.
pub(crate) struct LockState {
    pub home: CoreId,
    pub held: bool,
    /// Virtual time at which the lock was last released. Grants are never
    /// stamped earlier: even when the simulator processes a request after
    /// the previous critical section completed in *simulation* order, the
    /// virtual serialization of the resource is preserved (the paper's
    /// out-of-order biases apply to message timing, but a lock cannot be
    /// virtually free before its holder released it).
    pub free_at: VirtualTime,
    /// Blocked requesters in arrival order.
    pub waiters: VecDeque<(ActivityId, CoreId)>,
}

/// Run-time–level statistics, complementing `simany_core::SimStats`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RtStats {
    /// PROBE messages sent.
    pub probes: u64,
    /// Probes granted (PROBE_ACK).
    pub probe_acks: u64,
    /// Probes denied (PROBE_NACK).
    pub probe_nacks: u64,
    /// Probes never sent because no proxy looked free.
    pub probe_skips: u64,
    /// Tasks shipped with TASK_SPAWN.
    pub spawns: u64,
    /// Conditional spawns that fell back to sequential execution.
    pub sequential_fallbacks: u64,
    /// Queued tasks forwarded to an idle-looking neighbor (the paper's
    /// progressive task migration under overload, §IV).
    pub task_migrations: u64,
    /// OCCUPANCY broadcasts sent.
    pub occupancy_msgs: u64,
    /// JOINER_REQUEST notifications sent.
    pub joiner_notifies: u64,
    /// join() calls that found the group already finished.
    pub joins_immediate: u64,
    /// join() calls that had to suspend.
    pub joins_suspended: u64,
    /// Shared-memory loads / stores timed.
    pub sm_loads: u64,
    /// Shared-memory stores timed.
    pub sm_stores: u64,
    /// L1 hits across all tasks.
    pub l1_hits: u64,
    /// L1 misses across all tasks.
    pub l1_misses: u64,
    /// Coherence protocol legs charged (validation mode).
    pub coherence_legs: u64,
    /// Cell accesses satisfied locally.
    pub cell_local: u64,
    /// Cell accesses that required a data transfer.
    pub cell_remote: u64,
    /// DATA_REQUEST forwards due to stale location.
    pub cell_forwards: u64,
    /// Lock acquisitions granted immediately.
    pub lock_fast: u64,
    /// Lock acquisitions that had to wait.
    pub lock_waits: u64,
    /// Protocol sends retried after a fault-plan loss (timeout + backoff).
    pub send_retries: u64,
    /// Protocol sends abandoned after exhausting the retry budget.
    pub send_failures: u64,
    /// Probe targets skipped (or probes answered NACK) because the target
    /// core had failed.
    pub probe_unavailable: u64,
    /// Spawns that fell back to running locally because the spawn message
    /// could not be delivered (failed core / partition).
    pub fault_local_runs: u64,
    /// Cell accesses degraded to a backing-store charge because the data
    /// request could not be delivered.
    pub cell_access_failures: u64,
    /// Application (protocol-pack) messages sent with `send_app`.
    pub app_sends: u64,
    /// Application messages delivered into a core mailbox.
    pub app_deliveries: u64,
    /// Application sends abandoned after exhausting the retry budget.
    pub app_send_failures: u64,
    /// Deadline timers armed by `recv_deadline`.
    pub timers_set: u64,
    /// Deadline timers that fired and woke their waiter.
    pub timer_fires: u64,
    /// Deadline timers that arrived stale (their wait was already over).
    pub timers_stale: u64,
    /// Pinned node tasks shipped with `spawn_pinned`.
    pub pinned_spawns: u64,
    /// Pinned spawns dropped because the target core was unreachable.
    pub pinned_spawn_drops: u64,
}

impl RtStats {
    /// Count one timed shared-memory load or store.
    pub(crate) fn count_sm_access(&mut self, write: bool) {
        if write {
            self.sm_stores += 1;
        } else {
            self.sm_loads += 1;
        }
    }
}

/// All mutable run-time state. [`crate::TaskRuntime`] owns it in a
/// `RefCell` that every hook and every `TaskCtx` call borrows at most
/// once; the protocol helpers take it as `&mut RtState`. Groups,
/// cells and locks are never freed, so their ids index these vectors
/// densely.
pub(crate) struct RtState {
    pub cores: Vec<RtCore>,
    pub groups: Vec<Group>,
    pub cells: Vec<CellInfo>,
    pub locks: Vec<LockState>,
    pub directory: Option<simany_mem::DirectoryTiming>,
    /// The core a PROBE_REPLY granted each prober still blocked in
    /// `probe`, until it resumes and takes it; no entry means denied.
    pub probe_grants: HashMap<ActivityId, CoreId>,
    pub stats: RtStats,
}

impl RtState {
    pub fn new(n_cores: u32, directory: Option<simany_mem::DirectoryTiming>) -> Self {
        RtState {
            cores: (0..n_cores).map(|_| RtCore::default()).collect(),
            groups: Vec::new(),
            cells: Vec::new(),
            locks: Vec::new(),
            directory,
            probe_grants: HashMap::new(),
            stats: RtStats::default(),
        }
    }

    pub fn new_group(&mut self) -> GroupId {
        self.groups.push(Group {
            active: 0,
            joiners: Vec::new(),
        });
        GroupId(self.groups.len() as u64 - 1)
    }

    pub fn new_cell(&mut self, location: CoreId, size_bytes: u32) -> CellId {
        self.cells.push(CellInfo {
            location,
            size_bytes,
        });
        CellId(self.cells.len() as u64 - 1)
    }

    pub fn new_lock(&mut self, home: CoreId) -> LockId {
        self.locks.push(LockState {
            home,
            held: false,
            free_at: VirtualTime::ZERO,
            waiters: VecDeque::new(),
        });
        LockId(self.locks.len() as u64 - 1)
    }

    pub fn group(&mut self, g: GroupId) -> &mut Group {
        self.groups.get_mut(g.0 as usize).expect("unknown group")
    }

    pub fn cell(&mut self, c: CellId) -> &mut CellInfo {
        self.cells.get_mut(c.0 as usize).expect("unknown cell")
    }

    pub fn lock_state(&mut self, l: LockId) -> &mut LockState {
        self.locks.get_mut(l.0 as usize).expect("unknown lock")
    }

    /// One task of `g` terminated (or was never placed): returns the
    /// joiners to notify when it was the last one.
    pub fn leave_group(&mut self, g: GroupId) -> Vec<(ActivityId, CoreId)> {
        let group = self.group(g);
        assert!(group.active > 0, "group counter underflow");
        group.active -= 1;
        if group.active == 0 {
            std::mem::take(&mut group.joiners)
        } else {
            Vec::new()
        }
    }

    /// The grant-or-queue decision at `lock`'s home: a free lock is taken
    /// for `activity` and the earliest instant its grant may carry is
    /// returned (never before the previous release); a held lock queues
    /// the requester, who is granted on a later release.
    pub fn acquire(
        &mut self,
        lock: LockId,
        activity: ActivityId,
        requester: CoreId,
    ) -> Option<VirtualTime> {
        let ls = self.lock_state(lock);
        if ls.held {
            ls.waiters.push_back((activity, requester));
            self.stats.lock_waits += 1;
            None
        } else {
            ls.held = true;
            let free_at = ls.free_at;
            self.stats.lock_fast += 1;
            Some(free_at)
        }
    }

    /// The release-and-hand-over decision at `lock`'s home: the lock is
    /// virtually free from `at` on. The next waiter, if any, is returned and
    /// the lock stays held for it; otherwise the lock is freed.
    pub fn release(&mut self, lock: LockId, at: VirtualTime) -> Option<(ActivityId, CoreId)> {
        let ls = self.lock_state(lock);
        ls.free_at = ls.free_at.max(at);
        let next = ls.waiters.pop_front();
        ls.held = next.is_some();
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_counts_queue_and_reservations() {
        let mut c = RtCore::default();
        assert_eq!(c.occupancy(), 0);
        c.reserved = 2;
        assert_eq!(c.occupancy(), 2);
        c.queue.push_back(QueuedTask {
            body: Box::new(|_| {}),
            group: None,
            name: "t",
            pinned: false,
        });
        assert_eq!(c.occupancy(), 3);
    }
}
