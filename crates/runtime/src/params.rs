//! Run-time system parameters (costs, queue sizes, message sizes).

use simany_core::Ops;
use simany_mem::{Addr, MemoryArch, MemoryParams};
use simany_time::{BlockCost, VDuration};
use simany_topology::CoreId;
use std::sync::Arc;

/// Plug-in replacement for the abstract timing models, used by the
/// cycle-level reference simulator (`simany-cyclelevel`): when installed,
/// `TaskCtx::compute` and `TaskCtx::load`/`store` route through this trait
/// instead of the probabilistic predictor / pessimistic-L1 / flat-bank
/// models, so the *same kernels* run under detailed microarchitectural
/// timing without modification.
pub trait DetailedTiming: Send + Sync {
    /// Total cycles for one instruction block on `core` (including branch
    /// penalties from whatever predictor state the model keeps).
    fn block_cycles(&self, core: CoreId, block: &BlockCost) -> u64;

    /// Charge a data memory access on `core` (cache lookup, coherence
    /// traffic, NoC contention...). The implementation advances `core`'s
    /// clock through `ops`.
    fn mem_access(&self, ops: &mut Ops<'_>, core: CoreId, addr: Addr, write: bool);
}

/// How the run-time system orders spawn candidates among the neighbors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpawnPolicy {
    /// Prefer the neighbor whose occupancy proxy shows the emptiest queue
    /// (ties by core id). The paper's default behavior: "dispatching
    /// spawned tasks to neighboring cores only".
    LeastLoaded,
    /// Like `LeastLoaded` but weight the queue length by the inverse core
    /// speed, preferring fast cores — the scheduling-policy improvement the
    /// paper's conclusion suggests for polymorphic architectures (§VIII).
    FavorFast,
}

/// Timeout/retry policy for protocol messages on faulty machines
/// (paper-shaped resilience: a lost `DATA_REQUEST`, probe or spawn is
/// retried with exponential backoff before the caller degrades locally).
///
/// The k-th retry (k = 0 for the first) departs `timeout(k)` after the
/// failed attempt, doubling each time and capped at `max_timeout`. With an
/// empty fault plan no send ever fails, so this policy is never consulted —
/// the no-fault path stays bit-exact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of retries after the initial attempt.
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_timeout: VDuration,
    /// Backoff cap.
    pub max_timeout: VDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_timeout: VDuration::from_cycles(200),
            max_timeout: VDuration::from_cycles(3_200),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry `k` (0-based): `base << k`, saturating, capped
    /// at `max_timeout`.
    pub fn timeout(&self, k: u32) -> VDuration {
        let scaled = self.base_timeout.ticks().checked_shl(k).unwrap_or(u64::MAX);
        VDuration(scaled.min(self.max_timeout.ticks()))
    }
}

/// All run-time system parameters.
#[derive(Clone)]
pub struct RuntimeParams {
    /// Memory architecture type (paper §V).
    pub arch: MemoryArch,
    /// Memory timing parameters.
    pub mem: MemoryParams,
    /// Task-queue slots per core (bounds conditional spawning).
    pub queue_capacity: u32,
    /// Overhead of starting a task on a core, "in addition to the time to
    /// receive the spawn message" (paper §V: 10 cycles).
    pub task_start_cost: VDuration,
    /// Run-time processing cost charged when handling a protocol message
    /// (probe, occupancy update, join notification...).
    pub handler_cost: VDuration,
    /// Spawn candidate ordering.
    pub spawn_policy: SpawnPolicy,
    /// Size in bytes of control messages (PROBE, ACK/NACK, OCCUPANCY,
    /// JOINER_REQUEST, LOCK_*, DATA_REQUEST).
    pub ctrl_msg_bytes: u32,
    /// Size in bytes of a TASK_SPAWN message (task arguments).
    pub spawn_msg_bytes: u32,
    /// Detailed microarchitectural timing plug-in (cycle-level reference);
    /// `None` selects SiMany's abstract models.
    pub detailed: Option<Arc<dyn DetailedTiming>>,
    /// Timeout/retry policy for protocol messages lost to the fault plan.
    pub retry: RetryPolicy,
}

impl std::fmt::Debug for RuntimeParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeParams")
            .field("arch", &self.arch)
            .field("mem", &self.mem)
            .field("queue_capacity", &self.queue_capacity)
            .field("task_start_cost", &self.task_start_cost)
            .field("handler_cost", &self.handler_cost)
            .field("spawn_policy", &self.spawn_policy)
            .field("ctrl_msg_bytes", &self.ctrl_msg_bytes)
            .field("spawn_msg_bytes", &self.spawn_msg_bytes)
            .field("detailed", &self.detailed.as_ref().map(|_| "..."))
            .field("retry", &self.retry)
            .finish()
    }
}

impl Default for RuntimeParams {
    fn default() -> Self {
        RuntimeParams {
            arch: MemoryArch::SharedUniform {
                coherence_timings: false,
            },
            mem: MemoryParams::default(),
            queue_capacity: 4,
            task_start_cost: VDuration::from_cycles(10),
            handler_cost: VDuration::from_cycles(2),
            spawn_policy: SpawnPolicy::LeastLoaded,
            ctrl_msg_bytes: 8,
            spawn_msg_bytes: 64,
            detailed: None,
            retry: RetryPolicy::default(),
        }
    }
}

impl RuntimeParams {
    /// The paper's optimistic shared-memory architecture type.
    pub fn shared_memory() -> Self {
        RuntimeParams::default()
    }

    /// Shared memory with coherence-effect timings enabled (validation
    /// configuration of Fig. 5/6).
    pub fn shared_memory_coherent() -> Self {
        RuntimeParams {
            arch: MemoryArch::SharedUniform {
                coherence_timings: true,
            },
            ..RuntimeParams::default()
        }
    }

    /// The paper's realistic distributed-memory architecture type.
    pub fn distributed_memory() -> Self {
        RuntimeParams {
            arch: MemoryArch::Distributed,
            ..RuntimeParams::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_costs_match_paper() {
        let p = RuntimeParams::default();
        assert_eq!(p.task_start_cost, VDuration::from_cycles(10));
        assert_eq!(p.mem.backing_latency, VDuration::from_cycles(10));
        assert!(!p.arch.is_distributed());
    }

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let r = RetryPolicy::default();
        assert_eq!(r.timeout(0), VDuration::from_cycles(200));
        assert_eq!(r.timeout(1), VDuration::from_cycles(400));
        assert_eq!(r.timeout(3), VDuration::from_cycles(1_600));
        assert_eq!(r.timeout(4), VDuration::from_cycles(3_200));
        assert_eq!(r.timeout(10), VDuration::from_cycles(3_200));
        assert_eq!(r.timeout(200), VDuration::from_cycles(3_200));
    }

    #[test]
    fn presets() {
        assert!(RuntimeParams::distributed_memory().arch.is_distributed());
        assert!(RuntimeParams::shared_memory_coherent()
            .arch
            .coherence_enabled());
        assert!(!RuntimeParams::shared_memory().arch.coherence_enabled());
    }
}
