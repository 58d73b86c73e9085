//! Protocol workload pack acceptance suite (PR 9):
//!
//! (a) every protocol terminates and passes its safety checks under a
//!     partition-then-heal plan, with the sanitizer watching;
//! (b) protocol runs are bit-identical for a fixed `(seed, threads)`
//!     with an active fault plan — down to every latency sample;
//! (c) `threads <= 1` is the sequential engine, and the 4-thread run is
//!     reproducible, both under faults;
//! (d) checkpoint/resume at `threads = 4` under an active fault plan is
//!     bit-exact against the uninterrupted run.

use simany::core::{EngineConfig, VDuration, VirtualTime};
use simany::fault::FaultPlanBuilder;
use simany::kernels::protocols::{all_protocols, protocol_by_name, ProtocolOutcome};
use simany::kernels::Scale;
use simany::presets;
use std::sync::Arc;

const N: u32 = 16;
const SEED: u64 = 7;

/// Everything a behavioral divergence would show up in: engine counters,
/// protocol metrics, and the raw latency samples.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    final_vtime_cycles: u64,
    net_messages: u64,
    msgs_dropped: u64,
    msg_retries: u64,
    delivered: u64,
    payload_msgs: u64,
    reissues: u64,
    degraded: u64,
    leader_changes: u64,
    latencies: Vec<u64>,
}

impl Fingerprint {
    fn of(o: &ProtocolOutcome) -> Self {
        Fingerprint {
            final_vtime_cycles: o.cycles(),
            net_messages: o.out.stats.net.messages,
            msgs_dropped: o.out.stats.msgs_dropped,
            msg_retries: o.out.stats.msg_retries,
            delivered: o.metrics.delivered,
            payload_msgs: o.metrics.payload_msgs,
            reissues: o.metrics.reissues,
            degraded: o.metrics.degraded,
            leader_changes: o.metrics.leader_changes,
            latencies: o.metrics.latencies.clone(),
        }
    }
}

/// Partition instants per protocol: quorum gets its cut later so a
/// stable leader exists before the mesh splits.
fn partition_window(name: &str) -> (u64, u64) {
    if name.starts_with("Quorum") {
        (15_000, 40_000)
    } else {
        (5_000, 30_000)
    }
}

fn run_partitioned(name: &str, tweak: impl FnOnce(&mut EngineConfig)) -> ProtocolOutcome {
    let protocol = protocol_by_name(name).expect("protocol");
    let (at, heal) = partition_window(protocol.name());
    let mut spec = presets::uniform_mesh_sm(N);
    let plan = FaultPlanBuilder::new()
        .partition_halves(
            &spec.topo,
            VirtualTime::from_cycles(at),
            Some(VirtualTime::from_cycles(heal)),
        )
        .build(&spec.topo);
    spec.engine = spec
        .engine
        .with_fault_plan(Arc::new(plan))
        .with_seed(SEED)
        .with_sanitize(true);
    tweak(&mut spec.engine);
    protocol
        .run_sim(spec, Scale(1.0), SEED)
        .expect("protocol run failed")
}

/// Every protocol, partitioned then healed: terminates, passes its
/// safety checks, recovers coverage, and keeps the sanitizer quiet.
#[test]
fn protocol_pack_survives_partition_then_heal() {
    for protocol in all_protocols() {
        let name = protocol.name();
        let o = run_partitioned(name, |_| {});
        assert!(o.verified, "{name}: safety checks failed under partition");
        assert!(
            o.out.stats.partitions_observed >= 1,
            "{name}: the plan's partition never bit"
        );
        assert_eq!(
            o.out.stats.sanitizer_violations, 0,
            "{name}: sanitizer violations under faults"
        );
        let m = &o.metrics;
        match name {
            "Gossip" => {
                assert_eq!(m.delivered, u64::from(N), "{name}: coverage must recover");
            }
            "DHT Lookup" => {
                assert!(
                    m.coverage().is_some_and(|c| c > 0.9),
                    "{name}: coverage {:?} too low after heal",
                    m.coverage()
                );
                assert!(m.reissues > 0, "{name}: partition should force re-issues");
            }
            "Quorum" => {
                assert!(m.delivered > 0, "{name}: nothing committed across the run");
                assert!(m.leader_changes >= 1, "{name}: no leader was ever elected");
            }
            other => panic!("unexpected protocol {other}"),
        }
    }
}

/// Same `(seed, threads)` + same fault plan → identical runs, down to
/// every latency sample.
#[test]
fn protocol_runs_are_reproducible_under_faults() {
    for protocol in all_protocols() {
        let name = protocol.name();
        let a = Fingerprint::of(&run_partitioned(name, |_| {}));
        let b = Fingerprint::of(&run_partitioned(name, |_| {}));
        assert_eq!(a, b, "{name}: sequential repeat diverged");
    }
}

/// `threads = 1` (and the `0` alias) is the sequential engine — also
/// with a fault plan active.
#[test]
fn single_thread_matches_sequential_under_faults() {
    for protocol in all_protocols() {
        let name = protocol.name();
        let one = Fingerprint::of(&run_partitioned(name, |cfg| cfg.threads = 1));
        let zero = Fingerprint::of(&run_partitioned(name, |cfg| cfg.threads = 0));
        assert_eq!(one, zero, "{name}: threads=1 diverged from sequential");
    }
}

/// Fixed `threads = 4` + fixed seed + fault plan → identical runs.
#[test]
fn parallel_runs_are_reproducible_under_faults() {
    for protocol in all_protocols() {
        let name = protocol.name();
        let a = Fingerprint::of(&run_partitioned(name, |cfg| cfg.threads = 4));
        let b = Fingerprint::of(&run_partitioned(name, |cfg| cfg.threads = 4));
        assert_eq!(a, b, "{name}: 4-thread repeat diverged");
    }
}

/// Checkpoint/resume bit-identity with an *active fault plan* at
/// `threads = 4` (PR 9 satellite): a checkpointing run and a resumed run
/// both match the uninterrupted baseline while the partition is cutting
/// links underneath them.
#[test]
fn parallel_resume_is_bit_exact_under_faults() {
    let dir = std::env::temp_dir().join("simany-protocols-resume");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for protocol in all_protocols() {
        let name = protocol.name();
        let cp = dir.join(format!("{}.checkpoint", name.replace(' ', "-")));

        let base_run = run_partitioned(name, |cfg| cfg.threads = 4);
        let baseline = Fingerprint::of(&base_run);
        let every = VDuration::from_cycles((base_run.cycles() / 4).max(1));

        let cp2 = cp.clone();
        let written = run_partitioned(name, move |cfg| {
            cfg.threads = 4;
            cfg.checkpoint_every = Some(every);
            cfg.checkpoint_path = Some(cp2);
        });
        assert_eq!(
            baseline,
            Fingerprint::of(&written),
            "{name}: checkpointing changed behavior under faults"
        );
        assert!(
            written.out.stats.checkpoints_written > 0,
            "{name}: no checkpoint written"
        );

        let cp3 = cp.clone();
        let resumed = run_partitioned(name, move |cfg| {
            cfg.threads = 4;
            cfg.resume_from = Some(cp3);
        });
        assert_eq!(
            baseline,
            Fingerprint::of(&resumed),
            "{name}: resumed run diverged under faults"
        );
        assert_eq!(
            resumed.out.stats.checkpoint_verifications, 1,
            "{name}: resume did not verify against the checkpoint"
        );
    }
}
