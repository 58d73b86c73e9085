//! Protocol workload pack acceptance: every protocol terminates and passes
//! its safety checks under a partition-then-heal plan, with the sanitizer
//! watching; with no plan, and under that one, its runs are bit-identical
//! for a fixed seed, down to every latency sample; and under the plan
//! checkpoint/resume is bit-exact (checks of the shared harness,
//! `tests/common`).

mod common;

use common::*;
use simany::kernels::protocols::all_protocols;
use simany::kernels::Scale;

const N: u32 = 16;
const SEED: u64 = 7;

/// Every protocol, partitioned then healed: terminates, passes its
/// safety checks, recovers coverage, and keeps the sanitizer quiet.
#[test]
fn protocol_pack_survives_partition_then_heal() {
    for protocol in all_protocols() {
        let name = protocol.name();
        let mut spec = Case(Sm, Protocol(name), SPATIAL, Partition, Whole, SEED).spec();
        spec.engine.sanitize = true;
        let o = protocol
            .run_sim(spec, Scale(1.0), SEED)
            .expect("protocol run failed");
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

/// With no fault plan, every protocol's runs are identical for a fixed
/// seed, down to every latency sample.
#[test]
fn protocol_runs_are_reproducible_without_faults() {
    let at = |p| Case(Sm, p, SPATIAL, NoPlan, Whole, SEED);
    assert_checks(protocols().into_iter().map(at), &[Check::Repeat]);
}

/// Every protocol, partitioned then healed (seed 7).
fn partitioned() -> Vec<Case> {
    let at = |p| Case(Sm, p, SPATIAL, Partition, Resume, SEED);
    protocols().into_iter().map(at).collect()
}

/// Same seed + same fault plan: identical runs, down to every latency
/// sample, with or without the sanitizer watching.
#[test]
fn protocol_runs_are_reproducible_under_faults() {
    assert_checks(partitioned(), &[Check::Repeat, Check::Sanitizer]);
}

/// Checkpoint/resume bit-identity with an active fault plan: a
/// checkpointing run and a resumed run both match the uninterrupted one
/// while the partition is cutting links underneath them.
#[test]
fn resume_is_bit_exact_under_faults() {
    assert_checks(partitioned(), &[Check::Cut]);
}
