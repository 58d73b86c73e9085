//! Property tests for the interconnect model: per-sender FIFO, contention
//! causality and conservation of accounting.

use proptest::prelude::*;
use simany_net::{NetworkModel, NetworkParams, Payload};
use simany_time::{VDuration, VirtualTime};
use simany_topology::{mesh_2d, CoreId};
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Messages from one core to one destination arrive in send order
    /// (paper §II.B: "a core receives all messages coming from another
    /// given core in the order the latter sent them") and never before the
    /// pure route latency has elapsed.
    #[test]
    fn per_pair_fifo_and_causality(
        n in prop::sample::select(vec![4u32, 16, 64]),
        sends in prop::collection::vec(
            (0u32..64, 0u32..64, 1u32..512, 0u64..1000), 1..60),
    ) {
        let mut net = NetworkModel::new(mesh_2d(n), NetworkParams::default());
        let mut last_arrival: HashMap<(u32, u32), VirtualTime> = HashMap::new();
        let mut last_sent: HashMap<(u32, u32), u64> = HashMap::new();
        for (src, dst, size, sent_cy) in sends {
            let (src, dst) = (src % n, dst % n);
            // Per-sender streams must be sent in nondecreasing time order
            // (cores' clocks are monotone); enforce that in the generator.
            let key = (src, dst);
            let sent_cy = sent_cy.max(*last_sent.get(&key).unwrap_or(&0));
            last_sent.insert(key, sent_cy);

            let sent = VirtualTime::from_cycles(sent_cy);
            let env = net.send(CoreId(src), CoreId(dst), size, sent, Payload::none());

            // Causality: arrival >= send + uncontended latency.
            let min = net.uncontended_latency(CoreId(src), CoreId(dst), size);
            prop_assert!(env.arrival >= sent + VDuration::ZERO);
            prop_assert!(
                env.arrival.ticks() >= sent.ticks() + min.ticks()
                    || src == dst,
                "arrival beats physics: {} < {} + {}",
                env.arrival, sent, min
            );

            // FIFO per (src, dst).
            if let Some(&prev) = last_arrival.get(&key) {
                prop_assert!(
                    env.arrival >= prev,
                    "FIFO violated for {}->{}",
                    src, dst
                );
            }
            last_arrival.insert(key, env.arrival);
        }
    }

    /// Per-sender FIFO survives fault injection: with links failing and
    /// recovering (reroutes onto longer paths) and messages randomly
    /// delayed in flight, every message that *is* delivered still arrives
    /// no earlier than its predecessor from the same sender, and never
    /// beats the fault-free route physics.
    #[test]
    fn per_pair_fifo_survives_faults(
        net_seed in 0u64..500,
        plan_seed in 0u64..500,
        sends in prop::collection::vec(
            (0u32..16, 0u32..16, 1u32..256, 0u64..20_000), 1..80),
    ) {
        let topo = mesh_2d(16);
        let cfg = simany_fault::FaultConfig {
            link_fail_prob: 0.2,
            repair_after: Some(VDuration::from_cycles(2_000)),
            drop_prob: 0.05,
            delay_prob: 0.3,
            delay: VDuration::from_cycles(500),
            horizon: VirtualTime::from_cycles(20_000),
            ..simany_fault::FaultConfig::default()
        };
        let plan = simany_fault::FaultPlan::sample(&topo, &cfg, plan_seed);
        let mut net = NetworkModel::with_faults(
            mesh_2d(16),
            NetworkParams::default(),
            Some(std::sync::Arc::new(plan)),
            net_seed,
        );
        let mut last_arrival: HashMap<(u32, u32), VirtualTime> = HashMap::new();
        let mut last_sent: HashMap<(u32, u32), u64> = HashMap::new();
        for (src, dst, size, sent_cy) in sends {
            let (src, dst) = (src % 16, dst % 16);
            let key = (src, dst);
            // Sender clocks are monotone: per-pair send stamps nondecrease.
            let sent_cy = sent_cy.max(*last_sent.get(&key).unwrap_or(&0));
            last_sent.insert(key, sent_cy);
            let sent = VirtualTime::from_cycles(sent_cy);

            let min = net.uncontended_latency(CoreId(src), CoreId(dst), size);
            match net.try_send(CoreId(src), CoreId(dst), size, sent, Payload::none()) {
                Err(_) => {} // dropped/unreachable: no ordering obligation
                Ok(env) => {
                    // A rerouted path is never shorter than the base route,
                    // and an injected delay only adds: physics still hold.
                    prop_assert!(
                        env.arrival.ticks() >= sent.ticks() + min.ticks() || src == dst,
                        "arrival beats physics under faults: {} < {} + {}",
                        env.arrival, sent, min
                    );
                    if let Some(&prev) = last_arrival.get(&key) {
                        prop_assert!(
                            env.arrival >= prev,
                            "FIFO violated under faults for {}->{}: {} < {}",
                            src, dst, env.arrival, prev
                        );
                    }
                    last_arrival.insert(key, env.arrival);
                }
            }
        }
    }

    /// Contention only delays: with a competing background flow, a probe
    /// message never arrives earlier than it would on an idle network.
    #[test]
    fn contention_is_monotone(
        flows in prop::collection::vec((0u32..16, 0u32..16, 64u32..2048), 0..20),
        probe_size in 1u32..256,
    ) {
        let params = NetworkParams::default();
        let mut idle = NetworkModel::new(mesh_2d(16), params);
        let mut busy = NetworkModel::new(mesh_2d(16), params);
        // Saturate the busy network with background flows at t=0.
        for (s, d, size) in flows {
            if s != d {
                let _ = busy.send(CoreId(s % 16), CoreId(d % 16), size, VirtualTime::ZERO, Payload::none());
            }
        }
        let t = VirtualTime::from_cycles(1);
        let a = idle.send(CoreId(0), CoreId(15), probe_size, t, Payload::none());
        let b = busy.send(CoreId(0), CoreId(15), probe_size, t, Payload::none());
        prop_assert!(b.arrival >= a.arrival, "contention made a message faster");
    }

    /// Statistics conservation: message and byte counters equal what was
    /// pushed in.
    #[test]
    fn stats_conservation(
        sends in prop::collection::vec((0u32..16, 0u32..16, 0u32..1024), 0..40),
    ) {
        let mut net = NetworkModel::new(mesh_2d(16), NetworkParams::default());
        let mut bytes = 0u64;
        for &(s, d, size) in &sends {
            net.send(CoreId(s % 16), CoreId(d % 16), size, VirtualTime::ZERO, Payload::none());
            bytes += u64::from(size);
        }
        prop_assert_eq!(net.stats().messages, sends.len() as u64);
        prop_assert_eq!(net.stats().bytes, bytes);
    }
}
