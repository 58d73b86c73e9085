//! Property tests for the spatial-synchronization invariant.
//!
//! The paper's guarantee (§II.A): under spatial synchronization with drift
//! bound `T`, a core never runs ahead of its most-late neighbor by more
//! than `T` — up to the granularity of one timing annotation, since the
//! check happens after the advance. We verify the instantaneous observed
//! drift never exceeds `T + max_step` across randomized programs, and that
//! runs are bit-identical for a fixed seed.

use proptest::prelude::*;
use simany_core::hooks::NullHooks;
use simany_core::{
    simulate, CoreId, EngineConfig, ExecCtx, SimStats, SyncPolicy, VDuration, VirtualTime,
};
use simany_topology::{mesh_2d, ring, Topology};
use std::sync::Arc;

fn run_program(topo: Topology, t_cycles: u64, seed: u64, plans: Vec<Vec<u64>>) -> SimStats {
    let config = EngineConfig::default()
        .with_drift_cycles(t_cycles)
        .with_seed(seed);
    run_config(topo, config, plans)
}

fn run_config(topo: Topology, config: EngineConfig, plans: Vec<Vec<u64>>) -> SimStats {
    simulate(topo, config, Arc::new(NullHooks), move |ops| {
        for (i, plan) in plans.into_iter().enumerate() {
            if plan.is_empty() {
                continue;
            }
            ops.start_activity(
                CoreId(i as u32),
                "plan",
                Box::new(()),
                Box::new(move |ctx: &mut ExecCtx| {
                    for step in plan {
                        ctx.advance_cycles(step);
                    }
                }),
            );
        }
    })
    .expect("simulation must complete")
}

/// Like [`run_config`] but with message traffic: each step advances the
/// core's clock and optionally fires a 64-byte message at another core.
fn run_msg_config(
    topo: Topology,
    config: EngineConfig,
    plans: Vec<Vec<(u64, u32, bool)>>,
) -> SimStats {
    let n = topo.n_cores();
    simulate(topo, config, Arc::new(NullHooks), move |ops| {
        for (i, plan) in plans.into_iter().enumerate() {
            if plan.is_empty() {
                continue;
            }
            ops.start_activity(
                CoreId(i as u32),
                "plan",
                Box::new(()),
                Box::new(move |ctx: &mut ExecCtx| {
                    for (step, dst, do_send) in plan {
                        ctx.advance_cycles(step);
                        let dst = dst % n;
                        if do_send && dst != i as u32 {
                            ctx.send(CoreId(dst), 64, simany_core::Payload::none())
                                .unwrap();
                        }
                    }
                }),
            );
        }
    })
    .expect("simulation must complete")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A run with message traffic is a pure function of (program, config,
    /// seed): across random topologies and every policy, repeated runs are
    /// bit-identical and the online sanitizer re-derives every invariant
    /// (drift, FIFO, causality, birth floors) and finds nothing.
    #[test]
    fn message_runs_are_deterministic_and_sound(
        n in 4u32..12,
        use_ring in any::<bool>(),
        which_policy in 0usize..4,
        seed in 0u64..1000,
        plans in prop::collection::vec(
            prop::collection::vec((1u64..40, 0u32..12, any::<bool>()), 1..20), 2..12),
    ) {
        let topo = if use_ring { ring(n) } else { mesh_2d(n) };
        let slack = VDuration::from_cycles(50);
        let policy = [
            SyncPolicy::Spatial { t: slack },
            SyncPolicy::BoundedSlack { window: slack },
            SyncPolicy::Conservative,
            SyncPolicy::Unbounded,
        ][which_policy];
        let mut plans = plans;
        plans.truncate(n as usize);

        let mut config = EngineConfig::default().with_seed(seed).with_sanitize(true);
        config.sync = policy;
        let a = run_msg_config(topo.clone(), config.clone(), plans.clone());
        let b = run_msg_config(topo, config, plans);
        prop_assert_eq!(a.final_vtime, b.final_vtime);
        prop_assert_eq!(a.stall_events, b.stall_events);
        prop_assert_eq!(a.scheduler_picks, b.scheduler_picks);
        prop_assert_eq!(a.activities_started, b.activities_started);
        prop_assert_eq!(a.late_messages, b.late_messages);
        prop_assert_eq!(a.on_time_messages, b.on_time_messages);
        prop_assert_eq!(a.net.messages, b.net.messages);
        prop_assert_eq!(a.net.bytes, b.net.bytes);

        // The sanitizer independently re-derives the drift bound (message
        // receives may legitimately jump a clock to the arrival time, so
        // the static `T + step` bound of the pure-compute tests does not
        // apply here — the online invariant checks do).
        prop_assert_eq!(a.sanitizer_violations, 0,
            "sanitizer violations under {:?}", policy);
        prop_assert!(a.sanitizer_checks > 0);
    }

    #[test]
    fn drift_never_exceeds_t_plus_step(
        n in 2u32..10,
        use_ring in any::<bool>(),
        t_cycles in prop::sample::select(vec![20u64, 50, 100]),
        seed in 0u64..1000,
        plans in prop::collection::vec(
            prop::collection::vec(1u64..40, 0..30), 2..10),
    ) {
        let topo = if use_ring { ring(n) } else { mesh_2d(n) };
        let mut plans = plans;
        plans.truncate(n as usize);
        let max_step = plans.iter().flatten().copied().max().unwrap_or(0);
        let expected_final = plans.iter()
            .map(|p| p.iter().sum::<u64>())
            .max()
            .unwrap_or(0);
        let stats = run_program(topo, t_cycles, seed, plans);
        prop_assert_eq!(stats.final_vtime, VirtualTime::from_cycles(expected_final));
        prop_assert!(
            stats.max_neighbor_drift <= VDuration::from_cycles(t_cycles + max_step),
            "drift {} > T({}) + step({})",
            stats.max_neighbor_drift, t_cycles, max_step
        );
    }

    #[test]
    fn identical_seeds_give_identical_runs(
        n in 2u32..7,
        seed in 0u64..1000,
        plans in prop::collection::vec(
            prop::collection::vec(1u64..40, 1..20), 2..7),
    ) {
        let mut plans = plans;
        plans.truncate(n as usize);
        let a = run_program(mesh_2d(n), 100, seed, plans.clone());
        let b = run_program(mesh_2d(n), 100, seed, plans);
        prop_assert_eq!(a.final_vtime, b.final_vtime);
        prop_assert_eq!(a.stall_events, b.stall_events);
        prop_assert_eq!(a.scheduler_picks, b.scheduler_picks);
        prop_assert_eq!(a.activities_started, b.activities_started);
    }

    /// The sanitizer independently re-derives every invariant and finds
    /// nothing on a correct engine, across random topologies, every
    /// synchronization policy and randomized programs — while changing no
    /// observable counter.
    #[test]
    fn sanitizer_is_quiet_across_policies(
        n in 2u32..10,
        use_ring in any::<bool>(),
        which_policy in 0usize..4,
        seed in 0u64..1000,
        plans in prop::collection::vec(
            prop::collection::vec(1u64..40, 0..30), 2..10),
    ) {
        let topo = if use_ring { ring(n) } else { mesh_2d(n) };
        let slack = VDuration::from_cycles(50);
        let policy = [
            SyncPolicy::Spatial { t: slack },
            SyncPolicy::BoundedSlack { window: slack },
            SyncPolicy::Conservative,
            SyncPolicy::Unbounded,
        ][which_policy];
        let mut plans = plans;
        plans.truncate(n as usize);

        let mut config = EngineConfig::default().with_seed(seed);
        config.sync = policy;
        let plain = run_config(topo.clone(), config.clone(), plans.clone());
        let checked = run_config(topo, config.with_sanitize(true), plans);

        prop_assert_eq!(checked.sanitizer_violations, 0,
            "sanitizer violations under {:?}", policy);
        prop_assert!(checked.sanitizer_checks > 0);
        prop_assert_eq!(plain.final_vtime, checked.final_vtime);
        prop_assert_eq!(plain.stall_events, checked.stall_events);
        prop_assert_eq!(plain.scheduler_picks, checked.scheduler_picks);
        prop_assert_eq!(plain.max_neighbor_drift, checked.max_neighbor_drift);
    }

    /// End-of-run global drift bound (paper §II.A): under spatial
    /// synchronization the spread between any two *working* cores is at
    /// most `diameter x T` — up to one annotation of granularity per hop.
    /// `max_global_drift` is measured by the sanitizer's periodic scans.
    #[test]
    fn global_drift_bounded_by_diameter(
        n in 2u32..10,
        use_ring in any::<bool>(),
        t_cycles in prop::sample::select(vec![20u64, 50, 100]),
        seed in 0u64..1000,
        plans in prop::collection::vec(
            prop::collection::vec(1u64..40, 1..30), 2..10),
    ) {
        let topo = if use_ring { ring(n) } else { mesh_2d(n) };
        let diameter = topo.diameter_hops();
        let mut plans = plans;
        plans.truncate(n as usize);
        let max_step = plans.iter().flatten().copied().max().unwrap_or(0);
        let config = EngineConfig::default()
            .with_drift_cycles(t_cycles)
            .with_seed(seed)
            .with_sanitize(true);
        let stats = run_config(topo, config, plans);
        prop_assert_eq!(stats.sanitizer_violations, 0);
        let bound = VDuration::from_cycles((t_cycles + max_step) * u64::from(diameter).max(1));
        prop_assert!(
            stats.max_global_drift <= bound,
            "global drift {} > diameter({}) x (T({}) + step({}))",
            stats.max_global_drift, diameter, t_cycles, max_step
        );
    }
}
