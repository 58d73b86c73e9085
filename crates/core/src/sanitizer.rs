//! Online invariant sanitizer (enabled by [`crate::EngineConfig::sanitize`]).
//!
//! The paper's correctness story rests on invariants the engine normally
//! only *trusts*: neighbor drift bounded by `T`, global drift bounded by
//! `diameter × T` (§II.A), birth times bounding their spawner, per-sender
//! FIFO delivery and causal arrival stamps (§II.B), and the cache/deferral
//! machinery of the fast path being invisible. With `sanitize` on, every
//! slow-path synchronization decision, publish and delivery is re-validated
//! against an independent recomputation; a periodic machine-wide scan (every
//! `SCAN_EVERY_PICKS` scheduler picks, plus once at the end of the run)
//! checks the global invariants. Violations bump
//! [`crate::SimStats::sanitizer_violations`] and are reported as
//! [`TraceEvent::SanitizerViolation`] events (capped, so a broken invariant
//! cannot flood the tracer).
//!
//! The sanitizer is read-only with respect to the simulation: it never
//! consumes engine randomness, never touches the floor caches or waiter
//! sets, and never changes scheduling — a run with `sanitize` on is
//! behaviorally identical to one with it off. With `sanitize` off the
//! checks cost one untaken branch at each slow-path site and nothing at all
//! on the drift-headroom fast path.
//!
//! ## Accounting for legal transients
//!
//! The drift bounds are enforced by the engine *at decision points*, against
//! the floor as of the decision; between decisions a single timing
//! annotation or message jump can overshoot, and the lock waiver (§II.B)
//! suspends the bound entirely. The sanitizer therefore tracks the largest
//! observed per-publish overshoot past the policy slack
//! (`max_overshoot`) and the cumulative amount by which idle-to-working
//! transitions dropped a clock below the then-current global floor
//! (`regression_slack`), and admits them in the machine-wide bound:
//!
//! ```text
//! spread ≤ diameter × T + max_overshoot + regression_slack
//! ```
//!
//! Both terms are measured, not assumed, so a genuinely runaway core (one
//! advancing without ever passing a synchronization decision) is still
//! caught: its overshoot is only recorded at a publish, and a publish-free
//! advance is exactly the corruption the fast-path flush check detects.

use crate::config::SyncPolicy;
use crate::engine::{trace, Shared, Sim};
use crate::trace::TraceEvent;
use simany_net::Envelope;
use simany_time::{VDuration, VirtualTime};
use simany_topology::CoreId;
use std::collections::HashMap;

/// The machine-wide scan runs every this many scheduler picks.
pub(crate) const SCAN_EVERY_PICKS: u64 = 64;

/// At most this many violations are reported as trace events; the
/// violation *counter* keeps counting past the cap.
const MAX_REPORTED: u32 = 64;

/// Mutable sanitizer state, boxed into `Sim` when `sanitize` is on.
pub(crate) struct SanitizerState {
    /// Hop diameter of the topology (for the `diameter × T` bound).
    diameter_hops: u64,
    /// Largest observed overshoot of any core's clock past its policy
    /// slack, measured at publish instants (single-annotation steps,
    /// message jumps and lock-waiver excursions all land here).
    max_overshoot: VDuration,
    /// Cumulative distance by which idle-to-working clock transitions
    /// landed below the then-current global floor (each such drop can
    /// widen the instantaneous spread by its amount).
    regression_slack: VDuration,
    /// Per `(src, dst)` pair: highest `sent` stamp seen and the arrival
    /// assigned to it, for the per-sender FIFO check. Back-stamped replies
    /// (paper §II.A reply rule) do not participate.
    fifo: HashMap<(u32, u32), (VirtualTime, VirtualTime)>,
    /// Violations reported as trace events so far (see [`MAX_REPORTED`]).
    reported: u32,
    /// Skip the machine-wide drift bound: core-failure plans retire cores
    /// in ways the closed-form bound does not model.
    skip_global: bool,
}

/// Install the sanitizer into a freshly built `Sim`.
pub(crate) fn install(sim: &mut Sim, shared: &Shared) {
    let skip_global = shared
        .config
        .fault
        .as_ref()
        .is_some_and(|p| p.has_core_faults());
    sim.sanitizer = Some(Box::new(SanitizerState {
        diameter_hops: u64::from(shared.topo.diameter_hops()),
        max_overshoot: VDuration::ZERO,
        regression_slack: VDuration::ZERO,
        fifo: HashMap::new(),
        reported: 0,
        skip_global,
    }));
}

/// Record one violation: bump the counter and (under the report cap) emit
/// a structured trace event.
fn report(sim: &mut Sim, shared: &Shared, ev: TraceEvent) {
    sim.stats.sanitizer_violations += 1;
    let s = sim.sanitizer.as_mut().expect("sanitizer installed");
    if s.reported < MAX_REPORTED {
        s.reported += 1;
        trace(shared, || ev);
    }
}

/// The minimum over `c`'s neighbors' exposed values, recomputed from
/// scratch (`MAX` without neighbors).
fn fresh_neighbor_floor(sim: &Sim, shared: &Shared, c: CoreId) -> VirtualTime {
    let mut m = VirtualTime::MAX;
    for &(n, _) in shared.topo.neighbors(c) {
        m = m.min(crate::sync::exposed(sim, shared, n.index()));
    }
    m
}

/// The spatial floor of `c` recomputed from scratch — neighbor exposed
/// minimum and birth ledger, bypassing `floor_nb`/`headroom_limit` caches.
fn fresh_local_floor(sim: &Sim, shared: &Shared, c: CoreId) -> VirtualTime {
    let mut m = fresh_neighbor_floor(sim, shared, c);
    if let Some(b) = sim.cores.min_birth(c.index()) {
        m = m.min(b);
    }
    m
}

/// Called from `sync::sync_ok` (spatial slow path) with the floor the
/// decision is about to use: re-derive it from scratch and flag cache
/// corruption.
pub(crate) fn verify_spatial_floor(sim: &mut Sim, shared: &Shared, c: CoreId, cached: VirtualTime) {
    sim.stats.sanitizer_checks += 1;
    let fresh = fresh_local_floor(sim, shared, c);
    if fresh != cached {
        let t = sim.cores.vtime(c.index());
        let detail = format!("cached local floor {cached}, fresh recomputation {fresh}");
        report(
            sim,
            shared,
            TraceEvent::SanitizerViolation {
                t,
                core: c,
                peer: None,
                invariant: "floor-cache",
                detail,
            },
        );
    }
}

/// Called from `sync::flush_deferred` before a deferred publish lands: the
/// fast path may only have advanced the clock within the cached headroom.
pub(crate) fn verify_flush(sim: &mut Sim, shared: &Shared, c: CoreId) {
    sim.stats.sanitizer_checks += 1;
    if let Some(limit) = sim.cores.headroom(c.index()) {
        let t = sim.cores.vtime(c.index());
        if t > limit {
            let detail = format!("deferred clock {t} exceeds cached headroom limit {limit}");
            report(
                sim,
                shared,
                TraceEvent::SanitizerViolation {
                    t,
                    core: c,
                    peer: None,
                    invariant: "fast-path-headroom",
                    detail,
                },
            );
        }
    }
}

/// Called from `Ops::record_birth`: spawn stamps come from the parent's
/// clock (or earlier, via the reply rule), so a birth *ahead* of the
/// spawner cannot bound its drift and indicates a runtime bug.
pub(crate) fn verify_birth(sim: &mut Sim, shared: &Shared, c: CoreId, birth: VirtualTime) {
    sim.stats.sanitizer_checks += 1;
    let now = sim.cores.vtime(c.index());
    if birth > now {
        let detail = format!("birth stamped {birth} ahead of spawner clock {now}");
        report(
            sim,
            shared,
            TraceEvent::SanitizerViolation {
                t: now,
                core: c,
                peer: None,
                invariant: "birth-ahead",
                detail,
            },
        );
    }
}

/// Called at the top of every `sync::publish`: measure how far the core's
/// clock currently overshoots its policy slack over a fresh floor. Every
/// slow-path clock change is followed by a publish before the token
/// returns to the scheduler, so the running maximum covers all scan
/// instants.
pub(crate) fn note_clock(sim: &mut Sim, shared: &Shared, c: CoreId) {
    if sim.cores.is_idle(c.index()) {
        return;
    }
    let Some(slack) = shared.config.sync.slack() else {
        return;
    };
    let floor = match shared.config.sync {
        SyncPolicy::Spatial { .. } => fresh_local_floor(sim, shared, c),
        _ => crate::sync::global_floor(sim),
    };
    if floor == VirtualTime::MAX {
        return;
    }
    let drift = sim.cores.vtime(c.index()).saturating_since(floor);
    let over = VDuration::from_half_cycles(drift.ticks().saturating_sub(slack.ticks()));
    let s = sim.sanitizer.as_mut().expect("sanitizer installed");
    if over > s.max_overshoot {
        s.max_overshoot = over;
    }
}

/// Called from `sync::publish` when a top-level published value drops on a
/// working core (an idle core waking to its older frozen clock): record how
/// far below the then-current global floor the clock lands, since each such
/// regression can widen the instantaneous spread by its amount. The waking
/// core already counts as working, and what it exposed until now — `old`,
/// resolved by the caller because its stored word may be a capped marker —
/// is its term of that floor.
pub(crate) fn note_floor_regression(sim: &mut Sim, old: VirtualTime, new_clock: VirtualTime) {
    let floor = crate::sync::global_floor_naive(sim).min(old);
    let reg = floor.saturating_since(new_clock);
    if !reg.is_zero() {
        let s = sim.sanitizer.as_mut().expect("sanitizer installed");
        s.regression_slack += reg;
    }
}

/// Called from `engine::deliver` for every envelope entering an inbox:
/// causality (arrival no earlier than the send stamp plus the pure route
/// latency) and per-sender FIFO (forward-stamped messages on one pair must
/// arrive in stamp order; back-stamped replies are exempt per §II.A).
pub(crate) fn on_deliver(sim: &mut Sim, shared: &Shared, env: &Envelope) {
    sim.stats.sanitizer_checks += 1;
    let min_arrival = if env.src == env.dst {
        env.sent
    } else {
        env.sent + sim.net.path_latency(env.src, env.dst)
    };
    if env.arrival < min_arrival {
        let detail = format!(
            "sent {} arrived {} but the route needs at least {}",
            env.sent, env.arrival, min_arrival
        );
        report(
            sim,
            shared,
            TraceEvent::SanitizerViolation {
                t: env.arrival,
                core: env.dst,
                peer: Some(env.src),
                invariant: "causality",
                detail,
            },
        );
    }
    let key = (env.src.0, env.dst.0);
    let s = sim.sanitizer.as_mut().expect("sanitizer installed");
    let mut fifo_violation = None;
    match s.fifo.get_mut(&key) {
        Some(slot) => {
            let (last_sent, last_arrival) = *slot;
            if env.sent >= last_sent {
                if env.arrival < last_arrival {
                    fifo_violation = Some((last_sent, last_arrival));
                }
                *slot = (env.sent, env.arrival);
            }
        }
        None => {
            s.fifo.insert(key, (env.sent, env.arrival));
        }
    }
    if let Some((last_sent, last_arrival)) = fifo_violation {
        let detail = format!(
            "message sent {} arrived {} behind earlier message sent {} arrived {}",
            env.sent, env.arrival, last_sent, last_arrival
        );
        report(
            sim,
            shared,
            TraceEvent::SanitizerViolation {
                t: env.arrival,
                core: env.dst,
                peer: Some(env.src),
                invariant: "per-sender-fifo",
                detail,
            },
        );
    }
}

/// Machine-wide scan, run at scheduler-time quiescence (every
/// [`SCAN_EVERY_PICKS`] picks and once after the last pick). At these
/// instants every deferred publish has been flushed and no publish window
/// is open, so published values, caches and clocks must all be mutually
/// consistent.
pub(crate) fn scan(sim: &mut Sim, shared: &Shared) {
    let spatial_t = match shared.config.sync {
        SyncPolicy::Spatial { t } => Some(t),
        _ => None,
    };
    // The stall count decides whether a step may defer its publishes.
    sim.stats.sanitizer_checks += 1;
    let stalled = sim.acts.values().filter(|a| a.is_stalled()).count();
    let miscount = (stalled != sim.stalled as usize)
        .then(|| format!("{stalled} activities stalled, count says {}", sim.stalled));
    let open = sim
        .window
        .is_open()
        .then(|| "publish window still open at scheduler time".to_string());
    for (invariant, detail) in [("stall-count", miscount), ("publish-window", open)] {
        if let Some(detail) = detail {
            let ev = TraceEvent::SanitizerViolation {
                t: sim.max_vtime,
                core: CoreId(0),
                peer: None,
                invariant,
                detail,
            };
            report(sim, shared, ev);
        }
    }
    if let Some(c) = sim.cores.publish_pending {
        let ev = TraceEvent::SanitizerViolation {
            t: sim.cores.vtime(c.index()),
            core: c,
            peer: None,
            invariant: "deferred-publish",
            detail: "deferred publish still pending at scheduler time".to_string(),
        };
        report(sim, shared, ev);
    }
    for i in 0..sim.cores.len() {
        let c = CoreId(i as u32);
        sim.stats.sanitizer_checks += 1;
        let (vtime, published, idle) = (
            sim.cores.vtime(i),
            crate::sync::exposed(sim, shared, i),
            sim.cores.is_idle(i),
        );
        // Only the spatial checks below read it.
        let fresh_nb = match spatial_t {
            Some(_) => fresh_neighbor_floor(sim, shared, c),
            None => VirtualTime::MAX,
        };
        match spatial_t {
            Some(t) if idle => {
                // Shadow relaxation is at its fixed point at every scan:
                // an idle core exposes its frozen clock maxed with
                // `min(neighbors) + t`, that term capped at the front plus
                // `t`. The cap is implicit in the stored words, so no
                // shadow can predate a rise of the front; an inequality
                // here means the uncap index lost a core.
                let expect = if fresh_nb == VirtualTime::MAX {
                    vtime
                } else {
                    vtime.max((fresh_nb + t).min(crate::sync::shadow_cap(sim, t)))
                };
                if published != expect {
                    let detail = format!("idle shadow {published}, relaxation gives {expect}");
                    report(
                        sim,
                        shared,
                        TraceEvent::SanitizerViolation {
                            t: vtime,
                            core: c,
                            peer: None,
                            invariant: "shadow-fixpoint",
                            detail,
                        },
                    );
                }
            }
            _ => {
                // Working spatial cores and every core under a global
                // policy expose their clock verbatim.
                if published != vtime {
                    let detail = format!("published {published} diverged from clock {vtime}");
                    report(
                        sim,
                        shared,
                        TraceEvent::SanitizerViolation {
                            t: vtime,
                            core: c,
                            peer: None,
                            invariant: "published-clock",
                            detail,
                        },
                    );
                }
            }
        }
        // Incremental-floor and headroom caches against fresh recomputation.
        if let Some(t) = spatial_t {
            let (nb_valid, nb_cached, headroom) = (
                sim.cores.floor_nb_valid[i],
                crate::sync::exposed_word(sim, shared, sim.cores.floor_nb(i)),
                sim.cores.headroom(i),
            );
            if nb_valid && nb_cached != fresh_nb {
                let detail = format!("cached neighbor floor {nb_cached}, fresh {fresh_nb}");
                report(
                    sim,
                    shared,
                    TraceEvent::SanitizerViolation {
                        t: vtime,
                        core: c,
                        peer: None,
                        invariant: "floor-cache",
                        detail,
                    },
                );
            }
            if let Some(limit) = headroom {
                // A cached headroom is a conservative bound: the floor it
                // was derived from can only have risen since (drops clear
                // the cache), so `limit ≤ fresh floor + t` must hold.
                let fresh = fresh_local_floor(sim, shared, c);
                let ok = if fresh == VirtualTime::MAX {
                    true
                } else {
                    limit.saturating_since(fresh) <= t
                };
                if !ok {
                    let detail = format!("cached headroom {limit} exceeds fresh floor {fresh} + T");
                    report(
                        sim,
                        shared,
                        TraceEvent::SanitizerViolation {
                            t: vtime,
                            core: c,
                            peer: None,
                            invariant: "headroom-cache",
                            detail,
                        },
                    );
                }
            }
        }
    }

    // Machine-wide drift bound (policies with a closed-form bound only).
    let Some(slack) = shared.config.sync.slack() else {
        return;
    };
    sim.stats.sanitizer_checks += 1;
    let s = sim.sanitizer.as_ref().expect("sanitizer installed");
    let (skip_global, diameter, max_overshoot, regression) = (
        s.skip_global,
        s.diameter_hops,
        s.max_overshoot,
        s.regression_slack,
    );
    let floor = crate::sync::global_floor_naive(sim);
    let cur_max = (0..sim.cores.len())
        .filter(|&i| !sim.cores.is_idle(i))
        .map(|i| sim.cores.vtime(i))
        .max();
    let (Some(cur_max), false) = (cur_max, floor == VirtualTime::MAX) else {
        return;
    };
    let spread = cur_max.saturating_since(floor);
    if spread > sim.stats.max_global_drift {
        sim.stats.max_global_drift = spread;
    }
    if skip_global {
        return;
    }
    let bound = match shared.config.sync {
        SyncPolicy::Spatial { t } => t.scaled(diameter),
        _ => slack,
    };
    let allowed = bound + max_overshoot + regression;
    if spread > allowed {
        let detail = format!(
            "working-core spread {} over global floor {floor} exceeds bound {} \
             (diameter {diameter}, overshoot {}, regression {})",
            spread.cycles(),
            allowed.cycles(),
            max_overshoot.cycles(),
            regression.cycles(),
        );
        report(
            sim,
            shared,
            TraceEvent::SanitizerViolation {
                t: cur_max,
                core: CoreId(0),
                peer: None,
                invariant: "global-drift",
                detail,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::hooks::NullHooks;
    use crate::{
        simulate, CoreId, EngineConfig, ExecCtx, MemoryTracer, Ops, SyncPolicy, TraceEvent,
        VDuration,
    };
    use std::sync::Arc;

    /// A 16-core ring, `T = 100`: a laggard parked at clock 0 on core 8
    /// holds a shadow gradient (100, 200, 300 on the cores 1, 2, 3 hops
    /// away) while a runner on core 0 takes the front to 201 and then 402.
    /// At 201 the two cores 4 hops from the laggard are capped under key
    /// 300 — the first registrations beyond the front — and at 402 the
    /// front overtakes them: each must turn concrete (400). The runner then
    /// scans. Returns the violated invariants.
    fn ring_scan(drop_uncap_registration: bool) -> Vec<&'static str> {
        let tracer = MemoryTracer::new();
        let mut config = EngineConfig::default().with_sanitize(true);
        config.tracer = Some(tracer.clone());
        config.sync = SyncPolicy::Spatial {
            t: VDuration::from_cycles(100),
        };
        config.drop_uncap_registration = drop_uncap_registration;
        simulate(
            simany_topology::ring(16),
            config,
            Arc::new(NullHooks),
            |ops| {
                ops.start_activity(
                    CoreId(0),
                    "runner",
                    Box::new(()),
                    Box::new(|ctx: &mut ExecCtx| {
                        ctx.advance_cycles(201);
                        ctx.advance_cycles(201);
                        ctx.with_ops(|ops| super::scan(ops.sim, ops.shared));
                    }),
                );
                ops.start_activity(
                    CoreId(8),
                    "laggard",
                    Box::new(()),
                    Box::new(|_: &mut ExecCtx| {}),
                );
            },
        )
        .expect("simulation failed");
        violations(&tracer)
    }

    /// The invariants the sanitizer reported to `tracer`.
    fn violations(tracer: &MemoryTracer) -> Vec<&'static str> {
        tracer
            .events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::SanitizerViolation { invariant, .. } => Some(invariant),
                _ => None,
            })
            .collect()
    }

    /// One spatial activity on a 4-core ring scans the machine between
    /// `corrupt` and `repair` of the engine's own state. Returns the
    /// violated invariants.
    fn scan_corrupted(corrupt: fn(&mut Ops<'_>), repair: fn(&mut Ops<'_>)) -> Vec<&'static str> {
        let tracer = MemoryTracer::new();
        let mut config = EngineConfig::default().with_sanitize(true);
        config.tracer = Some(tracer.clone());
        simulate(
            simany_topology::ring(4),
            config,
            Arc::new(NullHooks),
            move |ops| {
                ops.start_activity(
                    CoreId(0),
                    "scanner",
                    Box::new(()),
                    Box::new(move |ctx: &mut ExecCtx| {
                        ctx.advance_cycles(10);
                        ctx.with_ops(|ops| {
                            corrupt(ops);
                            super::scan(ops.sim, ops.shared);
                            repair(ops);
                        });
                    }),
                );
            },
        )
        .expect("simulation failed");
        violations(&tracer)
    }

    /// A stall count that disagrees with the activities, or a publish
    /// window left open at scheduler time, is a violation: either would let
    /// a step defer publishes a stalled core needs.
    #[test]
    fn a_miscounted_stall_or_an_open_window_is_a_violation() {
        assert_eq!(scan_corrupted(|_| {}, |_| {}), Vec::<&str>::new());
        assert_eq!(
            scan_corrupted(|ops| ops.sim.stalled += 1, |ops| ops.sim.stalled -= 1),
            ["stall-count"]
        );
        assert_eq!(
            scan_corrupted(
                |ops| crate::sync::open_window(ops.sim, ops.shared),
                |ops| crate::sync::close_window(ops.sim, ops.shared)
            ),
            ["publish-window"]
        );
    }

    /// The test that fails if the uncap index loses a core: a capped shadow
    /// the front overtook without re-evaluating it still resolves to the
    /// cap, and the scan's equality says so.
    #[test]
    fn a_lost_uncap_registration_breaks_the_shadow_fixpoint() {
        assert_eq!(ring_scan(false), Vec::<&str>::new());
        assert_eq!(ring_scan(true), ["shadow-fixpoint"]);
    }
}
