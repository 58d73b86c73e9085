//! Scheduler pick-loop micro-benchmarks: the per-grant cost of the
//! sequential pick loop vs the per-tile epoch collection loop of the
//! parallel coordinator (PR 5). The workload is pure timing annotations —
//! no messages, no spawn protocol — so the measured time is dominated by
//! grant bookkeeping: ready-queue pops, sync checks, context switches and
//! (for `threads > 1`) epoch collect/flush phases.

use criterion::{criterion_group, criterion_main, Criterion};
use simany::core::{simulate, CoreId, EngineConfig, Envelope, ExecCtx, Ops, RuntimeHooks};
use std::hint::black_box;

/// Keeps every core saturated: each finished task immediately starts a
/// fresh one until the per-core quota runs out (`queue_hint` reaches 0).
struct Refill {
    reps: u64,
}

impl Refill {
    fn launch(&self, ops: &mut Ops<'_>, c: CoreId) {
        let reps = self.reps;
        let step = 3 + u64::from(c.0 % 5);
        ops.start_activity(
            c,
            "pick-loop",
            Box::new(()),
            Box::new(move |ctx: &mut ExecCtx| {
                for _ in 0..reps {
                    ctx.advance_cycles(step);
                }
            }),
        );
    }
}

impl RuntimeHooks for Refill {
    fn on_message(&self, _: &mut Ops<'_>, _: Envelope) {}
    fn on_idle(&self, ops: &mut Ops<'_>, c: CoreId) {
        ops.queue_hint_sub(c, 1);
        self.launch(ops, c);
    }
    fn on_activity_end(&self, _: &mut Ops<'_>, _: CoreId, _: Box<dyn std::any::Any + Send>) {}
}

fn run_pick_loop(n: u32, tasks_per_core: u32, reps: u64, threads: u32) -> u64 {
    let config = EngineConfig::default()
        .with_drift_cycles(20_000)
        .with_seed(7)
        .with_threads(threads);
    let stats = simulate(
        simany::topology::mesh_2d(n),
        config,
        std::sync::Arc::new(Refill { reps }),
        move |ops| {
            for c in 0..n {
                ops.queue_hint_add(CoreId(c), tasks_per_core - 1);
            }
            for c in 0..n {
                Refill { reps }.launch(ops, CoreId(c));
            }
        },
    )
    .expect("pick-loop benchmark run failed");
    stats.scheduler_picks
}

fn bench_pick_loop(c: &mut Criterion) {
    for threads in [1u32, 4] {
        c.bench_function(&format!("pick_loop/64core_threads{threads}"), |b| {
            b.iter(|| black_box(run_pick_loop(64, 4, 32, threads)))
        });
    }
}

criterion_group!(benches, bench_pick_loop);
criterion_main!(benches);
