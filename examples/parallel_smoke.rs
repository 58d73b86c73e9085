use simany::core::{SyncPolicy, VDuration};
use simany::kernels::{kernel_by_name, Scale};
use simany::presets;

fn main() {
    for threads in [1u32, 2, 4] {
        for (name, policy) in [
            (
                "spatial",
                SyncPolicy::Spatial {
                    t: VDuration::from_cycles(100),
                },
            ),
            (
                "bounded",
                SyncPolicy::BoundedSlack {
                    window: VDuration::from_cycles(100),
                },
            ),
            ("conservative", SyncPolicy::Conservative),
            ("unbounded", SyncPolicy::Unbounded),
        ] {
            let mut spec = presets::uniform_mesh_sm(16);
            spec.engine.sync = policy;
            spec.engine.threads = threads;
            spec.engine.sanitize = true;
            let kernel = kernel_by_name("Quicksort").unwrap();
            let res = kernel
                .run_sim(spec, Scale(0.1), 42)
                .expect("simulation failed");
            let s = &res.out.stats;
            println!(
                "threads={threads} {name}: vtime={} picks={} stalls={} epochs={} grants={} viol={} verified={}",
                s.final_vtime.cycles(), s.scheduler_picks, s.stall_events,
                s.parallel_epochs, s.epoch_grants, s.sanitizer_violations, res.verified
            );
        }
    }
}
