//! The accuracy/speed toggle: sweep the maximum local drift `T` and watch
//! simulation wall time fall while virtual-time results move slightly —
//! the mechanism behind the paper's Fig. 10/11. A second table makes the
//! same trade with timing annotations: one task's work annotated in
//! coarser blocks (§II.A).
//!
//! ```sh
//! cargo run --release --example drift_tradeoff
//! ```

use simany::kernels::{kernel_by_name, Scale};
use simany::presets;
use simany::runtime::{run_program, TaskCtx};
use simany::stats::{pct_signed, Table};

fn main() {
    let kernel = kernel_by_name("Connected Components").unwrap();
    let scale = Scale(0.2);
    let n = 64;
    let seed = 9;

    // Baseline: the paper's reference T = 100 cycles.
    let base = kernel
        .run_sim(presets::uniform_mesh_sm(n), scale, seed)
        .expect("baseline run failed");

    let mut table = Table::new(&["T (cycles)", "virtual cycles", "vs T=100", "stalls", "wall"]);
    for t in [50u64, 100, 500, 1000] {
        let spec = presets::with_drift(presets::uniform_mesh_sm(n), t);
        let r = kernel.run_sim(spec, scale, seed).expect("run failed");
        assert!(r.verified, "output must stay correct at any T");
        let delta = r.cycles() as f64 / base.cycles() as f64 - 1.0;
        table.row(vec![
            t.to_string(),
            r.cycles().to_string(),
            pct_signed(delta),
            r.out.stats.stall_events.to_string(),
            format!("{:?}", r.out.stats.wall),
        ]);
    }
    println!(
        "{} on {n} cores: the T accuracy/speed toggle (paper §II.A)\n",
        kernel.name()
    );
    println!("{}", table.to_text());
    println!("Raising T relaxes synchronization: fewer stalls, faster wall");
    println!("clock, slightly different virtual results; program outputs stay");
    println!("correct at every T (only timings are approximate).");

    // Annotation granularity: twelve tasks of 20,000 cycles each,
    // annotated in chunks of 10 to 5,000 cycles.
    let (n, total_work) = (16, 20_000u64);
    let mut table = Table::new(&["chunk (cycles)", "virtual cycles", "stalls", "wall"]);
    for chunk in [10u64, 50, 200, 1000, 5000] {
        let out = run_program(presets::uniform_mesh_sm(n), move |tc| {
            let g = tc.make_group();
            for _ in 0..12 {
                tc.spawn_or_run(g, move |tc: &mut TaskCtx<'_>| {
                    (0..total_work / chunk).for_each(|_| tc.work(chunk))
                });
            }
            tc.join(g);
        })
        .expect("granularity run failed");
        table.row(vec![
            chunk.to_string(),
            out.vtime_cycles().to_string(),
            out.stats.stall_events.to_string(),
            format!("{:?}", out.stats.wall),
        ]);
    }
    println!("\n12 x {total_work}-cycle tasks on {n} cores: coarser annotations simulate");
    println!("faster, and the virtual result moves only slightly (paper §II.A)\n");
    println!("{}", table.to_text());
}
