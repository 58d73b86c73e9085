//! How to write your own simulated kernel: a parallel map-reduce over an
//! array (sum of squares), with timing annotations, conditional spawning
//! and verification — the template to start from for new workloads.
//!
//! ```sh
//! cargo run --release --example write_a_kernel
//! ```

use simany::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// Everything the tasks of one run share, behind one `Rc` cloned once
/// per spawn: the input, and the partial sums the leaves produce (host
/// memory — the simulator times the *accesses*, the data itself lives in
/// ordinary Rust structures). Every task body runs on the thread that
/// called `run_program`, so a `RefCell` is all the output needs.
struct SumSquares {
    data: Vec<u64>,
    partials: RefCell<Vec<u64>>,
}

/// Sum of squares of `data[lo..hi]`, split recursively.
fn sum_squares(
    tc: &mut TaskCtx<'_>,
    run: &Rc<SumSquares>,
    lo: usize,
    hi: usize,
    group: simany::runtime::GroupId,
) {
    const LEAF: usize = 256;
    if hi - lo > LEAF {
        let mid = lo + (hi - lo) / 2;
        let right = Rc::clone(run);
        // Conditional spawn: ship the right half if a neighbor has room,
        // otherwise compute it right here.
        tc.spawn_or_run(group, move |tc: &mut TaskCtx<'_>| {
            sum_squares(tc, &right, mid, hi, group);
        });
        sum_squares(tc, run, lo, mid, group);
        return;
    }
    // Leaf: annotate the loop (1 multiply + 1 add per element) and touch
    // the memory the loop would stream.
    tc.scope(|tc| {
        let per_elem = BlockCost::new().int_mul(1).int_alu(1).cond_branches(1);
        let mut acc = 0u64;
        for (i, &v) in run.data[lo..hi].iter().enumerate() {
            // One timed load per cache line (4 u64 per 32-byte line).
            if i % 4 == 0 {
                tc.load(0x9000_0000 + ((lo + i) as u64) * 8);
            }
            acc = acc.wrapping_add(v * v);
        }
        tc.compute(&per_elem.times((hi - lo) as u64));
        run.partials.borrow_mut().push(acc);
    });
}

fn main() {
    let n = 1 << 14;
    let data: Vec<u64> = (0..n as u64).map(|i| i % 1000).collect();
    let expected: u64 = data.iter().map(|&v| v.wrapping_mul(v)).sum();

    for cores in [1u32, 4, 16, 64] {
        let run = Rc::new(SumSquares {
            data: data.clone(),
            partials: RefCell::new(Vec::new()),
        });
        let root = Rc::clone(&run);
        let out = run_program(simany::presets::uniform_mesh_sm(cores), move |tc| {
            let group = tc.make_group();
            sum_squares(tc, &root, 0, n, group);
            tc.join(group);
        })
        .expect("simulation failed");
        let total: u64 = run
            .partials
            .borrow()
            .iter()
            .copied()
            .fold(0, u64::wrapping_add);
        assert_eq!(total, expected, "wrong sum on {cores} cores");
        println!(
            "{cores:>4} cores: {:>9} cycles, {:>3} spawns, verified ✓",
            out.vtime_cycles(),
            out.rt.spawns
        );
    }
}
