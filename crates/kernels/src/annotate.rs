//! Timing-annotation helpers shared by the kernels.
//!
//! The paper's blocks are fine-grained (basic-block level); writing one
//! `compute` call per loop iteration would be both slow for the host and
//! too chatty. These helpers charge loop nests in line- or chunk-sized
//! blocks — coarse enough to be fast, fine enough (tens of cycles) to
//! stay well inside the spatial-synchronization window.

use simany_mem::Addr;
use simany_runtime::TaskCtx;
use simany_time::BlockCost;

/// Elements per annotation chunk for pure-compute loops.
pub const CHUNK: u64 = 32;

/// Charge a loop of `count` iterations costing `per_iter` each, in chunks.
pub fn charge_loop(tc: &mut TaskCtx<'_>, count: u64, per_iter: &BlockCost) {
    let mut remaining = count;
    while remaining > 0 {
        let n = remaining.min(CHUNK);
        tc.compute(&per_iter.times(n));
        remaining -= n;
    }
}

/// Sweep `n_elems` elements of `elem_bytes` starting at `base`: performs
/// one timed memory access per touched cache line (so cache and coherence
/// models see the traffic) and charges `per_elem` compute per element.
pub fn sweep(
    tc: &mut TaskCtx<'_>,
    base: Addr,
    n_elems: u64,
    elem_bytes: u64,
    write: bool,
    per_elem: &BlockCost,
) {
    if n_elems == 0 {
        return;
    }
    let line = u64::from(tc.params().mem.line_bytes);
    let start_line = base / line;
    let end_line = (base + n_elems * elem_bytes - 1) / line;
    let elems_per_line = (line / elem_bytes).max(1);
    let mut elems_left = n_elems;
    for l in start_line..=end_line {
        if write {
            tc.store(l * line);
        } else {
            tc.load(l * line);
        }
        let n = elems_left.min(elems_per_line);
        if n > 0 && !per_elem.is_empty() {
            tc.compute(&per_elem.times(n));
        }
        elems_left = elems_left.saturating_sub(elems_per_line);
    }
}

/// Common per-element cost of a compare-and-maybe-swap (sorting inner
/// loops): two int ops and one unpredictable conditional branch.
pub fn compare_swap_cost() -> BlockCost {
    BlockCost::new().int_alu(2).cond_branches(1)
}

/// Per-edge cost of graph traversal bookkeeping.
pub fn edge_visit_cost() -> BlockCost {
    BlockCost::new().int_alu(3).cond_branches(1).branches(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simany_runtime::{run_program, ProgramSpec};
    use simany_topology::mesh_2d;

    #[test]
    fn charge_loop_total_cost() {
        // 100 iterations of 2 int ops (no branches) = 200 cycles.
        let out = run_program(ProgramSpec::new(mesh_2d(4)), |tc| {
            charge_loop(tc, 100, &BlockCost::new().int_alu(2));
        })
        .unwrap();
        assert_eq!(out.vtime_cycles(), 200);
    }

    #[test]
    fn sweep_touches_each_line_once() {
        // 64 u64 elements = 512 bytes = 16 lines of 32B: 16 misses (10cy)
        // and no compute.
        let out = run_program(ProgramSpec::new(mesh_2d(4)), |tc| {
            sweep(tc, 0x1000, 64, 8, false, &BlockCost::new());
        })
        .unwrap();
        assert_eq!(out.rt.l1_misses, 16);
        assert_eq!(out.vtime_cycles(), 160);
    }

    #[test]
    fn sweep_with_compute() {
        // 8 elements on 2 lines + 1 int op each: 2*10 + 8 = 28 cycles.
        let out = run_program(ProgramSpec::new(mesh_2d(4)), |tc| {
            sweep(tc, 0, 8, 8, true, &BlockCost::new().int_alu(1));
        })
        .unwrap();
        assert_eq!(out.vtime_cycles(), 28);
        assert_eq!(out.rt.sm_stores, 2);
    }
}
