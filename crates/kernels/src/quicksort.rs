//! Parallel Quicksort (paper §V).
//!
//! Two variants, as in the paper:
//!
//! * **Shared memory** — "works on arrays and spawns a new task to handle
//!   one of the sub-arrays after each pivot step".
//! * **Distributed memory** — "an adaptation to lists, in order to avoid
//!   the transfer of whole sub-arrays to remote processing nodes. Pivot
//!   steps are distributed and they gradually construct a binary search
//!   tree. Browsing the list in order is then tantamount to traversing the
//!   constructed binary tree." Each sub-list travels with its task; a cell
//!   models the data movement cost.
//!
//! The theoretical ceiling the paper quotes — speedup ≤ `log2(n)/2` for
//! balanced arrays — emerges naturally: the first pivot pass over all `n`
//! elements is sequential.

use crate::annotate::{charge_loop, compare_swap_cost, sweep};
use crate::shape::run_tasks;
use crate::workloads::random_array;
use crate::{DwarfKernel, KernelResult, Scale};
use simany_runtime::{CellId, GroupId, ProgramSpec, SimError, TaskCtx};
use simany_time::BlockCost;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Default array size (paper: 100 000; `Scale::paper()` reaches it).
const BASE_N: usize = 20_000;
/// Below this length a task sorts its segment locally.
const CUTOFF: usize = 64;
/// Base of the simulated address range holding the array.
const ARRAY_BASE: u64 = 0x1000_0000;

/// The Quicksort kernel.
pub struct Quicksort;

impl DwarfKernel for Quicksort {
    fn name(&self) -> &'static str {
        "Quicksort"
    }

    fn run_sim(
        &self,
        spec: ProgramSpec,
        scale: Scale,
        seed: u64,
    ) -> Result<KernelResult, SimError> {
        let n = scale.apply(BASE_N, 256);
        let input = random_array(n, seed);
        let mut expected = input.clone();
        expected.sort_unstable();
        let (out, verified) = if spec.runtime.arch.is_distributed() {
            let (out, runs) = run_tasks(
                spec,
                |_| RefCell::new(Vec::new()),
                move |tc, runs, group| {
                    // The whole list starts as one local cell.
                    let cell = tc.alloc_cell((n * 8) as u32);
                    qsort_dm(tc, input, cell, runs, group);
                },
            )?;
            // Sorting the runs by key is the in-order traversal of the
            // constructed tree.
            let mut runs = runs.take();
            runs.sort_by_key(|&(k, _)| k);
            (out, runs.into_iter().flat_map(|(_, r)| r).eq(expected))
        } else {
            let (out, data) = run_tasks(
                spec,
                |_| RefCell::new(input),
                move |tc, data, group| qsort_sm(tc, data, 0, n, group),
            )?;
            let sorted = *data.borrow() == expected;
            (out, sorted)
        };
        Ok(KernelResult {
            out,
            verified,
            work_items: n as u64,
        })
    }

    fn run_native(&self, scale: Scale, seed: u64) -> (Duration, u64) {
        let n = scale.apply(BASE_N, 256);
        let mut data = random_array(n, seed);
        let t0 = Instant::now();
        data.sort_unstable();
        (t0.elapsed(), data[n / 2])
    }
}

/// Host partition (Lomuto) returning (pivot index, swaps performed).
fn partition(data: &mut [u64]) -> (usize, u64) {
    let pivot = data[data.len() / 2];
    data.swap(data.len() / 2, data.len() - 1);
    let mut store = 0;
    let mut swaps = 1;
    for i in 0..data.len() - 1 {
        if data[i] < pivot {
            data.swap(i, store);
            store += 1;
            swaps += 1;
        }
    }
    let last = data.len() - 1;
    data.swap(store, last);
    (store, swaps + 1)
}

// ---------------------------------------------------------------------------
// Shared-memory variant
// ---------------------------------------------------------------------------

fn qsort_sm(
    tc: &mut TaskCtx<'_>,
    data: &Rc<RefCell<Vec<u64>>>,
    lo: usize,
    hi: usize,
    group: GroupId,
) {
    let len = hi - lo;
    if len <= 1 {
        return;
    }
    if len <= CUTOFF {
        // Local sort: one read sweep + ~len·log2(len) compare/swaps.
        tc.scope(|tc| {
            sweep(
                tc,
                ARRAY_BASE + (lo as u64) * 8,
                len as u64,
                8,
                false,
                &BlockCost::new(),
            );
            let cmps = (len as u64) * (usize::BITS - len.leading_zeros()) as u64;
            charge_loop(tc, cmps, &compare_swap_cost());
        });
        data.borrow_mut()[lo..hi].sort_unstable();
        return;
    }
    // Pivot pass: host partition, then annotate the sweep + swaps.
    let (pivot_rel, swaps) = partition(&mut data.borrow_mut()[lo..hi]);
    tc.scope(|tc| {
        sweep(
            tc,
            ARRAY_BASE + (lo as u64) * 8,
            len as u64,
            8,
            false,
            &compare_swap_cost(),
        );
        // Swapped elements are written back.
        charge_loop(tc, swaps, &BlockCost::new().int_alu(4));
        sweep(
            tc,
            ARRAY_BASE + (lo as u64) * 8,
            swaps.min(len as u64),
            8,
            true,
            &BlockCost::new(),
        );
    });
    let mid = lo + pivot_rel;
    // Spawn one side (the paper spawns "a new task to handle one of the
    // sub-arrays"), recurse into the other.
    let data2 = Rc::clone(data);
    tc.spawn_or_run(group, move |tc: &mut TaskCtx<'_>| {
        qsort_sm(tc, &data2, mid + 1, hi, group);
    });
    qsort_sm(tc, data, lo, mid, group);
}

// ---------------------------------------------------------------------------
// Distributed-memory variant (lists + binary search tree)
// ---------------------------------------------------------------------------

/// Sorted runs, each keyed by its minimum element.
type Runs = RefCell<Vec<(u64, Vec<u64>)>>;

/// The pivot steps partition the value space into disjoint ranges (a BST
/// over values), so sorting the runs by key reproduces the in-order
/// traversal of the constructed tree.
fn qsort_dm(
    tc: &mut TaskCtx<'_>,
    mut list: Vec<u64>,
    cell: CellId,
    runs: &Rc<Runs>,
    group: GroupId,
) {
    // Touch our list data: if the task migrated, the cell moves to us.
    tc.cell_access(cell);
    let len = list.len();
    if len <= CUTOFF {
        tc.scope(|tc| {
            let cmps = (len.max(2) as u64) * (usize::BITS - len.max(2).leading_zeros()) as u64;
            charge_loop(tc, cmps, &compare_swap_cost());
        });
        list.sort_unstable();
        let key = list.first().copied().unwrap_or(0);
        runs.borrow_mut().push((key, list));
        return;
    }
    // Distributed pivot step over the list: one pass, building two lists.
    tc.scope(|tc| {
        charge_loop(
            tc,
            len as u64,
            &compare_swap_cost().instr(simany_time::InstrClass::IntAlu, 2),
        );
    });
    let pivot = list[len / 2];
    let mut left = Vec::with_capacity(len / 2);
    let mut right = Vec::with_capacity(len / 2);
    let mut pivots = Vec::new();
    for v in list {
        match v.cmp(&pivot) {
            std::cmp::Ordering::Less => left.push(v),
            std::cmp::Ordering::Equal => pivots.push(v),
            std::cmp::Ordering::Greater => right.push(v),
        }
    }
    // The pivot run is emitted here (a BST node's key).
    runs.borrow_mut().push((pivot, pivots));

    let left_cell = tc.alloc_cell((left.len().max(1) * 8) as u32);
    let right_cell = tc.alloc_cell((right.len().max(1) * 8) as u32);
    for (side, side_cell) in [(right, right_cell), (left, left_cell)] {
        if !side.is_empty() {
            let runs = Rc::clone(runs);
            tc.spawn_or_run(group, move |tc: &mut TaskCtx<'_>| {
                qsort_dm(tc, side, side_cell, &runs, group);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simany_runtime::RuntimeParams;
    use simany_topology::mesh_2d;

    fn small() -> Scale {
        Scale(0.02) // 400 elements
    }

    #[test]
    fn partition_is_correct() {
        let mut v = vec![5u64, 3, 8, 1, 9, 2, 7];
        let (p, _) = partition(&mut v);
        let pivot = v[p];
        assert!(v[..p].iter().all(|&x| x < pivot));
        assert!(v[p + 1..].iter().all(|&x| x >= pivot));
    }

    #[test]
    fn shared_memory_sorts_and_verifies() {
        let r = Quicksort
            .run_sim(ProgramSpec::new(mesh_2d(8)), small(), 42)
            .unwrap();
        assert!(r.verified, "parallel sort mismatch");
        assert!(r.cycles() > 0);
    }

    #[test]
    fn distributed_memory_sorts_and_verifies() {
        let mut spec = ProgramSpec::new(mesh_2d(8));
        spec.runtime = RuntimeParams::distributed_memory();
        let r = Quicksort.run_sim(spec, small(), 42).unwrap();
        assert!(r.verified, "distributed sort mismatch");
        assert!(r.out.rt.cell_remote + r.out.rt.cell_local > 0);
    }

    #[test]
    fn single_core_baseline_is_slower() {
        let base = Quicksort
            .run_sim(ProgramSpec::new(mesh_2d(1)), small(), 7)
            .unwrap();
        let par = Quicksort
            .run_sim(ProgramSpec::new(mesh_2d(16)), small(), 7)
            .unwrap();
        assert!(base.verified && par.verified);
        assert!(
            par.cycles() < base.cycles(),
            "no speedup: {} vs {}",
            par.cycles(),
            base.cycles()
        );
    }

    #[test]
    fn native_run_produces_time() {
        let (d, checksum) = Quicksort.run_native(small(), 3);
        assert!(d.as_nanos() > 0);
        assert!(checksum > 0);
    }
}
