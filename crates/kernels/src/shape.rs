//! The one shape of a kernel's task program.
//!
//! A kernel keeps its read-only inputs, its output and its placed arrays
//! in one struct that every task shares through one `Arc`, cloned once per
//! spawn. An array the tasks touch is a [`Placement`]: an address range on
//! a shared-memory machine, a list of run-time cells on a
//! distributed-memory one. [`run_tasks`] runs the root task around the
//! kernel's own root body.

use simany_runtime::{
    run_program, Addr, CellId, GroupId, ProgramSpec, RunOutput, SimError, TaskCtx,
};
use std::sync::{Arc, OnceLock};

/// Where an array lives, and the timed accesses that reach its elements.
pub(crate) enum Placement {
    /// Shared memory: element `i` is at `base + i * elem_bytes`.
    Address { base: Addr, elem_bytes: u64 },
    /// Distributed memory: element `i` is in `cells[i / per_cell]`.
    Cells {
        cells: Arc<[CellId]>,
        per_cell: usize,
    },
}

impl Placement {
    /// Place `len` elements of `elem_bytes`: at `base` on a shared-memory
    /// machine; on a distributed-memory one, in cells of `per_cell`
    /// elements allocated on this core in index order.
    pub(crate) fn new(
        tc: &mut TaskCtx<'_>,
        base: Addr,
        elem_bytes: u64,
        len: usize,
        per_cell: usize,
    ) -> Self {
        if !tc.params().arch.is_distributed() {
            return Placement::Address { base, elem_bytes };
        }
        let bytes = (per_cell as u64 * elem_bytes) as u32;
        let cells = (0..len.div_ceil(per_cell))
            .map(|_| tc.alloc_cell(bytes))
            .collect();
        Placement::Cells { cells, per_cell }
    }

    /// Timed read of element `i`.
    pub(crate) fn read(&self, tc: &mut TaskCtx<'_>, i: usize) {
        self.access(tc, i, false);
    }

    /// Timed write of element `i`.
    pub(crate) fn write(&self, tc: &mut TaskCtx<'_>, i: usize) {
        self.access(tc, i, true);
    }

    /// Timed read-modify-write of element `i`: a load then a store, or one
    /// cell access (the run-time system makes every cell access exclusive).
    pub(crate) fn update(&self, tc: &mut TaskCtx<'_>, i: usize) {
        match self {
            Placement::Address { .. } => {
                self.read(tc, i);
                self.write(tc, i);
            }
            Placement::Cells { .. } => self.read(tc, i),
        }
    }

    /// Timed reads of the elements `idx` in turn; a run of consecutive
    /// indices in one cell fetches that cell once.
    pub(crate) fn read_each(&self, tc: &mut TaskCtx<'_>, idx: impl IntoIterator<Item = usize>) {
        match self {
            Placement::Address { .. } => idx.into_iter().for_each(|i| self.read(tc, i)),
            Placement::Cells { cells, per_cell } => {
                let mut last = usize::MAX;
                for c in idx.into_iter().map(|i| i / per_cell) {
                    if c != last {
                        tc.cell_access(cells[c]);
                        last = c;
                    }
                }
            }
        }
    }

    fn access(&self, tc: &mut TaskCtx<'_>, i: usize, write: bool) {
        match self {
            // A random (gather) access: every element is its own line touch.
            Placement::Address { base, elem_bytes } => {
                let addr = base + i as u64 * elem_bytes;
                if write {
                    tc.store(addr);
                } else {
                    tc.load(addr);
                }
            }
            Placement::Cells { cells, per_cell } => tc.cell_access(cells[i / per_cell]),
        }
    }
}

/// Run a task program. The root task `build`s the shared state (so its
/// cells start on the root core), makes the task group, runs `root` and
/// joins the group. Returns the run's output and the shared state, whose
/// output the caller checks.
pub(crate) fn run_tasks<K: Send + Sync + 'static>(
    spec: ProgramSpec,
    build: impl FnOnce(&mut TaskCtx<'_>) -> K + Send + 'static,
    root: impl FnOnce(&mut TaskCtx<'_>, &Arc<K>, GroupId) + Send + 'static,
) -> Result<(RunOutput, Arc<K>), SimError> {
    let kept = Arc::new(OnceLock::new());
    let slot = Arc::clone(&kept);
    let out = run_program(spec, move |tc| {
        let k = slot.get_or_init(|| Arc::new(build(tc))).clone();
        let group = tc.make_group();
        root(tc, &k, group);
        tc.join(group);
    })?;
    let k = kept.get().cloned().expect("the root task builds the state");
    Ok((out, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simany_runtime::RuntimeParams;
    use simany_topology::mesh_2d;

    const BASE: Addr = 0x8000_0000;
    const LEN: usize = 40;
    const PER_CELL: usize = 4;
    /// A sparse row's columns: runs in one cell, a repeat, a step back.
    const ROW: [usize; 10] = [0, 1, 2, 3, 9, 9, 5, 4, 33, 32];

    /// Element `j` of task `part`'s access sequence.
    fn elem(part: usize, j: usize) -> usize {
        (j * 7 + part * 5) % LEN
    }

    fn placed(tc: &mut TaskCtx<'_>, at: &Placement, part: usize) {
        for j in 0..LEN {
            at.read(tc, elem(part, j));
            at.write(tc, elem(part, j + 1));
            at.update(tc, elem(part, j) / 2);
        }
        at.read_each(tc, ROW);
    }

    /// The kernels' old SM access helper.
    fn gather(tc: &mut TaskCtx<'_>, addr: Addr, write: bool) {
        if write {
            tc.store(addr);
        } else {
            tc.load(addr);
        }
    }

    /// The same accesses as the kernels wrote them by hand.
    fn by_hand(tc: &mut TaskCtx<'_>, cells: Option<&[CellId]>, part: usize) {
        let touch = |tc: &mut TaskCtx<'_>, v: usize, write: bool| match cells {
            Some(cells) => tc.cell_access(cells[v / PER_CELL]),
            None => gather(tc, BASE + v as u64 * 8, write),
        };
        for j in 0..LEN {
            touch(tc, elem(part, j), false);
            touch(tc, elem(part, j + 1), true);
            let node = elem(part, j) / 2;
            match cells {
                Some(cells) => tc.cell_access(cells[node / PER_CELL]),
                None => {
                    gather(tc, BASE + node as u64 * 8, false);
                    gather(tc, BASE + node as u64 * 8, true);
                }
            }
        }
        match cells {
            Some(cells) => {
                // Fetch each distinct x block the row needs once.
                let mut last_block = usize::MAX;
                for col in ROW {
                    let block = col / PER_CELL;
                    if block != last_block {
                        tc.cell_access(cells[block]);
                        last_block = block;
                    }
                }
            }
            None => {
                for col in ROW {
                    gather(tc, BASE + col as u64 * 8, false);
                }
            }
        }
    }

    /// Four tasks (the root and three spawned) make their accesses.
    fn run(distributed: bool, with_placement: bool) -> RunOutput {
        let mut spec = ProgramSpec::new(mesh_2d(16));
        if distributed {
            spec.runtime = RuntimeParams::distributed_memory();
        }
        if with_placement {
            let build = |tc: &mut TaskCtx<'_>| Placement::new(tc, BASE, 8, LEN, PER_CELL);
            let root = |tc: &mut TaskCtx<'_>, at: &Arc<Placement>, group| {
                for part in 1..4 {
                    let at = Arc::clone(at);
                    tc.spawn_or_run(group, move |tc: &mut TaskCtx<'_>| placed(tc, &at, part));
                }
                placed(tc, at, 0);
            };
            return run_tasks(spec, build, root).unwrap().0;
        }
        run_program(spec, move |tc| {
            let cells: Option<Arc<[CellId]>> = distributed.then(|| {
                (0..LEN.div_ceil(PER_CELL))
                    .map(|_| tc.alloc_cell((PER_CELL * 8) as u32))
                    .collect()
            });
            let group = tc.make_group();
            for part in 1..4 {
                let cells = cells.clone();
                tc.spawn_or_run(group, move |tc: &mut TaskCtx<'_>| {
                    by_hand(tc, cells.as_deref(), part);
                });
            }
            by_hand(tc, cells.as_deref(), 0);
            tc.join(group);
        })
        .unwrap()
    }

    #[test]
    fn placement_makes_the_hand_written_accesses() {
        for distributed in [false, true] {
            let placed = run(distributed, true);
            let by_hand = run(distributed, false);
            assert_eq!(placed.stats.final_vtime, by_hand.stats.final_vtime);
            assert_eq!(placed.rt, by_hand.rt);
            assert!(placed.rt.spawns > 0);
            if distributed {
                assert!(placed.rt.cell_remote > 0);
            } else {
                assert!(placed.rt.sm_stores > 0);
            }
        }
    }
}
