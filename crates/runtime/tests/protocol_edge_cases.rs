//! Edge-case tests of the run-time protocol: lock handover order, cell
//! chasing under contention, group reuse, and guard rails.

use simany_runtime::{run_program, ProgramSpec, RuntimeParams, TaskCtx};
use simany_topology::mesh_2d;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn contended_lock_serializes_many_tasks() {
    // 6 tasks across the mesh all take the same lock; critical sections
    // must be pairwise disjoint in virtual time.
    let spans = Rc::new(RefCell::new(Vec::<(u64, u64)>::new()));
    let spans2 = spans.clone();
    let out = run_program(ProgramSpec::new(mesh_2d(9)), move |tc| {
        let lock = tc.make_lock();
        let g = tc.make_group();
        for _ in 0..6 {
            let spans = spans2.clone();
            tc.spawn_or_run(g, move |tc: &mut TaskCtx<'_>| {
                tc.work(50);
                tc.lock(lock);
                let t0 = tc.now().cycles();
                tc.work(200);
                let t1 = tc.now().cycles();
                tc.unlock(lock);
                spans.borrow_mut().push((t0, t1));
            });
        }
        tc.join(g);
    })
    .unwrap();
    let mut spans = spans.take();
    assert_eq!(spans.len(), 6);
    spans.sort();
    for w in spans.windows(2) {
        assert!(
            w[0].1 <= w[1].0,
            "critical sections overlap: {:?} vs {:?}",
            w[0],
            w[1]
        );
    }
    assert!(out.rt.lock_fast + out.rt.lock_waits >= 6);
    // With 6 contenders someone must have waited.
    assert!(out.rt.lock_waits > 0, "no lock contention observed");
}

#[test]
fn cell_chase_under_contention() {
    // Many tasks race for one cell: in-flight requests may reach a stale
    // location and must be forwarded until they catch the cell.
    let mut spec = ProgramSpec::new(mesh_2d(16));
    spec.runtime = RuntimeParams::distributed_memory();
    let accesses = Arc::new(AtomicU64::new(0));
    let accesses2 = accesses.clone();
    let out = run_program(spec, move |tc| {
        let cell = tc.alloc_cell(512);
        let g = tc.make_group();
        for _ in 0..12 {
            let accesses = accesses2.clone();
            tc.spawn_or_run(g, move |tc: &mut TaskCtx<'_>| {
                tc.work(20);
                tc.cell_access(cell);
                tc.work(20);
                accesses.fetch_add(1, Ordering::SeqCst);
            });
        }
        tc.join(g);
    })
    .unwrap();
    assert_eq!(accesses.load(Ordering::SeqCst), 12);
    assert!(
        out.rt.cell_remote > 0,
        "expected remote accesses: {:?}",
        out.rt
    );
    // Every data request eventually lands: remote accesses == responses,
    // and the run terminated (no lost requests).
}

#[test]
fn group_can_be_joined_multiple_times() {
    let out = run_program(ProgramSpec::new(mesh_2d(4)), |tc| {
        let g = tc.make_group();
        tc.spawn_or_run(g, |tc: &mut TaskCtx<'_>| tc.work(100));
        tc.join(g);
        // Joining a drained group again returns immediately.
        tc.join(g);
        tc.join(g);
        // And the group can be refilled and re-joined.
        tc.spawn_or_run(g, |tc: &mut TaskCtx<'_>| tc.work(100));
        tc.join(g);
    })
    .unwrap();
    assert!(out.rt.joins_immediate >= 2);
}

#[test]
fn multiple_groups_are_independent() {
    let done = Arc::new(AtomicU64::new(0));
    let done2 = done.clone();
    run_program(ProgramSpec::new(mesh_2d(9)), move |tc| {
        let g1 = tc.make_group();
        let g2 = tc.make_group();
        let d1 = done2.clone();
        tc.spawn_or_run(g1, move |tc: &mut TaskCtx<'_>| {
            tc.work(500);
            d1.fetch_add(1, Ordering::SeqCst);
        });
        let d2 = done2.clone();
        tc.spawn_or_run(g2, move |tc: &mut TaskCtx<'_>| {
            tc.work(50);
            d2.fetch_add(100, Ordering::SeqCst);
        });
        // Join only g2: its task must be done, g1's may or may not be.
        tc.join(g2);
        let snapshot = done2.load(Ordering::SeqCst);
        assert!(snapshot >= 100, "g2 task not finished at join: {snapshot}");
        tc.join(g1);
    })
    .unwrap();
    assert_eq!(done.load(Ordering::SeqCst), 101);
}

#[test]
fn migrated_tasks_still_decrement_their_group() {
    // Flood one neighborhood so tasks migrate; the join must still cover
    // every task (migration preserves group bookkeeping).
    let done = Arc::new(AtomicU64::new(0));
    let done2 = done.clone();
    let out = run_program(ProgramSpec::new(mesh_2d(16)), move |tc| {
        let g = tc.make_group();
        for _ in 0..40 {
            let done = done2.clone();
            tc.spawn_or_run(g, move |tc: &mut TaskCtx<'_>| {
                // Fine-grained annotations keep the task inside the drift
                // window, so it stays running while more spawns arrive and
                // queues actually build up behind it.
                for _ in 0..15 {
                    tc.work(20);
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        tc.join(g);
    })
    .unwrap();
    assert_eq!(done.load(Ordering::SeqCst), 40);
    assert!(
        out.rt.task_migrations > 0,
        "expected migrations under flood: {:?}",
        out.rt
    );
}

#[test]
fn distributed_memory_quicksort_style_pipeline() {
    // Cells created by a parent and consumed by grandchildren (transitive
    // movement) keep their identity.
    let mut spec = ProgramSpec::new(mesh_2d(8));
    spec.runtime = RuntimeParams::distributed_memory();
    let hops = Arc::new(AtomicU64::new(0));
    let hops2 = hops.clone();
    run_program(spec, move |tc| {
        let cell = tc.alloc_cell(64);
        let g = tc.make_group();
        let hops3 = hops2.clone();
        tc.spawn_or_run(g, move |tc: &mut TaskCtx<'_>| {
            tc.cell_access(cell);
            hops3.fetch_add(1, Ordering::SeqCst);
            let g2 = tc.make_group();
            let hops4 = hops3.clone();
            tc.spawn_or_run(g2, move |tc: &mut TaskCtx<'_>| {
                tc.cell_access(cell);
                hops4.fetch_add(1, Ordering::SeqCst);
            });
            tc.join(g2);
        });
        tc.join(g);
        // Final access from the root: the cell comes back.
        tc.cell_access(cell);
    })
    .unwrap();
    assert_eq!(hops.load(Ordering::SeqCst), 2);
}
