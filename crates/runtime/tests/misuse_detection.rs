//! Failure injection: API misuse must surface as clean, diagnosable
//! errors — never hangs, never silent corruption.

use simany_runtime::{run_program, CellId, GroupId, LockId, ProgramSpec, SimError, TaskCtx};
use simany_topology::mesh_2d;
use std::cell::RefCell;
use std::rc::Rc;

fn expect_panic_containing(what: &str, body: impl FnOnce(&mut TaskCtx<'_>) + 'static) {
    let err = run_program(ProgramSpec::new(mesh_2d(4)), body).unwrap_err();
    let msg = format!("{err}");
    assert!(
        matches!(err, SimError::TaskPanic { .. }),
        "expected TaskPanic, got: {msg}"
    );
    assert!(msg.contains(what), "message '{msg}' lacks '{what}'");
}

#[test]
fn join_on_unknown_group_panics_cleanly() {
    expect_panic_containing("unknown group", |tc| {
        tc.join(GroupId(9999));
    });
}

#[test]
fn spawn_into_unknown_group_panics_cleanly() {
    expect_panic_containing("unknown group", |tc| {
        if let Some(target) = tc.probe() {
            tc.spawn(target, Some(GroupId(777)), Box::new(|_| {}));
        } else {
            panic!("unknown group (probe failed before reaching the check)");
        }
    });
}

#[test]
fn unknown_lock_panics_cleanly() {
    expect_panic_containing("unknown lock", |tc| {
        tc.lock(LockId(4242));
    });
}

#[test]
fn unknown_cell_panics_cleanly() {
    expect_panic_containing("unknown cell", |tc| {
        tc.cell_access(CellId(31337));
    });
}

#[test]
fn unreleased_lock_still_terminates() {
    // Holding a lock at task end is sloppy but must not wedge the engine:
    // the run completes (the waiver ends with the activity; nobody else
    // wants the lock).
    let out = run_program(ProgramSpec::new(mesh_2d(4)), |tc| {
        let lock = tc.make_lock();
        tc.lock(lock);
        tc.work(100);
        // ... oops, never unlocked.
    });
    // The engine finishes; the leak only matters if someone else blocks on
    // the lock (which would then be a reported deadlock).
    assert!(out.is_ok());
}

#[test]
fn deadlock_from_leaked_lock_is_reported() {
    let err = run_program(ProgramSpec::new(mesh_2d(4)), |tc| {
        let lock = tc.make_lock();
        let g = tc.make_group();
        tc.spawn_or_run(g, move |tc: &mut TaskCtx<'_>| {
            tc.lock(lock);
            // Leaked: the next acquirer waits forever.
        });
        tc.join(g);
        tc.lock(lock);
    })
    .unwrap_err();
    let msg = format!("{err}");
    assert!(
        matches!(err, SimError::Deadlock(_)),
        "expected Deadlock, got {msg}"
    );
    assert!(msg.contains("lock"), "report should name the wait: {msg}");
}

#[test]
fn critical_exit_without_enter_panics_cleanly() {
    expect_panic_containing("critical_exit", |tc| {
        tc.raw().critical_exit();
    });
}

#[test]
fn panic_while_borrowing_shared_state_releases_it() {
    // A body that panics with its shared state mutably borrowed ends the
    // run with `TaskPanic`; unwinding its stack drops the borrow and the
    // body's handle, so the caller can borrow the state again.
    let state = Rc::new(RefCell::new(vec![1u64]));
    let held = Rc::clone(&state);
    expect_panic_containing("with the state borrowed", move |tc| {
        tc.work(10);
        let mut v = held.borrow_mut();
        v.push(2);
        tc.work(10);
        panic!("body gave up with the state borrowed");
    });
    assert_eq!(Rc::strong_count(&state), 1);
    state.borrow_mut().push(3);
    assert_eq!(*state.borrow(), [1, 2, 3]);
}
