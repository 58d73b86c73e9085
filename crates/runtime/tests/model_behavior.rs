//! Behavioral tests of the task programming model: conditional spawning,
//! groups/joins, distributed cells, locks and memory timing.

use simany_runtime::{run_program, MemoryArch, ProgramSpec, RuntimeParams, SpawnPolicy, TaskCtx};
use simany_topology::{mesh_2d, Topology};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn spec(n: u32) -> ProgramSpec {
    ProgramSpec::new(mesh_2d(n))
}

#[test]
fn spawn_and_join_runs_children_in_parallel() {
    // Root spawns 3 children, each burning 1000 cycles. On a 4-core mesh
    // they run concurrently: completion well under the sequential 4000.
    let ran = Arc::new(AtomicU64::new(0));
    let ran2 = ran.clone();
    let out = run_program(spec(4), move |tc| {
        let g = tc.make_group();
        for _ in 0..3 {
            let ran = ran2.clone();
            tc.spawn_or_run(g, move |tc: &mut TaskCtx<'_>| {
                tc.work(1000);
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        tc.join(g);
        tc.work(10);
    })
    .unwrap();
    assert_eq!(ran.load(Ordering::SeqCst), 3);
    let cycles = out.vtime_cycles();
    assert!(cycles < 2500, "no parallelism: {cycles} cycles");
    assert!(cycles >= 1010, "impossible speedup: {cycles} cycles");
    assert!(out.rt.spawns >= 1, "at least one real spawn expected");
}

#[test]
fn single_core_machine_falls_back_to_sequential() {
    // One core has no neighbors: every conditional spawn runs inline.
    let out = run_program(ProgramSpec::new(Topology::new(1)), |tc| {
        let g = tc.make_group();
        for _ in 0..5 {
            tc.spawn_or_run(g, |tc: &mut TaskCtx<'_>| tc.work(100));
        }
        tc.join(g);
    })
    .unwrap();
    assert_eq!(out.rt.spawns, 0);
    assert_eq!(out.rt.sequential_fallbacks, 5);
    assert_eq!(out.rt.joins_immediate, 1);
    assert_eq!(out.vtime_cycles(), 500);
}

#[test]
fn join_waits_for_nested_spawns() {
    // Children spawn grandchildren into the same group; join must cover all.
    let count = Arc::new(AtomicU64::new(0));
    let count2 = count.clone();
    let joined_after = Arc::new(AtomicU64::new(0));
    let joined_after2 = joined_after.clone();
    run_program(spec(16), move |tc| {
        let g = tc.make_group();
        for _ in 0..3 {
            let count = count2.clone();
            tc.spawn_or_run(g, move |tc: &mut TaskCtx<'_>| {
                tc.work(50);
                for _ in 0..2 {
                    let count = count.clone();
                    tc.spawn_or_run(g, move |tc: &mut TaskCtx<'_>| {
                        tc.work(50);
                        count.fetch_add(1, Ordering::SeqCst);
                    });
                }
                count.fetch_add(1, Ordering::SeqCst);
            });
        }
        tc.join(g);
        joined_after2.store(count2.load(Ordering::SeqCst), Ordering::SeqCst);
    })
    .unwrap();
    assert_eq!(count.load(Ordering::SeqCst), 9);
    assert_eq!(
        joined_after.load(Ordering::SeqCst),
        9,
        "join returned before all group tasks finished"
    );
}

#[test]
fn queue_capacity_limits_acks() {
    // With queue capacity 1 and many rapid probes from one core, some
    // probes must be denied or skipped.
    let mut s = spec(4);
    s.runtime.queue_capacity = 1;
    let out = run_program(s, |tc| {
        let g = tc.make_group();
        for _ in 0..20 {
            // Fine-grained annotations: the targets stay inside the drift
            // window, so their queues stay occupied while we keep probing.
            tc.spawn_or_run(g, |tc: &mut TaskCtx<'_>| {
                for _ in 0..100 {
                    tc.work(50);
                }
            });
        }
        tc.join(g);
    })
    .unwrap();
    assert!(
        out.rt.probe_nacks + out.rt.probe_skips > 0,
        "expected some probes to fail: {:?}",
        out.rt
    );
    assert!(out.rt.sequential_fallbacks > 0);
}

#[test]
fn occupancy_proxies_are_updated() {
    let out = run_program(spec(4), |tc| {
        let g = tc.make_group();
        for _ in 0..8 {
            tc.spawn_or_run(g, |tc: &mut TaskCtx<'_>| tc.work(200));
        }
        tc.join(g);
    })
    .unwrap();
    assert!(out.rt.occupancy_msgs > 0, "occupancy broadcasts expected");
}

#[test]
fn cells_move_to_the_accessor() {
    let out = run_program(spec(4), |tc| {
        let cell = tc.alloc_cell(256);
        assert_eq!(tc.cell_location(cell), tc.core());
        // Local access: no transfer.
        tc.cell_access(cell);
        let g = tc.make_group();
        // A child on another core accesses the cell: it must migrate.
        let home = tc.core();
        tc.spawn_or_run(g, move |tc: &mut TaskCtx<'_>| {
            tc.cell_access(cell);
            if tc.core() != home {
                assert_eq!(tc.cell_location(cell), tc.core());
            }
        });
        tc.join(g);
    })
    .unwrap();
    assert!(out.rt.cell_local >= 1);
}

#[test]
fn remote_cell_access_is_slower_than_local() {
    // Compare virtual completion time of a program doing local accesses
    // with one doing ping-pong remote accesses.
    let run = |remote: bool| {
        let mut s = spec(4);
        s.runtime = RuntimeParams::distributed_memory();
        run_program(s, move |tc| {
            let cell = tc.alloc_cell(1024);
            if !remote {
                for _ in 0..10 {
                    tc.cell_access(cell);
                }
            } else {
                let g = tc.make_group();
                for _ in 0..10 {
                    tc.spawn_or_run(g, move |tc: &mut TaskCtx<'_>| {
                        tc.cell_access(cell);
                    });
                    tc.join(g);
                }
            }
        })
        .unwrap()
    };
    let local = run(false);
    let remote = run(true);
    assert!(
        remote.vtime_cycles() > local.vtime_cycles(),
        "remote {} <= local {}",
        remote.vtime_cycles(),
        local.vtime_cycles()
    );
    assert!(remote.rt.cell_remote > 0);
}

#[test]
fn locks_serialize_critical_sections() {
    // Two tasks increment a shared host counter under a simulated lock;
    // the lock must serialize them in virtual time: total completion is at
    // least the sum of both critical sections.
    let order = Rc::new(RefCell::new(Vec::new()));
    let order2 = order.clone();
    let out = run_program(spec(4), move |tc| {
        let lock = tc.make_lock();
        let g = tc.make_group();
        for i in 0..2 {
            let order = order2.clone();
            tc.spawn_or_run(g, move |tc: &mut TaskCtx<'_>| {
                tc.lock(lock);
                order.borrow_mut().push((i, "in", tc.now().cycles()));
                tc.work(500);
                order.borrow_mut().push((i, "out", tc.now().cycles()));
                tc.unlock(lock);
            });
        }
        tc.join(g);
    })
    .unwrap();
    let events = order.take();
    assert_eq!(events.len(), 4);
    // Critical sections must not interleave in virtual time: sort by time
    // and check in/out alternation.
    let mut sorted = events.clone();
    sorted.sort_by_key(|&(_, _, t)| t);
    assert_eq!(sorted[0].1, "in");
    assert_eq!(sorted[1].1, "out");
    assert_eq!(sorted[2].1, "in");
    assert_eq!(sorted[3].1, "out");
    assert!(out.rt.lock_fast + out.rt.lock_waits >= 2);
}

#[test]
fn shared_memory_access_timing() {
    // 1 load miss (10cy) + repeated hits (1cy each).
    let out = run_program(spec(4), |tc| {
        tc.load(0x1000); // miss: 10
        tc.load(0x1000); // hit: 1
        tc.load(0x1008); // same line: hit, 1
        tc.store(0x1000); // first write: miss path, 10
        tc.store(0x1000); // write hit: 1
    })
    .unwrap();
    assert_eq!(out.vtime_cycles(), 10 + 1 + 1 + 10 + 1);
    assert_eq!(out.rt.sm_loads, 3);
    assert_eq!(out.rt.sm_stores, 2);
}

#[test]
fn scope_exit_forgets_cached_lines() {
    let out = run_program(spec(4), |tc| {
        tc.scope(|tc| {
            tc.load(0x2000); // miss 10
            tc.load(0x2000); // hit 1
        });
        tc.load(0x2000); // miss again after scope exit: 10
    })
    .unwrap();
    assert_eq!(out.vtime_cycles(), 21);
}

#[test]
fn coherence_timings_add_latency() {
    // Same sharing pattern with and without coherence-effect timings: the
    // coherent run must be slower (invalidations + remote fetches).
    let run = |coherent: bool| {
        let mut s = spec(4);
        s.runtime.arch = MemoryArch::SharedUniform {
            coherence_timings: coherent,
        };
        run_program(s, |tc| {
            let g = tc.make_group();
            for _ in 0..4 {
                tc.spawn_or_run(g, |tc: &mut TaskCtx<'_>| {
                    for i in 0..20 {
                        tc.store(0x4000 + (i % 4) * 8);
                        tc.load(0x4000 + (i % 4) * 8);
                    }
                });
                tc.join(g);
            }
        })
        .unwrap()
    };
    let plain = run(false);
    let coherent = run(true);
    assert!(coherent.rt.coherence_legs > 0);
    assert!(
        coherent.vtime_cycles() >= plain.vtime_cycles(),
        "coherence {} < plain {}",
        coherent.vtime_cycles(),
        plain.vtime_cycles()
    );
}

#[test]
fn spawn_policies_all_complete() {
    for policy in [SpawnPolicy::LeastLoaded, SpawnPolicy::FavorFast] {
        let mut s = spec(16);
        s.runtime.spawn_policy = policy;
        let done = Arc::new(AtomicU64::new(0));
        let done2 = done.clone();
        run_program(s, move |tc| {
            let g = tc.make_group();
            for _ in 0..10 {
                let done = done2.clone();
                tc.spawn_or_run(g, move |tc: &mut TaskCtx<'_>| {
                    tc.work(100);
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
            tc.join(g);
        })
        .unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 10, "{policy:?}");
    }
}

#[test]
fn deterministic_program_runs() {
    let run = |seed: u64| {
        let mut s = spec(16);
        s.engine = s.engine.with_seed(seed);
        run_program(s, |tc| {
            let g = tc.make_group();
            for _ in 0..10 {
                tc.spawn_or_run(g, |tc: &mut TaskCtx<'_>| {
                    tc.compute(
                        &simany_runtime::BlockCost::new()
                            .int_alu(100)
                            .cond_branches(20),
                    );
                });
            }
            tc.join(g);
        })
        .unwrap()
    };
    let a = run(5);
    let b = run(5);
    assert_eq!(a.vtime_cycles(), b.vtime_cycles());
    assert_eq!(a.rt.spawns, b.rt.spawns);
    assert_eq!(a.stats.scheduler_picks, b.stats.scheduler_picks);
}

#[test]
fn deep_recursion_divide_and_conquer() {
    // A fib-like task tree exercising recursion + conditional spawning at
    // every level, with a host-side accumulator for correctness.
    fn tree(tc: &mut TaskCtx<'_>, depth: u32, acc: Arc<AtomicU64>) {
        tc.work(10);
        if depth == 0 {
            acc.fetch_add(1, Ordering::SeqCst);
            return;
        }
        let g = tc.make_group();
        let acc2 = acc.clone();
        tc.spawn_or_run(g, move |tc: &mut TaskCtx<'_>| {
            tree(tc, depth - 1, acc2);
        });
        tree(tc, depth - 1, acc);
        tc.join(g);
    }
    let acc = Arc::new(AtomicU64::new(0));
    let acc2 = acc.clone();
    let out = run_program(spec(16), move |tc| tree(tc, 8, acc2)).unwrap();
    assert_eq!(acc.load(Ordering::SeqCst), 256);
    assert!(out.rt.spawns > 0);
    assert!(out.stats.peak_live_activities > 1);
}

#[test]
fn broadcast_charges_flood_time() {
    // 16-core mesh, 128-byte payload: the farthest corner is 6 hops away;
    // each hop is 1 cy latency + 1 cy serialization, so completion is at
    // least 12 cycles (more on contended tree edges).
    let out = run_program(spec(16), |tc| {
        tc.broadcast(128);
    })
    .unwrap();
    assert!(
        out.vtime_cycles() >= 12,
        "broadcast too cheap: {}",
        out.vtime_cycles()
    );
    assert!(out.vtime_cycles() < 100, "broadcast absurdly expensive");
    // A single-core machine broadcasts for free.
    let solo = run_program(ProgramSpec::new(simany_topology::mesh_2d(1)), |tc| {
        tc.broadcast(4096);
    })
    .unwrap();
    assert_eq!(solo.vtime_cycles(), 0);
}

#[test]
fn broadcast_scales_with_payload() {
    let run = |bytes: u32| {
        run_program(spec(16), move |tc| tc.broadcast(bytes))
            .unwrap()
            .vtime_cycles()
    };
    assert!(run(4096) > run(64), "bigger payloads must take longer");
}
