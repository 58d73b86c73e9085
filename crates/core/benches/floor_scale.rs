//! Global-floor microbenchmark: the O(cores) naive sweep against the
//! incrementally-maintained reduction pyramid ([`GlobalFloor`]), across
//! core counts from 2^12 to 2^20.
//!
//! Both structures process the *same* deterministic update stream (an LCG
//! picks which core's floor key changes and to what). Before anything is
//! timed, one untimed pass replays the stream through both and asserts the
//! floors agree after every single update — the timed loops then measure
//! pure cost, not correctness. The naive side pays a full `min` sweep per
//! update (what `sync::global_floor_naive` used to cost per floor query);
//! the incremental side pays one `set` + one O(1) `floor` read.

use criterion::{criterion_group, criterion_main, Criterion};
use simany_core::floor::GlobalFloor;
use simany_time::VirtualTime;
use std::hint::black_box;

/// Updates replayed per timed iteration. Small enough that the 2^20-core
/// naive sweep finishes in seconds, large enough to amortize loop setup.
const UPDATES: usize = 32;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

/// The deterministic update stream for `n` cores: (core index, new key).
/// Roughly 1/16th of updates set the key to `MAX` (core went idle) so the
/// pyramid's repair path — not just the strict-decrease fast path — gets
/// exercised.
fn updates(n: usize, rounds: usize) -> Vec<(usize, VirtualTime)> {
    let mut state: u64 = 0x5E_ED0F_100D ^ n as u64;
    (0..rounds * UPDATES)
        .map(|_| {
            let i = (lcg(&mut state) as usize) % n;
            let r = lcg(&mut state);
            let key = if r.is_multiple_of(16) {
                VirtualTime::MAX
            } else {
                VirtualTime(r >> 20)
            };
            (i, key)
        })
        .collect()
}

fn naive_min(keys: &[VirtualTime]) -> VirtualTime {
    keys.iter().copied().min().unwrap_or(VirtualTime::MAX)
}

fn bench_floor_scale(c: &mut Criterion) {
    let mut g = c.benchmark_group("global_floor");
    g.sample_size(10);
    for exp in [12u32, 14, 16, 18, 20] {
        let n = 1usize << exp;
        let stream = updates(n, 4);

        // Untimed equivalence pass: after *every* update the incremental
        // floor must equal the naive sweep of the same key array.
        let mut keys = vec![VirtualTime::MAX; n];
        let mut inc = GlobalFloor::new(n);
        for &(i, key) in &stream {
            keys[i] = key;
            inc.set(i, key);
            assert_eq!(
                inc.floor(),
                naive_min(&keys),
                "incremental floor diverged from naive sweep at n=2^{exp}"
            );
        }

        g.bench_function(&format!("naive_sweep/2pow{exp}"), |b| {
            let mut keys = vec![VirtualTime::MAX; n];
            let mut cursor = 0usize;
            b.iter(|| {
                let mut floor = VirtualTime::MAX;
                for _ in 0..UPDATES {
                    let (i, key) = stream[cursor % stream.len()];
                    cursor += 1;
                    keys[i] = key;
                    floor = naive_min(&keys);
                }
                black_box(floor)
            });
        });

        g.bench_function(&format!("incremental/2pow{exp}"), |b| {
            let mut inc = GlobalFloor::new(n);
            let mut cursor = 0usize;
            b.iter(|| {
                let mut floor = VirtualTime::MAX;
                for _ in 0..UPDATES {
                    let (i, key) = stream[cursor % stream.len()];
                    cursor += 1;
                    inc.set(i, key);
                    floor = inc.floor();
                }
                black_box(floor)
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_floor_scale);
criterion_main!(benches);
