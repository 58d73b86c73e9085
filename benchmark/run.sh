#!/usr/bin/env bash
# The command of BENCHMARK.json: build the ledger and the `simulate` worker it
# spawns from source (a no-op once built), then hand the arguments to `ledger`.
# Run from the root of a checkout, as `bash benchmark/run.sh --workload ...`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/ledger" "$@"
