#!/usr/bin/env bash
# Tier-1 verification plus lint and doc gates, the benchmark's digest
# smoke and two perf-regression guards.
#
#   ./ci.sh                build + test + gates + digest smoke + perf guards
#   TH_THREADS=4 ./ci.sh   same, with the execution layer at 4 lanes
#
# Every JSON file and JSON line is read by the typed `bench_check`
# binary (crates/bench/src/bin/bench_check.rs), never by text matching.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q --release

# Lint gate: the workspace (including tests and examples) must be
# clippy-clean.
cargo clippy --workspace --all-targets -- -D warnings

# Doc gate: the workspace documents warning-free, so a deleted item can
# never leave a dangling intra-doc link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# The sweep-path benchmark is a separate package that links the
# workspace crates by path: an API change must not silently break its
# build or its unit tests.
cargo test --release --offline --manifest-path sweepbench/Cargo.toml

bench_check=$PWD/target/release/bench_check

# Digest smoke: one short sweepbench run per BENCHMARK.json workload,
# plus one of fig8-sweep: the measured workloads use 5 of the 22 workload
# images, and fig8-sweep's 110 recorded digests cover all of them.
# Each shard's metrics are hashed to the exact f64 bits and compared with
# the digests recorded in sweepbench/expected/, so a change that moves a
# single bit of a simulated result (a solver kernel, a workload image)
# fails here. (The list is read into a variable first: a failing
# substitution in a `for` list would not stop the script.)
workloads=$("$bench_check" workloads BENCHMARK.json)
for workload in $workloads fig8-sweep; do
    cargo run --release --offline -q --manifest-path sweepbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 2>/dev/null \
        | "$bench_check" verdict "$workload"
done

# One pass of the suite with the execution layer at 4 lanes: the
# determinism contract says every result is identical to the 1-lane
# default the first `cargo test` above used.
TH_THREADS=4 cargo test -q --release

# Perf-regression guards: rerun bench_report three times at the
# committed report's own budget and grid in scratch directories (so the
# repo's BENCH_pipeline.json is never dirtied), then compare the fastest
# fresh fig8 sequential sweep and closed-loop co-simulation smoke with
# the committed times, each divided by its own report's host-calibration
# time (a fixed integer loop bench_report times between its legs).
# Wall-clock on shared CI hosts is noisy (one binary's fig8 time swings
# by a third within minutes, and a slow spell can last all three runs),
# so the guard reads host-relative times, the minimum of the runs, and
# only a >1.5x slowdown fails; faster is always fine.
committed=$PWD/BENCH_pipeline.json
rerun_args=$("$bench_check" rerun-args "$committed")
guard_dir=$(mktemp -d)
trap 'rm -rf "$guard_dir"' EXIT
bench_bin=$PWD/target/release/bench_report
fresh=()
for run in 1 2 3; do
    mkdir "$guard_dir/$run"
    # shellcheck disable=SC2086 # rerun_args is "<budget> <rows>"
    (cd "$guard_dir/$run" && TH_THREADS=1 "$bench_bin" $rerun_args)
    fresh+=("$guard_dir/$run/BENCH_pipeline.json")
done
"$bench_check" guard "$committed" "${fresh[@]}"

echo "ci.sh: all checks passed"
