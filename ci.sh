#!/usr/bin/env bash
# Tier-1 verification plus a bench smoke pass and a perf-regression guard.
#
#   ./ci.sh            build + test + bench smoke + perf guard
#   TH_THREADS=4 ./ci.sh   same, with the execution layer at 4 lanes
#
# TH_BENCH_FAST=1 shrinks the Criterion warm-up/measurement budgets so
# the bench pass is a compile-and-run smoke, not a measurement.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q --release

# Lint gate: the workspace (including tests, benches, and examples)
# must be clippy-clean.
cargo clippy --workspace --all-targets -- -D warnings

# The sweep-path benchmark is a separate package that links the
# workspace crates by path: an API change must not silently break its
# build or its unit tests.
cargo test --release --offline --manifest-path sweepbench/Cargo.toml

# One pass of the suite with the execution layer at 4 lanes: the
# determinism contract says every result is identical to the 1-lane
# default the first `cargo test` above used.
TH_THREADS=4 cargo test -q --release

# Sweep orchestrator gate: a fault-injected selftest sweep must retry,
# degrade the permanently failing shard without aborting its siblings,
# and — rerun into the same directory with the faults lifted — resume
# every finished shard from its checkpoint and recompute only the
# degraded one.
sweep_dir=$(mktemp -d)/selftest
sweep_bin=$PWD/target/release/sweep
TH_SWEEP_FAULT='selftest-2:1,selftest-5:inf' "$sweep_bin" selftest --dir "$sweep_dir" --quiet
if ! grep -q '"id": "selftest-5", "status": "degraded"' "$sweep_dir"/shards/selftest-5.json; then
    echo "ci.sh: FAIL - fault-injected shard did not degrade" >&2
    exit 1
fi
"$sweep_bin" selftest --dir "$sweep_dir" --quiet
if ! grep -q '"id": "selftest-5", "status": "done"' "$sweep_dir"/shards/selftest-5.json; then
    echo "ci.sh: FAIL - resumed sweep did not recompute the degraded shard" >&2
    exit 1
fi
retries=$(grep -c '"event": "shard_retry"' "$sweep_dir"/telemetry.jsonl || true)
if [ "$retries" -lt 1 ]; then
    echo "ci.sh: FAIL - fault injection produced no visible retries" >&2
    exit 1
fi
rm -rf "$(dirname "$sweep_dir")"
echo "sweep gate: fault-injected selftest degraded, resumed, and recovered"

# Bench smoke: the thermal kernel comparison, just to prove it runs end
# to end.
TH_BENCH_FAST=1 cargo bench -p th-bench --bench thermal_sweep

# Perf-regression guard: rerun bench_report at the committed report's own
# budget in a scratch directory (so the repo's BENCH_pipeline.json is
# never dirtied) and compare the fig8 sequential time against the
# committed number. Wall-clock on shared CI hosts is noisy, so only a
# >1.5x slowdown fails; faster is always fine.
committed=BENCH_pipeline.json
budget=$(grep -o '"budget_insts": *[0-9]*' "$committed" | grep -o '[0-9]*')
rows=$(grep -o '"fig10_rows": *[0-9]*' "$committed" | grep -o '[0-9]*')
guard_dir=$(mktemp -d)
trap 'rm -rf "$guard_dir"' EXIT
bench_bin=$PWD/target/release/bench_report
(cd "$guard_dir" && TH_THREADS=1 "$bench_bin" "$budget" "$rows")
old=$(grep -o '"name": "fig8", "seq_s": *[0-9.]*' "$committed" | grep -o '[0-9.]*$')
new=$(grep -o '"name": "fig8", "seq_s": *[0-9.]*' "$guard_dir/BENCH_pipeline.json" | grep -o '[0-9.]*$')
if ! awk -v old="$old" -v new="$new" 'BEGIN {
    ratio = new / old
    printf "perf guard: fig8 seq %.2fs fresh vs %.2fs committed (%.2fx)\n", new, old, ratio
    exit ratio > 1.5 ? 1 : 0
}'; then
    echo "ci.sh: FAIL - fig8 sequential time regressed more than 1.5x" >&2
    exit 1
fi

# Same guard for the closed-loop co-simulation smoke that bench_report
# just ran (30 intervals of perform/price/heat/react).
old=$(grep -o '"cosim": {"intervals": [0-9]*, "total_s": *[0-9.]*' "$committed" | grep -o '[0-9.]*$')
new=$(grep -o '"cosim": {"intervals": [0-9]*, "total_s": *[0-9.]*' "$guard_dir/BENCH_pipeline.json" | grep -o '[0-9.]*$')
if ! awk -v old="$old" -v new="$new" 'BEGIN {
    ratio = new / old
    printf "perf guard: cosim smoke %.2fs fresh vs %.2fs committed (%.2fx)\n", new, old, ratio
    exit ratio > 1.5 ? 1 : 0
}'; then
    echo "ci.sh: FAIL - closed-loop co-simulation time regressed more than 1.5x" >&2
    exit 1
fi

# Herding guard: the fresh report's *measured* (activity-ledger) top-die
# register-file fraction must not drop below what the modeled
# reconstruction claims — if it does, either the ledger lost recording
# sites or herding stopped steering accesses to the top die.
rf_line=$(grep -o '"unit": "RegFile[^}]*' "$guard_dir/BENCH_pipeline.json" | head -1)
measured=$(echo "$rf_line" | grep -o '"measured_top_die": *[0-9.]*' | grep -o '[0-9.]*$')
modeled=$(echo "$rf_line" | grep -o '"modeled_top_die": *[0-9.]*' | grep -o '[0-9.]*$')
if [ -z "$measured" ] || [ -z "$modeled" ]; then
    echo "ci.sh: FAIL - herding block missing from BENCH_pipeline.json" >&2
    exit 1
fi
if ! awk -v m="$measured" -v o="$modeled" 'BEGIN {
    printf "herding guard: RF top-die %.1f%% measured vs %.1f%% modeled\n", 100*m, 100*o
    exit m + 0.005 < o ? 1 : 0
}'; then
    echo "ci.sh: FAIL - measured RF top-die fraction fell below the modeled baseline" >&2
    exit 1
fi

echo "ci.sh: all checks passed"
