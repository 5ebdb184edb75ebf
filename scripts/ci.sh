#!/usr/bin/env bash
# The repo's tier-1 verification: build, test, lint. Run from the repo
# root. Works fully offline — all dependencies are in-repo.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
# The workspace run includes the root integration tests: trace_jsonl
# (trace CLI end to end), profile_jsonl (profiler JSONL and self-time
# table) and fleet_e2e (fleet CLI worker-count identity, kill+resume,
# replay, trace taxonomy).
cargo test -q --workspace
# Decision-tick budget: a fresh release-binary measurement of HEAD. The
# budget (DECISION_TICK_BUDGET_US = 200 µs) is the paper's "negligible
# overhead per control window" claim made checkable: the control window
# is 500 ms, so a tick under 200 µs costs less than 0.04 % of it.
# Release ticks measure in the single-digit microseconds, leaving two
# orders of magnitude of headroom for slow CI hosts without ever
# tolerating an accidental O(pixels) regression in the decision path.
# 5400 simulated seconds yield over 10 000 ticks, so p99 is a real
# percentile and not the max of a few dozen samples.
cargo run --release -q --bin ccdem -- profile --duration 5400 -q | tee target/profile_ticks.txt
awk '/^decision tick:/ {
    ticks = $3
    for (i = 1; i < NF; i++) if ($i == "p99") p99 = $(i + 1)
}
END {
    if (ticks >= 10000 && p99 != "" && p99 <= 200) exit 0
    printf "ci: decision tick: %s ticks, p99 %s µs (need >= 10000 ticks, p99 <= 200 µs)\n", ticks, p99 > "/dev/stderr"
    exit 1
}' target/profile_ticks.txt
# Huge durations: a --duration whose microseconds overflow, and the
# largest u64, must exit 1 with a message on every verb — never wrap,
# spin or abort allocating the per-second result series.
for verb in "simulate --app Facebook" sweep fleet; do
    for secs in 18446744073710 18446744073709551615; do
        status=0
        # shellcheck disable=SC2086 # the verb is deliberately split
        timeout 30 target/release/ccdem $verb --duration "$secs" -q \
            >/dev/null 2>target/huge_duration.txt || status=$?
        if [ "$status" -ne 1 ] || ! grep -q -- --duration target/huge_duration.txt; then
            echo "ci: ccdem $verb --duration $secs exited $status" >&2
            exit 1
        fi
    done
done
# Huge worker counts: a --jobs above the documented maximum must exit 1
# with a message naming --jobs. Both inputs stay cheap even without the
# bound (no fleet batch to run; the sweep caps its workers at 90 runs).
for args in "fleet --devices 0" "sweep --duration 1"; do
    status=0
    # shellcheck disable=SC2086 # the arguments are deliberately split
    timeout 60 target/release/ccdem $args --jobs 1000000 -q \
        >/dev/null 2>target/huge_jobs.txt || status=$?
    if [ "$status" -ne 1 ] || ! grep -q -- --jobs target/huge_jobs.txt; then
        echo "ci: ccdem $args --jobs 1000000 exited $status" >&2
        exit 1
    fi
done
# Fleet smoke: the acceptance scenario end-to-end on the release
# binary — run a small campaign, kill a second run at its first
# checkpoint, resume it under a different worker count, and require the
# final statistics documents to be byte-identical.
cargo run --release -q --bin ccdem -- fleet --devices 96 --duration 1 --seed 17 \
    --batch 8 --jobs 4 --out target/fleet_full.json -q
cargo run --release -q --bin ccdem -- fleet --devices 96 --duration 1 --seed 17 \
    --batch 8 --jobs 2 --checkpoint target/fleet_ckpt.json --checkpoint-every 4 \
    --stop-after 1 -q
cargo run --release -q --bin ccdem -- fleet --resume target/fleet_ckpt.json \
    --jobs 3 --out target/fleet_resumed.json -q
cmp target/fleet_full.json target/fleet_resumed.json
# Benchmark smoke: perfbench (the command in BENCHMARK.json) on every
# workload, untraced and traced. Each run exits non-zero when a
# workload's output differs from the committed perfbench/refs or when
# the traced replica is not byte-identical to the scenario engine. The
# last run checks the held-out seed's committed references as well.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload all --seconds 1 --trace 0
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload all --seconds 1 --trace 1
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload all --seed 20261017 --seconds 1 --trace 0
# Workspace static analysis (hard gate): determinism, panic-policy,
# alloc-hot-path, arith-cast, atomics-ordering, obs-taxonomy, and
# section-table invariants — see DESIGN.md §10. `--stats` prints
# machine-parseable lines we gate on below.
cargo run --release -q --bin ccdem -- lint --json --stats | tee target/lint_stats.txt
# The analyzer must stay interactive: whole-workspace call graph plus
# all families in under 5 s wall.
lint_wall_ms=$(awk '/^stats wall_ms /{print $3}' target/lint_stats.txt)
test -n "$lint_wall_ms"
test "$lint_wall_ms" -lt 5000 || {
    echo "ci: lint took ${lint_wall_ms} ms (budget 5000 ms)" >&2
    exit 1
}
# The lint.allow ratchet only turns one way: the committed budget total
# must never grow relative to the baseline at HEAD.
lint_budget=$(awk '/^stats baseline_total /{print $3}' target/lint_stats.txt)
head_budget=$(git show HEAD:lint.allow 2>/dev/null \
    | awk '!/^#/ && NF == 3 {sum += $3} END {print sum + 0}')
if [ -n "$lint_budget" ] && [ "$lint_budget" -gt "$head_budget" ] \
    && [ "$head_budget" -gt 0 ]; then
    echo "ci: lint.allow budget grew ${head_budget} -> ${lint_budget}" >&2
    exit 1
fi
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
