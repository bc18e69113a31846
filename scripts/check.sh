#!/usr/bin/env bash
# CI gate: lint-clean (clippy -D warnings), builds, and tests green.
# Run from the repository root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> quill-lint --workspace (reports: results/lint_report.jsonl, results/lint_report.sarif)"
cargo run -q -p quill-lint -- --workspace \
    --out results/lint_report.jsonl \
    --sarif results/lint_report.sarif

# The allow budget: a suppression is a debt, and the count only goes down.
# Lower the number when a change removes allows; raising it needs a reason
# in review. The linter's own docs, unit tests and fixtures under
# crates/lint/ spell the annotation without suppressing anything, so only
# the other crates count.
allow_budget=3
allows=$(grep -r 'quill-lint: allow' crates | grep -cv '^crates/lint/' || true)
echo "==> quill-lint allow budget ($allows of $allow_budget)"
if [ "$allows" -gt "$allow_budget" ]; then
    echo "error: $allows 'quill-lint: allow' sites under crates/ outside crates/lint/, budget is $allow_budget" >&2
    exit 1
fi

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# Operator-battery soak: plain `cargo test` runs both suites at their pinned
# 48-64 cases in a few seconds; here they get 2 000 cases each, in release.
# `fiba_aggregator` holds the window operator's pane state (all fourteen kinds,
# keyed sliding and misaligned windows, deep stragglers, NaN/±0/±inf/
# i64::MAX/null/string values) to the naive oracle's fold
# (`quill_metrics::oracle::naive_aggregate`) of every window's members;
# `proptest_engine`'s order-statistic property checks every Median, Quantile
# and DistinctCount result bit for bit against the same fold, and that each
# is final: revision 0 and the only result for its (key, window) (the
# suite's other properties keep their pinned count).
echo "==> quill-engine operator-battery soak (PROPTEST_CASES=2000)"
PROPTEST_CASES=2000 cargo test --release -q -p quill-engine --test fiba_aggregator --test proptest_engine

# Core soak: the slack buffer (every event forwarded by its own insert, in
# arrival order and ahead of the watermark that insert emits; repeated
# `(ts, seq)` keys included), the controller and the estimator — the
# slide-aware `window_slack` against a brute-force C_S — at 2 000 cases
# instead of the pinned 48.
echo "==> quill-core property soak (PROPTEST_CASES=2000)"
PROPTEST_CASES=2000 cargo test --release -q -p quill-core --test proptest_core

# Differential simulation soak: QUILL_SIM_CASES seeds through the full
# strategy × executor sweep against the naive oracle. Scale the seed count
# up for a longer soak, e.g. QUILL_SIM_CASES=256 ./scripts/check.sh.
echo "==> quill-sim differential soak (QUILL_SIM_CASES=${QUILL_SIM_CASES:-16})"
QUILL_SIM_CASES="${QUILL_SIM_CASES:-16}" \
    cargo test --release -q -p quill-sim --test differential

# quill-inspect over the two shapes the one record stream is written in,
# freshly generated: f4's span records (K changes and late arrivals) must
# show an `adapt` controller decision and attribute late-arrival lateness in
# the timeline, and f5's post-mortem file its five violations.
echo "==> quill-inspect renders fresh f4 span records and f5 post-mortems"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cargo run --release -q -p quill-bench --bin experiments -- \
    --exp f4,f5 --quick --out "$tmp" > /dev/null
f4_timeline=$(cargo run --release -q -p quill-bench --bin quill-inspect -- timeline "$tmp/f4_trace.jsonl")
if ! sed -n '/^-- Stage attribution --$/,/^$/p' <<<"$f4_timeline" | grep -q '^late_arrival '; then
    echo "error: the f4 timeline attributes no late_arrival" >&2
    exit 1
fi
f4_report=$(cargo run --release -q -p quill-bench --bin quill-inspect -- "$tmp/f4_trace.jsonl")
if ! grep -q '(adapt)$' <<<"$f4_report"; then
    echo "error: the f4 report shows no adapt controller decision" >&2
    exit 1
fi
f5_report=$(cargo run --release -q -p quill-bench --bin quill-inspect -- "$tmp/f5_postmortems.jsonl")
if ! grep -qx 'violations: 5' <<<"$f5_report"; then
    echo "error: the f5 report does not print 'violations: 5'" >&2
    exit 1
fi

# The checked-in results are regenerated, not kept: a fresh `experiments
# --exp all` must write every file under results/ that it owns, byte for
# byte, except the wall-clock fields blanked by `without_wall_clock` (and
# full_run.md's output directory). SOAK_serve.json, SMOKE_serve_trace.jsonl,
# lint_report.* and the sim's failures/ are written by other commands and
# are not compared.
without_wall_clock() {
    case "$(basename "$1")" in
        full_run.md)
            sed -E -e 's/^(events\/workload: .*, output: ).*$/\1_/' \
                -e 's/^\(([a-z0-9]+) took [0-9.]+s\)$/(\1 took _s)/' "$1" |
                awk -F'|' -v OFS='|' '
                    !/^\|/ { header = 0; print; next }
                    header == 0 {
                        header = 1; split("", wall)
                        for (i = 2; i < NF; i++) if ($i ~ /^ *(wall ms|kevents\/s) *$/) wall[i] = 1
                    }
                    { for (i in wall) $i = "_"; print }' ;;
        f4_telemetry_snapshots.jsonl)
            sed -E 's/"wall_micros":[0-9]+/"wall_micros":_/g' "$1" ;;
        f7_throughput.csv)
            awk -F, -v OFS=, '
                NR == 1 { for (i = 1; i <= NF; i++) if ($i == "wall ms" || $i == "kevents/s") wall[i] = 1 }
                NR > 1 { for (i in wall) $i = "_" }
                { print }' "$1" ;;
        *) cat "$1" ;;
    esac
}
echo "==> experiments --exp all reproduces results/ (wall-clock fields aside)"
cargo run --release -q -p quill-bench --bin experiments -- \
    --exp all --out "$tmp/all" > /dev/null
stale=0
for kept in results/*; do
    name=$(basename "$kept")
    case "$name" in SOAK_serve.json | SMOKE_serve_trace.jsonl | lint_report.* | failures) continue ;; esac
    [ -f "$tmp/all/$name" ] || { echo "error: results/$name is not written by experiments --exp all" >&2; stale=1; }
done
for fresh in "$tmp"/all/*; do
    name=$(basename "$fresh")
    if ! diff <(without_wall_clock "results/$name") <(without_wall_clock "$fresh") > "$tmp/diff" 2>&1; then
        echo "error: results/$name differs from a fresh experiments --exp all (regenerate it):" >&2
        head -n 6 "$tmp/diff" >&2
        stale=1
    fi
done
[ "$stale" -eq 0 ] || exit 1

# The benchmark is a package of its own with path dependencies on crates/,
# and a crates/ change may not edit it: compile its binary and its tests
# against this checkout, so that a public-API break fails here and not in
# the pipeline. Same target directory as benchmark/run.sh.
echo "==> benchmark builds against the workspace (cargo test --no-run)"
CARGO_TARGET_DIR=.bench_build cargo test --release --offline \
    --manifest-path benchmark/Cargo.toml --no-run

echo "All checks passed."
