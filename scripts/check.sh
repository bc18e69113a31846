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
# in review.
allow_budget=38
allows=$(grep -r 'quill-lint: allow' crates | wc -l)
echo "==> quill-lint allow budget ($allows of $allow_budget)"
if [ "$allows" -gt "$allow_budget" ]; then
    echo "error: $allows 'quill-lint: allow' sites under crates/, budget is $allow_budget" >&2
    exit 1
fi

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# FiBA soak: plain `cargo test` runs both suites at their pinned 48-64
# cases and six fuzz seeds in a few seconds; here they get 2 000 proptest
# cases each and QUILL_FIBA_FUZZ_SEEDS more op-fuzz seeds, in release. Both
# suites drive the tree at two fan-outs — a small one, whose trees are deep,
# and the production MIN_FANOUT — so the soak covers both. Both interleave
# range queries with appends, stragglers and evictions, which only mark
# caches stale (a cache is folded only when a query reads it), and check
# after every query that the caches it read were fresh and exact; the
# read-timing fuzz also checks, per seed, that querying after every write or
# only at checkpoints gives bit-identical float results.
echo "==> FiBA battery soak (PROPTEST_CASES=2000, QUILL_FIBA_FUZZ_SEEDS=${QUILL_FIBA_FUZZ_SEEDS:-64})"
PROPTEST_CASES=2000 QUILL_FIBA_FUZZ_SEEDS="${QUILL_FIBA_FUZZ_SEEDS:-64}" \
    cargo test --release -q -p quill-engine --test fiba_invariants --test fiba_aggregator

# Core soak: the slack buffer (every event forwarded by its own insert, in
# arrival order and ahead of the watermark that insert emits; repeated
# `(ts, seq)` keys included), the controller and the estimator — the
# slide-aware `window_slack` against a brute-force C_S — at 2 000 cases
# instead of the pinned 48.
echo "==> quill-core property soak (PROPTEST_CASES=2000)"
PROPTEST_CASES=2000 cargo test --release -q -p quill-core --test proptest_core

# Order-statistic soak: every Median, Quantile and DistinctCount result,
# revisions included, against the naive oracle's fold
# (`quill_metrics::oracle::naive_aggregate`) of the window's members, bit for
# bit — keyed sliding windows up to 40 per event, near and
# deep stragglers, `Drop` and `Revise`, NaN/±0/±inf/i64::MAX/null/string
# values — at 2 000 cases (the suite's other properties keep their pinned
# count).
echo "==> quill-engine order-statistic soak (PROPTEST_CASES=2000)"
PROPTEST_CASES=2000 cargo test --release -q -p quill-engine --test proptest_engine

# Differential simulation soak: QUILL_SIM_CASES seeds through the full
# strategy × executor sweep against the naive oracle. Scale the seed count
# up for a longer soak, e.g. QUILL_SIM_CASES=256 ./scripts/check.sh.
echo "==> quill-sim differential soak (QUILL_SIM_CASES=${QUILL_SIM_CASES:-16})"
QUILL_SIM_CASES="${QUILL_SIM_CASES:-16}" \
    cargo test --release -q -p quill-sim --test differential

# The checked-in Chrome trace fixture must stay a structurally valid span
# timeline (quill-inspect's own unit test pins its content).
echo "==> quill-inspect timeline --check (crates/bench/fixtures/pipeline_trace.json)"
cargo run --release -q -p quill-bench --bin quill-inspect -- \
    timeline crates/bench/fixtures/pipeline_trace.json --check

# quill-inspect's default mode over the two shapes the one record stream is
# written in, freshly generated: f4's span records must show an `adapt`
# controller decision, and f5's post-mortem file its five violations.
echo "==> quill-inspect renders fresh f4 span records and f5 post-mortems"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cargo run --release -q -p quill-bench --bin experiments -- \
    --exp f4,f5 --quick --out "$tmp" > /dev/null
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

# The benchmark is a package of its own with path dependencies on crates/,
# and a crates/ change may not edit it: compile its binary and its tests
# against this checkout, so that a public-API break fails here and not in
# the pipeline. Same target directory as benchmark/run.sh.
echo "==> benchmark builds against the workspace (cargo test --no-run)"
CARGO_TARGET_DIR=.bench_build cargo test --release --offline \
    --manifest-path benchmark/Cargo.toml --no-run

echo "All checks passed."
