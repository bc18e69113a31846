#!/usr/bin/env bash
# quill-e2e: build the benchmark and the daemon it measures, then run.
#
#   benchmark/run.sh [--seed N] [--workload W] [--seconds S] [--trace [0|1]] [--quick] [--out FILE]
#   benchmark/run.sh --compare A.jsonl B.jsonl
#
# Without --workload every workload runs and every metric is printed by name
# with its unit. With --workload one run is made and its result line (one
# JSON object) is the last line of standard output. Build output goes to
# standard error. Exits non-zero on any failed operation or wrong result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# Everything cargo writes stays inside the checkout. A relative
# CARGO_TARGET_DIR is relative to where the command was started.
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# The daemon is built from this checkout's sources with the root manifest's
# default release profile, through this package's own workspace and lock file.
cargo build --release --offline --manifest-path "$here/Cargo.toml" \
  -p quill-e2e -p quill-serve >&2

exec "$target/release/quill-e2e" \
  --server-bin "$target/release/quill-serve" \
  --out-dir "$here/out" \
  "$@"
