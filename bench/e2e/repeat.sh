#!/usr/bin/env bash
# Repeatability and comparison tooling for the avdb_e2e benchmark
# (bench/e2e/README.md).
#
#   bench/e2e/repeat.sh repeat [--runs N] [--seed S | --seeds a,b,...]
#                              [--seconds S] [--out summary.json] [workload ...]
#   bench/e2e/repeat.sh compare A.json B.json
#
# `repeat` runs each workload N times (default 5) and prints every
# end-to-end metric's median and IQR; it fails when a host metric's IQR
# exceeds its bound or a virtual-time metric differs between runs of one
# seed (with --seeds: when any IQR exceeds a third of its bound).
# `compare` prints each metric's change between two `repeat --out`
# summaries against its bound and fails on a regression beyond it.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
case "${1:-}" in
  repeat | compare) exec python3 "$here/run.py" "$@" ;;
  *)
    sed -n '5,7p' "$0" >&2
    exit 2
    ;;
esac
