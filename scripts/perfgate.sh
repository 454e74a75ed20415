#!/usr/bin/env bash
# Perf regression gate: a thin wrapper around perfbase. perfbase writes
# a fresh snapshot to a temp file, then checks its ratio floors and
# compares its time rows against the newest committed BENCH_*.json
# (`nc_bench::perf`), printing every finding and exiting 1 when a time
# row is >25% slower or a floor fails.
#
# Those findings warn by default — wall-clock noise on shared machines
# makes a hard gate flakier than it is useful — and fail the gate with
# PERFGATE_STRICT=1. A run that writes no snapshot (a crash, or a failed
# correctness assert inside perfbase) fails in both modes.
set -uo pipefail
cd "$(dirname "$0")/.."

out=$(mktemp -t perfgate.XXXXXX.json)
rm -f "$out"
trap 'rm -f "$out"' EXIT
PERFBASE_OUT="$out" cargo run --release -q -p nc-bench --bin perfbase
status=$?
if [[ ! -s "$out" ]]; then
    echo "perfgate: FAIL — perfbase wrote no snapshot (exit ${status})"
    exit 1
fi
if [[ $status -ne 0 ]]; then
    if [[ "${PERFGATE_STRICT:-0}" != "0" ]]; then
        echo "perfgate: FAIL — perf findings above (PERFGATE_STRICT=1)"
        exit 1
    fi
    echo "perfgate: WARNING — perf findings above (warn-only; PERFGATE_STRICT=1 fails them)"
fi
exit 0
