#!/usr/bin/env bash
# Local CI gate: formatting, lints, rustdoc links, the tier-1
# build+test pass, the perfbench build check, the artifact
# determinism, drift and containment gates, and the perf gate. Run
# from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings: whole workspace)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc (deny warnings: the workspace's own library docs)"
# Every intra-doc link must resolve, so a deleted item cannot leave a
# dangling link behind. The packages are named one by one:
# `--workspace` would also document vendor/'s path crates, whose docs
# fail on their own.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --lib \
  -p nc-core -p nc-des -p nc-streamsim -p nc-queueing -p nc-workloads \
  -p nc-apps -p nc-sweep -p nc-admit -p nc-serve -p nc-bench -p streamcalc

echo "==> tier-1: cargo build --release && cargo test -q --workspace"
cargo build --release
cargo test -q --workspace

echo "==> release-profile exact arithmetic: nc-core num tests + prop_num, nc-admit's suites"
# The service ships the release build, where i128 arithmetic wraps
# where the debug build panics; the tier-1 lane above tests only debug.
# The admission engine's integer grid runs checked ops on its hot path
# and compiles its debug checks out here, so its suites run in both.
cargo test --release -q -p nc-core --lib num::
cargo test --release -q -p nc-core --test prop_num
cargo test --release -q -p nc-admit

echo "==> perfbench builds against the public API, unedited"
# perfbench/ is a package of its own that only benchmark changes edit;
# every other change must keep the API it uses working.
cargo check --manifest-path perfbench/Cargo.toml --locked --offline
git diff --exit-code perfbench/ \
  || { echo "FAIL: building perfbench changed files under perfbench/" >&2; exit 1; }

echo "==> sweep smoke: 4x4 grid through the batch engine"
SWEEP_GRID=4x4 NC_THREADS=2 cargo run --release -q -p nc-bench --bin sweep

echo "==> NC_THREADS determinism: sweep CSV byte-identical at 1 vs 2 workers"
cp results/sweep_bitw.csv /tmp/sweep_2workers.csv
SWEEP_GRID=4x4 NC_THREADS=1 cargo run --release -q -p nc-bench --bin sweep > /dev/null
cmp results/sweep_bitw.csv /tmp/sweep_2workers.csv \
  || { echo "FAIL: sweep CSV differs between NC_THREADS=1 and NC_THREADS=2" >&2; exit 1; }
rm -f /tmp/sweep_2workers.csv

echo "==> backpressure gate: closed-form bounds contain DES on every overload_det.csv row"
cargo run --release -q -p nc-bench --bin overload > /dev/null
python3 - <<'PY'
import csv
with open("results/overload_det.csv") as f:
    rows = list(csv.DictReader(f))
assert rows, "overload_det.csv is empty"
bad = []
for r in rows:
    fc_d, sim_d = float(r["fc_delay_ms"]), float(r["sim_delay_max_ms"])
    fc_b, sim_b = float(r["fc_backlog_mib"]), float(r["sim_peak_backlog_mib"])
    if fc_d + 1e-6 < sim_d or fc_b + 1e-6 < sim_b:
        bad.append((r["offered_mib_s"], fc_d, sim_d, fc_b, sim_b))
    if fc_d == float("inf") or fc_b == float("inf"):
        bad.append((r["offered_mib_s"], "infinite bound on a bounded-queue row"))
if bad:
    for b in bad:
        print(f"  containment violation: {b}")
    raise SystemExit("FAIL: flowctl bounds must contain the DES on every row")
print(f"backpressure gate: {len(rows)} rows, every DES observation within the closed-form bounds")
PY

echo "==> admission smoke: 6-tenant request trace through the admit bin (nc-serve shard pool)"
ADMIT_FLEET=6 ADMIT_REQS=40 NC_THREADS=2 cargo run --release -q -p nc-bench --bin admit > /dev/null

echo "==> NC_THREADS determinism: admission CSV byte-identical at 1 vs 2 shards"
cp results/admission.csv /tmp/admission_2workers.csv
ADMIT_FLEET=6 ADMIT_REQS=40 NC_THREADS=1 cargo run --release -q -p nc-bench --bin admit > /dev/null
cmp results/admission.csv /tmp/admission_2workers.csv \
  || { echo "FAIL: admission CSV differs between NC_THREADS=1 and NC_THREADS=2" >&2; exit 1; }
rm -f /tmp/admission_2workers.csv

echo "==> serve smoke: UDS service, ~1k-request replay byte-compared to the in-proc engine"
# A real server on a unix socket, the canonical 8-tenant trace (1008
# request frames + 16 reconfigurations) replayed through the wire
# protocol with the post-reconfiguration oracle probes on
# (SERVE_VERIFY=1), a what-if query through the sidecar, and a clean
# frame-driven shutdown. The replay client byte-compares the decision
# CSV against the in-proc engine and exits non-zero on any difference.
# The lane runs twice: at the default publication quantum, then at
# NC_PUB_QUANTUM=1, where the event loop parks on the shard gate
# whenever a single response is owed and every publication wakes it —
# the finest-grained park path. Each command runs under `timeout 300`,
# so a hang (a lost wake-up) fails the lane instead of blocking it.
cargo build --release -q -p nc-serve --bin serve
serve_bin=target/release/serve
serve_sock="/tmp/nc-serve-check.$$.sock"
serve_csv="/tmp/nc-serve-check.$$.csv"
for serve_quantum in 256 1; do
  echo "    publication quantum $serve_quantum"
  rm -f "$serve_sock"
  NC_PUB_QUANTUM=$serve_quantum ADMIT_FLEET=8 ADMIT_REQS=63 ADMIT_RECONFIGS=2 SERVE_VERIFY=1 \
    timeout 300 "$serve_bin" --listen "$serve_sock" &
  serve_pid=$!
  for _ in $(seq 1 50); do [ -S "$serve_sock" ] && break; sleep 0.1; done
  [ -S "$serve_sock" ] \
    || { echo "FAIL: serve never bound $serve_sock" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
  ADMIT_FLEET=8 ADMIT_REQS=63 ADMIT_RECONFIGS=2 \
    timeout 300 "$serve_bin" --replay "$serve_sock" --whatif 4 --out "$serve_csv" \
    || { echo "FAIL: serve replay diverged from the in-proc engine" >&2
         kill "$serve_pid" 2>/dev/null; exit 1; }
  timeout 300 "$serve_bin" --shutdown "$serve_sock"
  wait "$serve_pid" || { echo "FAIL: serve server exited non-zero" >&2; exit 1; }
done
rm -f "$serve_sock" "$serve_csv"

echo "==> NC_THREADS determinism: striped fleet CSV byte-identical at 1 vs 2 workers"
FLEET_TENANTS=20 NC_THREADS=1 cargo run --release -q -p nc-bench --bin fleet > /dev/null
cp results/fleet.csv /tmp/fleet_1worker.csv
FLEET_TENANTS=20 NC_THREADS=2 cargo run --release -q -p nc-bench --bin fleet > /dev/null
cmp results/fleet.csv /tmp/fleet_1worker.csv \
  || { echo "FAIL: fleet CSV differs between NC_THREADS=1 and NC_THREADS=2" >&2; exit 1; }
rm -f /tmp/fleet_1worker.csv

echo "==> faults gate: degraded bounds contain every faulted run"
cargo run --release -q -p nc-bench --bin faults > /dev/null

echo "==> tail gate: analytic tail bounds contain the MC quantiles (300-replica smoke)"
TAIL_REPLICAS=300 TAIL_OUT=tail_smoke.csv NC_THREADS=2 \
  cargo run --release -q -p nc-bench --bin tail > /dev/null
cp results/tail_smoke.csv /tmp/tail_2workers.csv
TAIL_REPLICAS=300 TAIL_OUT=tail_smoke.csv NC_THREADS=1 \
  cargo run --release -q -p nc-bench --bin tail > /dev/null
cmp results/tail_smoke.csv /tmp/tail_2workers.csv \
  || { echo "FAIL: tail CSV differs between NC_THREADS=1 and NC_THREADS=2" >&2; exit 1; }
rm -f /tmp/tail_2workers.csv
python3 - <<'PY'
import csv
with open("results/tail_smoke.csv") as f:
    rows = list(csv.DictReader(f))
assert len(rows) == 12, f"expected 4 scenarios x 3 levels = 12 rows, got {len(rows)}"
bad = []
for r in rows:
    td, ed = float(r["tail_delay_s"]), float(r["emp_delay_s"])
    tb, eb = float(r["tail_backlog_bytes"]), float(r["emp_backlog_bytes"])
    if r["within"] != "true" or td < ed or tb < eb:
        bad.append((r["scenario"], r["p"], td, ed, tb, eb))
    if td == float("inf") or tb == float("inf"):
        bad.append((r["scenario"], r["p"], "infinite tail bound"))
if bad:
    for b in bad:
        print(f"  containment violation: {b}")
    raise SystemExit("FAIL: analytic tail bounds must contain the MC quantiles on every row")
print(f"tail gate: {len(rows)} rows, every empirical quantile within the analytic tail bound")
PY
rm -f results/tail_smoke.csv

echo "==> artifacts: the repro bins rewrite results/ byte for byte"
# The lanes above rewrote the sweep, overload, admission, fleet and
# faults artifacts at their committed sizes; these bins rewrite the
# rest. table2 and repro write host-timed rates, so they stay out.
for bin in fig1 fig4 fig10 table1 table3 montecarlo; do
  cargo run --release -q -p nc-bench --bin "$bin" > /dev/null
done
git diff --exit-code -- results/ \
  || { echo "FAIL: results/ differs from the committed artifacts" >&2; exit 1; }

echo "==> coverage lane (warn-only, skipped when cargo-llvm-cov absent)"
if command -v cargo-llvm-cov > /dev/null 2>&1; then
  # Line-coverage floor on the library crates; warn-only so a dip
  # never blocks the gate, but the number is always printed.
  if ! cargo llvm-cov --workspace --lib --summary-only \
      --fail-under-lines 70; then
    echo "WARN: line coverage below the 70% floor (not fatal)" >&2
  fi
else
  echo "WARN: cargo-llvm-cov not installed; skipping coverage lane" >&2
fi

if [ "${CHECK_NIGHTLY:-0}" != "0" ]; then
  echo "==> nightly lane: ignored (long-horizon) tests included"
  cargo test -q -- --include-ignored
fi

echo "==> perf gate: every perfbase row runs; findings warn (PERFGATE_STRICT=1 fails them)"
# A perfbase run that panics or fails a correctness assert writes no
# snapshot and fails here in either mode.
scripts/perfgate.sh

echo "==> artifacts: perfbase's bin reruns left results/ byte-identical"
git diff --exit-code -- results/ \
  || { echo "FAIL: results/ differs from the committed artifacts" >&2; exit 1; }

echo "==> all checks passed"
