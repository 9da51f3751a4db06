#!/usr/bin/env bash
# Wall-clock benchmark of the parallel experiment runner: times
# fig06_pcc_size serially (--jobs=1) and in parallel (--jobs=N),
# verifies the outputs are byte-identical, and writes BENCH_runner.json
# with the wall times, the speedup, and the serial per-access cost —
# mean AND p99 across the batch's simulations — from the runner's own
# --perf accounting.
#
# Usage:
#   scripts/bench_wall.sh                 # --scale=small, N = nproc
#   PCC_SCALE=ci scripts/bench_wall.sh    # quicker, CI-sized inputs
#   PCC_JOBS=8   scripts/bench_wall.sh    # explicit parallel width
#
# Interpreting the result: "speedup" is serial wall / parallel wall for
# the whole harness. On a host with 4+ cores the acceptance target is
# >= 3x. On smaller hosts the parallel run degenerates toward serial
# timeslicing, so the speedup is not a statement about the runner at
# all: the JSON records the host's own concurrency ("hardware_jobs"),
# and when it is below the requested --jobs the speedup field is
# dropped (null) and "speedup_skipped" says why, so downstream
# tooling never gates on a number the host could not produce. With
# --jobs=1 there is no parallel run at all: a second serial run would
# only time the same configuration twice, so it is skipped, every
# parallel_* field and the speedup are null, and "speedup_skipped"
# says so.

set -euo pipefail

cd "$(dirname "$0")/.."

SCALE="${PCC_SCALE:-small}"
JOBS="${PCC_JOBS:-$(nproc)}"
OUT="${PCC_OUT:-BENCH_runner.json}"

echo "==> building (build/)"
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build -j "$(nproc)" --target fig06_pcc_size >/dev/null

BIN=./build/bench/fig06_pcc_size
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "==> serial run (--jobs=1, scale=$SCALE)"
t0=$(date +%s.%N)
"$BIN" --scale="$SCALE" --csv --jobs=1 --perf="$TMP/serial.perf.json" \
    > "$TMP/serial.csv"
t1=$(date +%s.%N)

t2=""
t3=""
if [ "$JOBS" -gt 1 ]; then
    echo "==> parallel run (--jobs=$JOBS, scale=$SCALE)"
    t2=$(date +%s.%N)
    "$BIN" --scale="$SCALE" --csv --jobs="$JOBS" \
        --perf="$TMP/parallel.perf.json" > "$TMP/parallel.csv"
    t3=$(date +%s.%N)

    echo "==> verifying parallel output is byte-identical to serial"
    diff -u "$TMP/serial.csv" "$TMP/parallel.csv"
else
    echo "==> --jobs=1: no parallel run"
fi

python3 - "$TMP" "$OUT" "$SCALE" "$JOBS" "$t0" "$t1" "$t2" "$t3" <<'EOF'
import json
import os
import sys

tmp, out, scale, jobs, t0, t1, t2, t3 = sys.argv[1:9]
jobs = int(jobs)
serial_wall = float(t1) - float(t0)

with open(os.path.join(tmp, "serial.perf.json")) as f:
    serial_perf = json.load(f)
parallel = jobs > 1
parallel_wall = None
parallel_perf = {}
if parallel:
    parallel_wall = float(t3) - float(t2)
    with open(os.path.join(tmp, "parallel.perf.json")) as f:
        parallel_perf = json.load(f)

# What the host actually offers vs what the harness was asked to use;
# a real speedup can only approach min(jobs, hardware_jobs). Prefer
# the runner's own probe (it is what sized the worker pool) and fall
# back to the host view for older perf files.
hardware_jobs = serial_perf.get("host", {}).get(
    "hardware_jobs", os.cpu_count() or 1)
speedup = (
    round(serial_wall / parallel_wall, 3)
    if parallel and parallel_wall > 0 else None
)
speedup_skipped = None
if not parallel:
    speedup_skipped = (
        "--jobs=1: no parallel run; a second serial run would time the"
        " same configuration twice"
    )
elif hardware_jobs < jobs:
    # Timeslicing, not concurrency: publishing a "speedup" here would
    # gate on scheduler noise. Keep both walls, drop the ratio.
    speedup = None
    speedup_skipped = (
        f"host offers {hardware_jobs} hardware job(s) but --jobs={jobs}"
        " was requested; parallel wall reflects timeslicing, not the"
        " runner"
    )

report = {
    "benchmark": "fig06_pcc_size",
    "scale": scale,
    "hardware_jobs": hardware_jobs,
    "jobs": jobs,
    "serial_wall_s": round(serial_wall, 3),
    "parallel_wall_s": round(parallel_wall, 3) if parallel else None,
    "speedup": speedup,
    "speedup_skipped": speedup_skipped,
    # The diff above gates this script; with no parallel run there is
    # nothing to compare.
    "output_identical": True if parallel else None,
    # Per-access busy cost (summed over workers) — a per-simulation
    # cost, not a latency; timeslicing inflates it when jobs exceeds
    # hardware_jobs.
    "serial_busy_ns_per_access": serial_perf["busy_ns_per_access"],
    "parallel_busy_ns_per_access": parallel_perf.get("busy_ns_per_access"),
    # Tail of the same distribution: p99 across the batch's individual
    # simulations. A mean that holds while the p99 regresses means one
    # configuration got slower while the rest hid it.
    "serial_p99_busy_ns_per_access": serial_perf.get(
        "p99_busy_ns_per_access"),
    "parallel_p99_busy_ns_per_access": parallel_perf.get(
        "p99_busy_ns_per_access"),
    # Per-access wall cost: the parallel number falls with real
    # concurrency (this is the runner's throughput win, not a per-sim
    # slowdown when it does not).
    "serial_wall_ns_per_access": serial_perf["wall_ns_per_access"],
    "parallel_wall_ns_per_access": parallel_perf.get("wall_ns_per_access"),
    "serial_runner": serial_perf,
    "parallel_runner": parallel_perf if parallel else None,
}
with open(out, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(json.dumps(report, indent=2))
EOF

echo "==> wrote $OUT"
