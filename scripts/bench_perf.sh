#!/usr/bin/env bash
# Measures the simulator hot path (bench_micro_sim), the parallel trial
# runner (bench_fig03_algorithms wall time at --jobs 1 vs --jobs nproc) and
# the sharded PDES engine (bench_fig06_hier_titan wall time over --shards —
# the single-World benchmark --jobs cannot help with) and writes the result
# as JSON.
#
#   scripts/bench_perf.sh [BUILD_DIR]             (default: build)
#   scripts/bench_perf.sh [BUILD_DIR] fig_scale   bench_scale rank sweep
#
# fig_scale runs bench_scale once per rank count and writes the per-point
# host metrics (wall time, events/sec, peak RSS, frame-pool reservation) as
# JSON (BENCH_pr7.json holds an earlier capture).
#
# Environment:
#   BENCH_OUT       output path (default: BENCH_pr2.json, or BENCH_pr7.json
#                   in fig_scale mode)
#   BENCH_SUITE     "suite" label embedded in the JSON
#   BASELINE_JSON   optional google-benchmark JSON of the same micro suite
#                   from a baseline tree; per-benchmark speedups are computed
#                   against it and embedded under "baseline".
#   SCALE_RANKS     fig_scale sweep points (default 16384,65536,131072)
#   SCALE_SHARDS    fig_scale --shards per World (default 1)
#   SCALE_SEED      fig_scale --seed (default 1)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
MODE="${2:-full}"

if [[ "$MODE" == "fig_scale" ]]; then
  OUT="${BENCH_OUT:-BENCH_pr7.json}"
  SCALE_BIN="$BUILD_DIR/bench/bench_scale"
  [[ -x "$SCALE_BIN" ]] \
    || { echo "bench_perf.sh: build '$BUILD_DIR' first (cmake --build $BUILD_DIR -j --target bench_scale)" >&2; exit 1; }
  RANKS="${SCALE_RANKS:-16384,65536,131072}"
  SHARDS="${SCALE_SHARDS:-1}"
  SEED="${SCALE_SEED:-1}"
  WORK=$(mktemp -d)
  trap 'rm -rf "$WORK"' EXIT
  for r in ${RANKS//,/ }; do
    echo "bench_perf.sh: bench_scale --ranks $r --shards $SHARDS" >&2
    # Fresh process per point: peak RSS is a process-lifetime high-water
    # mark, so sharing a process would attribute the largest World to every
    # point.  --jobs 1 keeps the two algorithms sequential for the same
    # reason.
    "$SCALE_BIN" --ranks "$r" --shards "$SHARDS" --jobs 1 --seed "$SEED" --csv \
      > "$WORK/out_${r}" 2> "$WORK/host_${r}"
  done
  python3 - "$WORK" "$OUT" "$RANKS" "$SHARDS" "$SEED" "$(nproc)" <<'PY'
import json
import os
import sys

work, out_path, ranks_csv, shards, seed, nproc = sys.argv[1:7]
ranks = [int(r) for r in ranks_csv.split(",")]

def csv_rows(path):
    """The 6-column CSV rows a bench_scale table printed with --csv."""
    rows = []
    with open(path) as f:
        for line in f:
            parts = line.strip().split(",")
            if len(parts) == 6 and parts[0] != "algorithm":
                rows.append(parts)
    return rows

points = []
summary = {}
for r in ranks:
    det = csv_rows(f"{work}/out_{r}")
    host = csv_rows(f"{work}/host_{r}")
    total_events, total_wall, peak = 0, 0.0, 0.0
    for d, h in zip(det, host):
        alg, _, dur, off0, off1, events = d
        _, _, wall, eps, rss, pool = h
        points.append({
            "ranks": r,
            "algorithm": alg,
            "sync_duration_s": float(dur),
            "max_offset_0s_us": float(off0),
            "max_offset_1s_us": float(off1),
            "events": int(events),
            "wall_s": float(wall),
            "events_per_s": int(eps),
            "peak_rss_mib": float(rss),
            "frame_pool_mib": float(pool),
        })
        total_events += int(events)
        total_wall += float(wall)
        peak = max(peak, float(rss))
    summary[str(r)] = {
        "wall_s": round(total_wall, 2),
        "events_per_s": round(total_events / total_wall) if total_wall else 0,
        "peak_rss_mib": peak,
    }

result = {
    "suite": os.environ.get("BENCH_SUITE", "bench_scale rank sweep"),
    "notes": [
        "one bench_scale process per rank count; --jobs 1, so peak_rss_mib is attributable to that point's Worlds",
        "events_per_s in summary is total events / total wall over both algorithms at that point; per-algorithm rates are in points[]",
    ],
    "machine": {"nproc": int(nproc)},
    "config": {"ranks": ranks, "shards": int(shards),
               "jobs": 1, "seed": int(seed), "scale": 0.05},
    "points": points,
    "summary": summary,
}
with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print(f"bench_perf.sh: wrote {out_path}")
PY
  exit 0
fi

OUT="${BENCH_OUT:-BENCH_pr2.json}"
MICRO="$BUILD_DIR/bench/bench_micro_sim"
FIG03="$BUILD_DIR/bench/bench_fig03_algorithms"
FIG06="$BUILD_DIR/bench/bench_fig06_hier_titan"
[[ -x "$MICRO" && -x "$FIG03" && -x "$FIG06" ]] \
  || { echo "bench_perf.sh: build '$BUILD_DIR' first (cmake --build $BUILD_DIR -j)" >&2; exit 1; }

MICRO_JSON=$(mktemp)
trap 'rm -f "$MICRO_JSON"' EXIT
# Repetitions + best-of: on shared/virtualized machines single runs swing by
# 10-20%; the fastest repetition is the least-perturbed measurement.
"$MICRO" \
  --benchmark_filter='BM_EventQueuePushPop|BM_SimulationDelayChain|BM_TaskCallChain' \
  --benchmark_min_time=0.5 --benchmark_repetitions=5 \
  --benchmark_format=json > "$MICRO_JSON"

# Wall time of a full figure reproduction at a fixed scale, serial vs. all
# cores.  The output is byte-identical either way; only the clock differs.
fig03_seconds() {
  local start_ns end_ns
  start_ns=$(date +%s%N)
  "$FIG03" --scale 0.05 --seed 1 --jobs "$1" > /dev/null
  end_ns=$(date +%s%N)
  awk -v a="$start_ns" -v b="$end_ns" 'BEGIN { printf "%.3f", (b - a) / 1e9 }'
}
NPROC=$(nproc)
FIG03_J1=$(fig03_seconds 1)
FIG03_JN=$(fig03_seconds "$NPROC")

# The sharded-engine sweep: one 16 384-rank Titan World (the workload --jobs
# cannot parallelize — a single slow trial) advanced on 1/2/4 shard threads.
# Output is byte-identical at every shard count; only the clock differs.
fig06_seconds() {
  local start_ns end_ns
  start_ns=$(date +%s%N)
  "$FIG06" --scale 0.01 --seed 1 --shards "$1" > /dev/null
  end_ns=$(date +%s%N)
  awk -v a="$start_ns" -v b="$end_ns" 'BEGIN { printf "%.3f", (b - a) / 1e9 }'
}
FIG06_S1=$(fig06_seconds 1)
FIG06_S2=$(fig06_seconds 2)
FIG06_S4=$(fig06_seconds 4)

python3 - "$MICRO_JSON" "$OUT" "$FIG03_J1" "$FIG03_JN" "$NPROC" \
    "$FIG06_S1" "$FIG06_S2" "$FIG06_S4" "${BASELINE_JSON:-}" <<'PY'
import json
import os
import sys

(micro_path, out_path, fig03_j1, fig03_jn, nproc,
 fig06_s1, fig06_s2, fig06_s4, baseline_path) = sys.argv[1:10]

def micro_table(path):
    with open(path) as f:
        doc = json.load(f)
    table = {}
    for bench in doc["benchmarks"]:
        if "items_per_second" not in bench:  # e.g. an unfiltered baseline run
            continue
        if bench.get("run_type") == "aggregate":  # keep raw repetitions only
            continue
        name = bench["name"].split("/repeats:")[0]
        entry = {
            "real_time_ns": round(bench["real_time"], 1),
            "items_per_second": round(bench["items_per_second"]),
            "per_item_ns": round(1e9 / bench["items_per_second"], 2),
        }
        if name not in table or entry["per_item_ns"] < table[name]["per_item_ns"]:
            table[name] = entry  # best repetition wins
    return table

micro = micro_table(micro_path)
result = {
    "suite": os.environ.get("BENCH_SUITE",
                            "pr2: parallel trial runner + simulator hot path"),
    "notes": [
        "per-benchmark values are the best repetition (least-perturbed run on a shared machine)",
        "baseline should be captured with this same script from a pre-PR tree, ideally interleaved with the current binary",
        "fig03 jobs_nproc equals jobs_1 when nproc is 1; the runner's speedup needs real cores",
        "fig06 shards_N on a 1-core host measures the engine's overhead, not its speedup: the shard workers time-slice one core, so shards_N >= shards_1 there by construction; speedup needs real cores",
    ],
    "machine": {"nproc": int(nproc)},
    "micro": micro,
    "fig03_wall_seconds": {
        "scale": 0.05,
        "jobs_1": float(fig03_j1),
        "jobs_nproc": float(fig03_jn),
        "speedup": round(float(fig03_j1) / float(fig03_jn), 2),
    },
    "fig06_shards_wall_seconds": {
        "scale": 0.01,
        "shards_1": float(fig06_s1),
        "shards_2": float(fig06_s2),
        "shards_4": float(fig06_s4),
        "speedup_shards_4": round(float(fig06_s1) / float(fig06_s4), 2),
    },
}
if baseline_path:
    baseline = micro_table(baseline_path)
    result["baseline"] = baseline
    result["speedup_vs_baseline"] = {
        name: round(baseline[name]["per_item_ns"] / micro[name]["per_item_ns"], 3)
        for name in micro
        if name in baseline
    }

with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print(f"bench_perf.sh: wrote {out_path}")
PY
