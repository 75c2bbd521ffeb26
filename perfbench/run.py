#!/usr/bin/env python3
"""hclocksync's benchmark: builds hcs_perfbench from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all   # every workload, one summary table

BENCHMARK.json gates two workloads; UNGATED_WORKLOADS run the same way.
Run titan16k-serial traced before a sharded titan16k workload to get
pdes.speedup.<alg> in the sharded run's table.

The build goes to $CARGO_TARGET_DIR (default .bench_build).  The last stdout
line is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1.  `attempted` and `failed` count rank-syncs.  The line
before it is the ledger entry (machine, commit, seed, src/ line count), also
written with the full raw record under <build>/perfbench-results/.
NOTES.md explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Runnable by hand but not gated in BENCHMARK.json: their run-to-run spread on
# a shared 4-core host is too wide for a bound (NOTES.md, "Gated workloads").
UNGATED_WORKLOADS = ["titan16k-serial", "titan16k-shards4", "jupiter512-trials"]
TITAN_WORKLOADS = ["titan16k-serial", "titan16k-shards2", "titan16k-shards4"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build(build_dir):
    """Configures (once) and builds hcs_perfbench; returns the binary's path."""
    log_path = os.path.join(build_dir, "perfbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "hcs_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail("build failed (%s); see %s" % (" ".join(cmd[:2]), log_path))
    return os.path.join(build_dir, "hcs_perfbench")


def ledger(seed):
    """Machine, commit and source-size metadata recorded with every result."""
    src = os.path.join(ROOT, "src")
    lines = 0
    tree = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                data = f.read()
            tree.update(os.path.relpath(path, ROOT).encode() + b"\0" + data)
            if name.endswith((".cpp", ".hpp")):
                lines += data.count(b"\n")
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                            text=True).stdout.strip() if os.path.isdir(
                                os.path.join(ROOT, ".git")) else ""
    mem_kib = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kib = int(line.split()[1])
    return {"nproc": os.cpu_count(), "mem_gib": round(mem_kib / 2**20, 1),
            "commit": commit or "unknown (not a git checkout)",
            "src_sha256": tree.hexdigest()[:16], "src_loc": lines, "seed": seed}


def cross_run_checks(state_dir, raw, problems):
    """Compares the titan16k workloads that ran with this seed in this build
    tree: their deterministic outputs must be identical (--shards invariance).
    A traced sharded run after a traced titan16k-serial run also reports
    pdes.speedup.<alg> = serial clocksync.sync_s.<alg> / its own."""
    workload = raw["workload"]
    if workload not in TITAN_WORKLOADS:
        return {}
    os.makedirs(state_dir, exist_ok=True)

    def state_path(name):
        return os.path.join(state_dir, "%s.seed%d.json" % (name, raw["seed"]))

    state = load_json(state_path(workload)) if os.path.exists(state_path(workload)) else {}
    state["digest"] = raw["digest"]
    if raw["trace"]:
        state["sync_s"] = {k[len("clocksync.sync_s."):]: v["value"]
                           for k, v in raw["detail"].items()
                           if k.startswith("clocksync.sync_s.")}
    with open(state_path(workload), "w") as f:
        json.dump(state, f)
    others = {name: load_json(state_path(name)) for name in TITAN_WORKLOADS
              if name != workload and os.path.exists(state_path(name))}
    for name, theirs in others.items():
        if theirs["digest"] != raw["digest"]:
            problems.append("outputs differ from %s at the same seed" % name)
    serial = others.get("titan16k-serial", {})
    if not raw["trace"] or "sync_s" not in serial:
        return {}
    return {"pdes.speedup." + alg: {"value": serial["sync_s"][alg] / t, "unit": "ratio"}
            for alg, t in state["sync_s"].items() if alg in serial["sync_s"] and t > 0}


def run_workload(binary, build_dir, spec, workload, seed, seconds, trace):
    traces = os.path.join(build_dir, "perfbench-traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out", os.path.join(traces, "%s.seed%d.json" % (workload, seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail("%s exited with %d" % (workload, proc.returncode))
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    problems = list(raw["problems"])
    expected = load_json(os.path.join(HERE, "expected.json"))
    if seed == expected["seed"] and raw["digest"] != expected["digests"][workload]:
        problems.append("digest %s != stored %s at seed %d" % (
            raw["digest"], expected["digests"][workload], seed))
    detail = dict(raw["detail"])
    detail.update(cross_run_checks(os.path.join(build_dir, "perfbench-state"), raw, problems))

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            problems.append("metric %s missing" % m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    attempted, failed = raw["attempted"], raw["failed"]
    if problems and failed == 0:
        failed = attempted  # a failed check fails every rank-sync of the run
    if "sync_ok_share" in metrics:
        metrics["sync_ok_share"]["value"] = (attempted - failed) / attempted
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"ledger": ledger(seed), "workload": workload, "seconds": seconds,
              "trace": int(trace), "problems": problems, "digest": raw["digest"],
              "detail": detail, "result": result}
    results = os.path.join(build_dir, "perfbench-results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s.seed%d.trace%d.json" % (workload, seed, trace)),
              "w") as f:
        json.dump(record, f, indent=1)
    return record


def print_record(record):
    result = record["result"]
    attempted, failed = result["attempted"], result["failed"]
    print("== %s  seed %d  trace %d  digest %s" % (
        record["workload"], record["ledger"]["seed"], record["trace"], record["digest"]))
    for name, m in result["metrics"].items():
        print("  %-28s %16.6g %s" % (name, m["value"], m["unit"]))
    for name, value in record["detail"].items():
        if isinstance(value, dict):
            print("  %-28s %16.6g %s" % (name, value["value"], value["unit"]))
        else:
            print("  %-28s %16.6g" % (name, value))
    print("  %-28s %16.6g ratio (%d of %d rank-syncs)" % (
        "failed_share", failed / attempted, failed, attempted))
    for p in record["problems"]:
        print("  PROBLEM: " + p)
    print(json.dumps({"ledger": record["ledger"]}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]] + UNGATED_WORKLOADS
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        fail("unknown workload %r (known: %s, all)" % (args.workload, ", ".join(names)))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)

    records = [run_workload(binary, build_dir, spec, w, args.seed, seconds, bool(args.trace))
               for w in workloads]
    for record in records:
        print_record(record)
    if len(records) == 1:
        print(json.dumps(records[0]["result"]))
    else:
        print(json.dumps({r["workload"]: r["result"] for r in records}))


if __name__ == "__main__":
    main()
