#!/usr/bin/env python3
"""Repeatability proof and trajectory entries for the dtrank benchmark.

    python3 perfbench/prove.py run --workloads table2_offline,serve_cold_20k \
        --seeds 11,12,13 --out proof.json [--trace-seeds 11]
    python3 perfbench/prove.py compare a.json b.json

`run` runs perfbench/run.py once per (workload, seed), then reports each
end-to-end metric's median, quartiles and spread (interquartile range
over median, the repeatability figure checked against BENCHMARK.json's
bounds) and writes them, with the host context, as one JSON document.
With --trace-seeds it also makes traced runs (one per seed: a traced run
makes every workload's traced pass) and records the per-layer medians
plus the tracing overhead (traced minus untraced medians of the
end-to-end figures the traced passes repeat).

`compare` is the agreement check between two such documents: it refuses
documents from different hosts or SIMD tiers, and otherwise prints, for
every metric, how much worse the second median is than the first and
whether that stays within the metric's bound. Exit status 1 on any
metric outside its bound.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import pbstats  # noqa: E402

ROOT = HERE.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


# The traced passes' repeat of one end-to-end figure per workload.
TRACE_TWINS = {
    "table2_offline": ("trace.table2.wall_s", "wall_s"),
    "serve_warm_mlp": ("trace.warm.latency_p50_ms", "latency_p50_ms"),
    "serve_cold_20k": ("trace.cold.latency_p50_ms", "latency_p50_ms"),
}


def load_spec():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    t0 = time.monotonic()
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                         timeout=900)
    elapsed = time.monotonic() - t0
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise SystemExit("run failed (rc=%d): %s" % (res.returncode,
                                                     " ".join(cmd)))
    context = {}
    for line in lines:
        if line.startswith("# context "):
            context = json.loads(line[len("# context "):])
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("output check failed: " + " ".join(cmd))
    return result, context, elapsed


def cmd_run(args):
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    trace_seeds = [int(s) for s in args.trace_seeds.split(",")] \
        if args.trace_seeds else []
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    doc = {"seconds": seconds, "seeds": seeds, "workloads": {},
           "layers": {}, "tracing_overhead": {}, "run_seconds_wall": {}}
    workloads = args.workloads.split(",")
    for workload in workloads:
        values, walls = {}, []
        for seed in seeds:
            result, context, elapsed = one_run(workload, seed, seconds, False)
            walls.append(elapsed)
            doc["host"] = context.get("host", {})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d (%.1f s): %s" % (
                workload, seed, elapsed,
                ", ".join("%s=%.6g" % (k, v["value"])
                          for k, v in result["metrics"].items())),
                flush=True)
        rows = {}
        for name, vals in values.items():
            row = pbstats.quartiles(vals)
            row["spread"] = pbstats.spread(vals)
            row["n"] = len(vals)
            row["values"] = vals
            rows[name] = row
            bound = bounds[name]["bound"]
            flag = "ok" if row["spread"] < bound / 3 else (
                "WITHIN BOUND" if row["spread"] <= bound else "TOO WIDE")
            print("  %-16s median %12.6g  q1 %12.6g  q3 %12.6g  spread "
                  "%.4f  (bound %.2f: %s)" % (name, row["median"], row["q1"],
                                              row["q3"], row["spread"],
                                              bound, flag), flush=True)
        doc["workloads"][workload] = rows
        doc["run_seconds_wall"][workload] = max(walls)
    layer_vals, traced_walls = {}, []
    for seed in trace_seeds:
        result, _, elapsed = one_run(workloads[0], seed, seconds, True)
        traced_walls.append(elapsed)
        print("traced seed %d (%.1f s)" % (seed, elapsed), flush=True)
        for name, m in result["metrics"].items():
            layer_vals.setdefault(name, []).append(m["value"])
    if layer_vals:
        med = {k: pbstats.statistics.median(v)
               for k, v in layer_vals.items()}
        doc["layers"] = med
        doc["run_seconds_wall"]["traced"] = max(traced_walls)
        for workload, (layer, e2e) in TRACE_TWINS.items():
            rows = doc["workloads"].get(workload)
            if rows:
                doc["tracing_overhead"][workload] = {
                    e2e: med[layer] - rows[e2e]["median"]}
        print("tracing overhead (traced - untraced medians): %s"
              % doc["tracing_overhead"], flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")


def cmd_compare(args):
    spec = load_spec()
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    try:
        rows = pbstats.agreement(a, b, spec["end_to_end"])
    except ValueError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    bad = 0
    for workload, name, share, bound, ok in rows:
        bad += not ok
        print("%-16s %-16s worse by %+.4f (bound %.2f) %s"
              % (workload, name, share, bound, "ok" if ok else "OUTSIDE"))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workloads", required=True)
    r.add_argument("--seeds", required=True)
    r.add_argument("--trace-seeds", default="")
    r.add_argument("--seconds", type=float, default=0)
    r.add_argument("--out", default="")
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = ap.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
