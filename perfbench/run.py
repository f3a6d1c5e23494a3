#!/usr/bin/env python3
"""The dtrank benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a dtrank checkout. The first run builds the
program and the benchmark's harness programs from source into
.bench_build/ (Release); later runs rebuild incrementally. Workloads:

table2_offline  The paper's Table 2: processor-family cross-validation of
                NN^T, MLP^T and GA-10NN on the paper dataset, 500 epochs,
                4 threads, repeated for --seconds. Predictions and printed
                aggregates must match
                perfbench/expected/table2_paper_e500.json bit for bit.
serve_warm_mlp  dtrank_serve on scaled:2000 (seeded by --seed) with 2
                workers, MLP^T only, 4 warmed sessions with 64 targets
                each, open-loop load at a fixed rate.
serve_cold_20k  dtrank_serve --db on a generated 20,000-machine .dtc
                (seeded by --seed); every request opens a new session
                (NN^T/MLP^T alternate, full universe, top 10), open-loop
                load at a fixed rate.

BENCHMARK.json lists table2_offline and serve_cold_20k. serve_warm_mlp's
sub-millisecond latencies follow the scheduling of a shared host more
than the daemon (on such a host, two sets of ten seeds gave interquartile
spreads of 0.15 and 0.45 of the median for p50, 0.50 and 2.6 for p90),
so it runs when named and in every traced run, which measures its
per-layer metrics.

Serve responses are replayed through an in-process RankEngine and must
match bit for bit. A traced run (--trace 1) makes the traced pass of
every workload, in one order and at one length whichever --workload it
names, so that each per-layer metric is always the same measurement: the
serve passes add an SLO rate ladder, and every pass times its layers.

The last stdout line is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1). The line before it is "# context {...}": host, dataset
and seed. An output-check mismatch prints correct=false and exits 1.
"""

import argparse
import array
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import pbstats  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_DIR = BUILD / "run"
EXPECTED_TABLE2 = HERE / "expected" / "table2_paper_e500.json"

SETUP_REPS = 4          # daemon launches before and again after the load

OFFLINE_THREADS = 4     # pb_offline's kThreads
STEP_TIMEOUT_S = 150    # any single child step
SESSION_CAPACITY = 128  # dtrank_serve's default --session-capacity

# q is the tail percentile of a window and of the SLO; a window is
# always long enough for the percentile rule at q.
WARM = {
    "dataset": "scaled:2000",
    "workers": 2,
    "targets": 64,
    "methods": "mlp",
    # At 4000 rps the coalescer batches and the daemon's threads stay
    # busy; at 1000 rps they sleep between requests, and the tail then
    # follows the host's vCPU wake-ups (warm p90 0.75 ms on a quiet host,
    # 1.0-1.8 ms while neighbours load it) rather than the daemon.
    "fixed_rate": 4000.0,
    "ladder": [8000.0, 16000.0, 32000.0, 64000.0],
    "q": 0.99,
    "slo_s": 0.010,
    "check_every": 64,
    "check_max": 256,
}
COLD = {
    "dataset": "scaled:20000",
    "workers": 4,
    "methods": "nn,mlp",
    "targets": 0,
    # A request costs ~30 ms of one worker's time. 20 rps gave the same
    # latencies (no queueing to remove) but a higher, less steady peak
    # RSS (1650-1892 MiB against 1280-1390 MiB at 40 rps).
    "fixed_rate": 40.0,
    "ramp_s": 1.0,
    "ladder": [40.0, 80.0, 160.0, 320.0],
    "q": 0.90,
    "slo_s": 0.100,
    "check_every": 32,
    "check_max": 24,
}

E2E = ["setup_s", "wall_s", "latency_p50_ms", "latency_p90_ms",
       "peak_rss_mib"]
UNITS = {"setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms",
         "latency_p90_ms": "ms", "peak_rss_mib": "MiB"}

# Per-layer metrics: name -> (unit, workload that measures it).
LAYERS = {
    "dataset.build_ms": ("ms", "table2_offline"),
    "baseline.gaknn_train_ms": ("ms", "table2_offline"),
    "core.mlpt_task_ms": ("ms", "table2_offline"),
    "core.nnt_task_ms": ("ms", "table2_offline"),
    "baseline.gaknn_task_ms": ("ms", "table2_offline"),
    "core.metrics_ms": ("ms", "table2_offline"),
    "util.pool_busy_share": ("share", "table2_offline"),
    "ml.mlp_retry_ratio": ("ratio", "table2_offline"),
    "ml.ga_memo_hit_ratio": ("ratio", "table2_offline"),
    "coverage.table2": ("share", "table2_offline"),
    "serve.server.residence_mean_ms": ("ms", "serve_warm_mlp"),
    "serve.coalescer.batch_size_mean": ("count", "serve_warm_mlp"),
    "serve.coalescer.shed": ("count", "serve_warm_mlp"),
    "serve.coalescer.queue_depth_max": ("count", "serve_warm_mlp"),
    "serve.protocol.decode_us": ("us", "serve_warm_mlp"),
    "serve.coalescer.hold_us": ("us", "serve_warm_mlp"),
    "serve.protocol.encode_us": ("us", "serve_warm_mlp"),
    "serve.rank_engine.batch_us": ("us", "serve_warm_mlp"),
    "serve.network_mean_ms": ("ms", "serve_warm_mlp"),
    "serve.transport_ping_ms": ("ms", "serve_warm_mlp"),
    "serve.latency_p99_ms.warm": ("ms", "serve_warm_mlp"),
    "serve.max_rps_at_slo.warm": ("1/s", "serve_warm_mlp"),
    "loadgen.lateness_p99_ms": ("ms", "serve_warm_mlp"),
    "coverage.warm": ("share", "serve_warm_mlp"),
    "dataset.columnar_open_ms": ("ms", "serve_cold_20k"),
    "dataset.select_machines_ms": ("ms", "serve_cold_20k"),
    "core.nnt_predict_ms": ("ms", "serve_cold_20k"),
    "core.loo_problem_ms": ("ms", "serve_cold_20k"),
    "core.mlpt_fit_ms": ("ms", "serve_cold_20k"),
    "core.mlpt_predict_ms": ("ms", "serve_cold_20k"),
    "serve.rank_engine.cold_execute_ms.nn": ("ms", "serve_cold_20k"),
    "serve.rank_engine.cold_execute_ms.mlp": ("ms", "serve_cold_20k"),
    "serve.rank_engine.rss_per_session_kib": ("KiB", "serve_cold_20k"),
    "experiments.model_cache_hit_ratio": ("ratio", "serve_cold_20k"),
    "serve.max_rps_at_slo.cold": ("1/s", "serve_cold_20k"),
    "coverage.cold": ("share", "serve_cold_20k"),
    # The traced passes' own end-to-end figures, for the tracing
    # overhead (traced minus untraced medians).
    "trace.table2.wall_s": ("s", "table2_offline"),
    "trace.warm.latency_p50_ms": ("ms", "serve_warm_mlp"),
    "trace.cold.latency_p50_ms": ("ms", "serve_cold_20k"),
}


class BenchError(Exception):
    """A failure that ends the run without a result."""


def log(*parts):
    print(*parts, flush=True)


# ---------------------------------------------------------------- build

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("no dtrank source tree next to perfbench/ "
                         "(run from the root of a checkout)")
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD / "build.log"
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    with open(build_log, "w") as out:
        if not (BUILD / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"] + gen,
                           stdout=out, stderr=subprocess.STDOUT, check=False,
                           timeout=600)
        rc = subprocess.run(["cmake", "--build", str(BUILD), "--target",
                             "perfbench_all", "-j", str(os.cpu_count() or 1)],
                            stdout=out, stderr=subprocess.STDOUT,
                            timeout=880).returncode
    if rc != 0:
        sys.stderr.write(build_log.read_text()[-4000:])
        raise BenchError("build failed (see %s)" % build_log)


def tool(name):
    for path in (BUILD / name, BUILD / "dtrank" / "tools" / name):
        if path.is_file():
            return str(path)
    raise BenchError("missing built tool " + name)


def run_step(cmd, what):
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, timeout=STEP_TIMEOUT_S)
    if res.returncode != 0:
        sys.stderr.write(res.stderr[-4000:])
        raise BenchError("%s failed (rc=%d)" % (what, res.returncode))
    return res


def read_json(path):
    with open(path) as f:
        return json.load(f)


# --------------------------------------------------------------- daemon

class Daemon:
    """A dtrank_serve process: exec until LISTENING is its set-up time."""

    def __init__(self, args):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(args, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        self.port = None
        # A daemon that never prints LISTENING is killed, which ends the
        # blocking readline below with EOF.
        watchdog = threading.Timer(60, self.proc.kill)
        watchdog.start()
        try:
            while self.port is None:
                line = self.proc.stdout.readline()
                if not line:
                    raise BenchError("dtrank_serve exited during start-up")
                if line.startswith("LISTENING port="):
                    self.port = int(line.split("=", 1)[1])
            self.setup_s = time.perf_counter() - self.t0
        except BaseException:
            self.stop()
            raise
        finally:
            watchdog.cancel()

    def status_kib(self, field):
        try:
            with open("/proc/%d/status" % self.proc.pid) as f:
                for line in f:
                    if line.startswith(field + ":"):
                        return float(line.split()[1])
        except OSError:
            pass
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()


def launch(daemon_args, setups):
    """Launches the daemon SETUP_REPS times, appending each set-up time
    to `setups`; returns the last one, still running."""
    for rep in range(SETUP_REPS):
        d = Daemon(daemon_args)
        setups.append(d.setup_s)
        if rep + 1 < SETUP_REPS:
            d.stop()
    return d


def load_records(path):
    data = array.array("d")
    with open(path, "rb") as f:
        data.frombytes(f.read())
    by_phase = {}
    for i in range(0, len(data), 5):
        by_phase.setdefault(int(data[i]), []).append(
            (data[i + 1], data[i + 2], data[i + 3], int(data[i + 4])))
    return by_phase


# ----------------------------------------------------------- workloads

def table2_offline(seed, seconds, trace):
    out_path = RUN_DIR / "table2.json"
    mode = "traced" if trace else "plain"
    run_step([tool("pb_offline"), "--mode", mode, "--seconds", str(seconds),
              "--out", str(out_path)], "pb_offline")
    res = read_json(out_path)
    expected = read_json(EXPECTED_TABLE2)
    results = res["traced"]["results"] if trace else res["results"]
    correct = results == expected
    if not correct:
        log("OUTPUT CHECK FAILED: Table 2 digest/aggregates differ from",
            EXPECTED_TABLE2.name)
        log("  got     ", json.dumps(results, sort_keys=True))
        log("  expected", json.dumps(expected, sort_keys=True))
    rankings = results["rankings"]
    setup_s = pbstats.statistics.median(res["setup_s"])
    report = ["table2_offline: paper dataset, %d rankings (17 splits x 3 "
              "methods x 29 benchmarks), %d threads, 500 epochs"
              % (rankings, OFFLINE_THREADS),
              "  setup (dataset + characteristics) median of %d: %.6f s"
              % (len(res["setup_s"]), setup_s)]
    e2e, layers = {}, {}
    if trace:
        t = res["traced"]
        lay = t["layers"]
        layers = {k: lay[k] for k in LAYERS
                  if LAYERS[k][1] == "table2_offline" and k in lay}
        layers["dataset.build_ms"] = setup_s * 1e3
        layers["coverage.table2"] = lay["coverage"]
        layers["trace.table2.wall_s"] = t["wall_s"]
        busy = lay["split_busy_ms"]
        report += [
            "  traced CV wall %.3f s; split busy %.1f ms over %d threads "
            "(pool busy share %.3f)" % (t["wall_s"], busy, OFFLINE_THREADS,
                                        lay["util.pool_busy_share"]),
            "  layer (self time, summed over calls)        ms     share",
        ]
        splits, tasks = lay["splits"], lay["task_calls_per_method"]
        for name, calls in (("dataset.select_machines_ms", 2 * splits),
                            ("baseline.gaknn_train_ms", splits),
                            ("core.mlpt_task_ms", tasks),
                            ("core.nnt_task_ms", tasks),
                            ("baseline.gaknn_task_ms", tasks),
                            ("core.metrics_ms", 3 * tasks)):
            report.append("  %-34s %10.1f  %6.2f%%  (%d calls)"
                          % (name, lay[name], 100 * lay[name] / busy, calls))
        report.append("  %-34s %10.1f  %6.2f%%  (derived remainder, not "
                      "counted)" % ("split remainder", lay["split_remainder_ms"],
                                    100 * lay["split_remainder_ms"] / busy))
        report.append("  coverage of split busy time: %.4f" % lay["coverage"])
    else:
        walls = res["wall_s"]
        wall = pbstats.statistics.median(walls)
        per_ranking_ms = wall * 1e3 / rankings
        e2e = {
            "setup_s": setup_s,
            "wall_s": wall,
            # A batch job has no per-request latency: its latency
            # metrics are the amortised wall per ranking.
            "latency_p50_ms": per_ranking_ms,
            "latency_p90_ms": per_ranking_ms,
            "peak_rss_mib": res["vmhwm_kib"] / 1024.0,
        }
        report.append("  CV wall over %d runs: %s s (median %.4f)"
                      % (len(walls), ", ".join("%.4f" % w for w in walls),
                         wall))
        report.append("  latency_* are derived: wall / rankings")
    attempted = rankings * (1 if trace else len(res["wall_s"]))
    context = {"host": res["host"], "dataset": res["dataset"],
               "seed_note": "Table 2 is defined on the paper dataset "
                            "(seed 2011); --seed does not change it"}
    return {"correct": correct, "attempted": attempted,
            "failed": 0 if correct else attempted, "e2e": e2e,
            "layers": layers, "report": report, "context": context}


def window_s(share, q, rate, seconds):
    """A window's length: `share` of the run's seconds, but never fewer
    samples than the percentile rule needs at q (with a quarter to
    spare for failures and the ends of the window)."""
    return max(share * seconds, 1.25 * pbstats.min_samples(q) / rate)


def serve_phases(cfg, seconds, trace):
    """[(name, rate, seconds)] of one serve run. The fixed window is what
    the end-to-end metrics measure; a traced pass has a shorter fixed
    window and then climbs the SLO ladder."""
    rate = cfg["fixed_rate"]
    phases = []
    if "ramp_s" in cfg:  # cold: the first requests also fill the caches
        phases.append(("ramp", rate, min(cfg["ramp_s"], 0.25 * seconds)))
    if not trace:
        share = 0.8 if "ramp_s" in cfg else 0.6
        phases.append(("fixed", rate, window_s(share, cfg["q"], rate,
                                               seconds)))
        return phases
    share = 0.25 if "ramp_s" in cfg else 0.2
    phases.append(("fixed", rate, window_s(share, cfg["q"], rate, seconds)))
    for i, rung_rate in enumerate(cfg["ladder"]):
        phases.append(("rung%d" % i, rung_rate,
                       window_s(0.04, cfg["q"], rung_rate, seconds)))
    return phases


def serve_common(kind, seed, seconds, trace):
    """Runs one serve workload; kind is 'warm' or 'cold'."""
    cfg = WARM if kind == "warm" else COLD
    dataset = cfg["dataset"]
    # The seed goes to every program as --seed (a spec seed of 0 would
    # mean "use the program's default").
    seed_args = ["--seed", str(seed)]
    daemon_args = [tool("dtrank_serve"), "--port", "0",
                   "--workers", str(cfg["workers"])] + seed_args
    if kind == "cold":
        db_path = RUN_DIR / "cold.dtc"
        run_step([tool("dtrank_cli"), "generate", "--dataset", dataset,
                  "--out", str(db_path)] + seed_args, "dtrank_cli generate")
        daemon_args += ["--db", str(db_path)]
        client_data = ["--db", str(db_path)]
    else:
        daemon_args += ["--dataset", dataset]
        client_data = ["--dataset", dataset]
    phases = serve_phases(cfg, seconds, trace)

    records_path = RUN_DIR / ("%s.bin" % kind)
    summary_path = RUN_DIR / ("%s.json" % kind)
    setups = []
    daemon = launch(daemon_args, setups)
    try:
        rss0 = daemon.status_kib("VmRSS")
        run_step([tool("pb_serve"), "--workload", kind,
                  "--port", str(daemon.port),
                  "--phases", ",".join("%s:%g:%g" % p for p in phases),
                  "--targets", str(cfg["targets"]),
                  "--methods", cfg["methods"],
                  "--check-every", str(cfg["check_every"]),
                  "--check-max", str(cfg["check_max"]),
                  "--records", str(records_path),
                  "--summary", str(summary_path),
                  "--trace", "1" if trace else "0"] + seed_args + client_data,
                 "pb_serve")
        hwm = daemon.status_kib("VmHWM")
    finally:
        daemon.stop()
    # Set-up is timed again after the load so that one host slowdown
    # does not decide the median.
    launch(daemon_args, setups).stop()

    summary = read_json(summary_path)
    by_phase = load_records(records_path)
    stats = {name: pbstats.summarize(by_phase.get(i, []), cfg["q"])
             for i, (name, _, _) in enumerate(phases)}
    fixed = stats["fixed"]
    fixed_recs = by_phase[[p[0] for p in phases].index("fixed")]
    ok_lat = sorted(r[2] for r in fixed_recs if r[3] == 0)
    mismatches = int(summary["mismatches"])
    malformed = sum(r[3] == pbstats.MALFORMED
                    for recs in by_phase.values() for r in recs)
    # The output check: every sampled response equals the in-process
    # replay and every OK response is a well-formed ranking. Shed or
    # lost requests are failures, not wrong outputs.
    correct = mismatches == 0 and malformed == 0 and summary["checked"] > 0

    report = ["%s: %s seed %d, %d workers, %d requests sent, %d responses "
              "replayed in-process (%d mismatches)"
              % (kind, dataset, seed, cfg["workers"], summary["requests"],
                 summary["checked"], mismatches)]
    report.append("  %-7s %8s %7s %7s %9s %9s %9s %9s  %s"
                  % ("phase", "rate", "sent", "fail", "p50 ms",
                     "tail ms", "late99 ms", "wall s", "verdict"))
    rungs = []
    for name, rate, _ in phases:
        s = stats[name]
        verdict = ""
        if name.startswith("rung"):
            passed, why = pbstats.rung_passes(s, cfg["slo_s"])
            rungs.append((rate, passed))
            verdict = "pass" if passed else "FAIL: " + "; ".join(why)
        report.append("  %-7s %8g %7d %7d %9.3f %9.3f %9.3f %9.3f  %s"
                      % (name, rate, s["sent"], s["failed"], s["p50_s"] * 1e3,
                         s["tail_s"] * 1e3, s["lateness_p99_s"] * 1e3,
                         s["wall_s"], verdict))
    report.append("  tail = p%g of the whole phase; SLO p%g <= %g ms, fail "
                  "share <= %g, lateness not growing"
                  % (cfg["q"] * 100, cfg["q"] * 100, cfg["slo_s"] * 1e3,
                     pbstats.MAX_FAIL_SHARE))

    def pct(q):
        """Percentile q of the fixed window's OK latencies, in ms; raises
        InsufficientSamples (no result) when the window is too short."""
        return pbstats.tail(ok_lat, q) * 1e3

    e2e, layers = {}, {}
    if not trace:
        e2e = {
            "setup_s": pbstats.statistics.median(setups),
            "wall_s": fixed["wall_s"],
            "latency_p50_ms": pct(0.5),
            "latency_p90_ms": pct(0.9),
            "peak_rss_mib": hwm / 1024.0,
        }
        report.append("  fixed window: %d ok samples (p90 needs >= %d, p99 "
                      ">= %d); setup launches: %s s"
                      % (len(ok_lat), pbstats.min_samples(0.9),
                         pbstats.min_samples(0.99),
                         ", ".join("%.4f" % s for s in setups)))
        if len(ok_lat) >= pbstats.min_samples(0.99):
            report.append("  p99 %.4f ms (reported, not a metric)" % pct(0.99))
    else:
        lay = summary["layers"]
        layers["trace.%s.latency_p50_ms" % kind] = pct(0.5)
        layers["serve.max_rps_at_slo." + kind] = pbstats.ladder_max(rungs)
        report.append("  max rate at SLO: %g rps" % pbstats.ladder_max(rungs))
        if kind == "warm":
            layers["serve.latency_p99_ms.warm"] = pct(0.99)
            layers.update(warm_layers(lay, fixed, report))
        else:
            sessions = min(summary["requests"], SESSION_CAPACITY)
            layers.update(cold_layers(lay, summary, hwm, rss0, sessions,
                                      report))
    attempted = fixed["sent"] + int(summary["checked"])
    failed = fixed["failed"] + mismatches
    context = {"host": summary["host"], "dataset": dataset, "seed": seed}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "e2e": e2e, "layers": layers, "report": report,
            "context": context}


def warm_layers(lay, fixed, report):
    scr = lay["scrape"]["fixed"]
    key = 'dtrank_serve_request_seconds_%s{endpoint="rank_mlp_t"}'
    count = scr.get(key % "count", 0.0)
    residence_ms = scr.get(key % "sum", 0.0) / count * 1e3 if count else 0.0
    batches = scr.get("dtrank_serve_batch_size_count", 0.0)
    batch_mean = (scr.get("dtrank_serve_batch_size_sum", 0.0) / batches
                  if batches else 0.0)
    by_size = {int(k): v for k, v in lay["batch_us_by_size"].items()}
    size = min(by_size, key=lambda b: abs(b - batch_mean))
    client_mean_ms = fixed["mean_s"] * 1e3
    lateness_ms = fixed["lateness_mean_s"] * 1e3
    per_request_us = (lay["serve.protocol.decode_us"] + lay["serve.coalescer.hold_us"]
                      + by_size[size] / size + lay["serve.protocol.encode_us"])
    out = {
        "serve.server.residence_mean_ms": residence_ms,
        "serve.coalescer.batch_size_mean": batch_mean,
        "serve.coalescer.shed": scr.get("dtrank_serve_shed_total", 0.0),
        "serve.coalescer.queue_depth_max":
            lay["serve.coalescer.queue_depth_max"],
        "serve.protocol.decode_us": lay["serve.protocol.decode_us"],
        "serve.protocol.encode_us": lay["serve.protocol.encode_us"],
        "serve.coalescer.hold_us": lay["serve.coalescer.hold_us"],
        "serve.transport_ping_ms": lay["serve.transport_ping_ms"],
        "serve.rank_engine.batch_us": by_size[size],
        "serve.network_mean_ms": client_mean_ms - residence_ms,
        "loadgen.lateness_p99_ms": fixed["lateness_p99_s"] * 1e3,
        "coverage.warm": (lateness_ms + residence_ms
                          + lay["serve.transport_ping_ms"]) / client_mean_ms
        if client_mean_ms else 0.0,
    }
    report += [
        "  layer (fixed window, means per request)   value",
        "  client latency (due -> response)       %9.4f ms" % client_mean_ms,
        "    loadgen lateness (due -> sent)       %9.4f ms" % lateness_ms,
        "    serve.server.residence_mean_ms       %9.4f ms  (scrape sum/count)"
        % residence_ms,
        "    serve.transport_ping_ms              %9.4f ms  (%d pings on the "
        "load connections)" % (out["serve.transport_ping_ms"],
                               lay["transport_pings"]),
        "    remainder                            %9.4f ms  (derived, not "
        "counted: the daemon's IO-thread hand-offs and the client's "
        "receiver wake-ups)"
        % (client_mean_ms - lateness_ms - residence_ms
           - out["serve.transport_ping_ms"]),
        "  serve.network_mean_ms (client mean - residence mean, derived) "
        "%.4f ms" % out["serve.network_mean_ms"],
        "  coverage of client latency: %.4f" % out["coverage.warm"],
        "  residence decomposition (in-process replay, per request):",
        "    serve.protocol.decode_us             %9.3f us"
        % out["serve.protocol.decode_us"],
        "    serve.coalescer.hold_us              %9.3f us  (lone keyed item)"
        % out["serve.coalescer.hold_us"],
        "    serve.rank_engine.batch_us / batch   %9.3f us  (batch of %d "
        "~ mean %.2f)" % (by_size[size] / size, size, batch_mean),
        "    serve.protocol.encode_us             %9.3f us"
        % out["serve.protocol.encode_us"],
        "    queue wait + response send           %9.3f us  (derived "
        "remainder, not counted)" % (residence_ms * 1e3 - per_request_us),
        "  coverage of residence: %.4f" % (per_request_us / 1e3 / residence_ms
                                          if residence_ms else 0.0),
        "  batch_us by size: " + ", ".join(
            "%d: %.1f" % (b, by_size[b]) for b in sorted(by_size)),
        "  shed %d, queue depth max (sampled every 50 ms) %d, generator "
        "lateness p99 %.3f ms" % (out["serve.coalescer.shed"],
                                  out["serve.coalescer.queue_depth_max"],
                                  out["loadgen.lateness_p99_ms"]),
    ]
    return out


def cold_layers(lay, summary, hwm, rss0, sessions, report):
    out = {
        "dataset.columnar_open_ms": lay["dataset.columnar_open_ms"],
        "dataset.select_machines_ms": lay["dataset.select_machines_ms"],
        "core.nnt_predict_ms": lay["core.nnt_predict_ms"],
        "core.loo_problem_ms": lay["core.loo_problem_ms"],
        "core.mlpt_fit_ms": lay["core.mlpt_fit_ms"],
        "core.mlpt_predict_ms": lay["core.mlpt_predict_ms"],
        "serve.rank_engine.cold_execute_ms.nn":
            lay["serve.rank_engine.cold_execute_ms.nn"],
        "serve.rank_engine.cold_execute_ms.mlp":
            lay["serve.rank_engine.cold_execute_ms.mlp"],
        "serve.rank_engine.rss_per_session_kib":
            max(0.0, hwm - rss0) / max(1, sessions),
        "experiments.model_cache_hit_ratio": summary["session_repeat_share"],
        "coverage.cold": min(lay["coverage.nn"], lay["coverage.mlp"]),
    }
    nn, mlp = out["serve.rank_engine.cold_execute_ms.nn"], \
        out["serve.rank_engine.cold_execute_ms.mlp"]
    sel = out["dataset.select_machines_ms"]
    report += [
        "  layer (in-process, fresh session per probe, medians of 6)   ms",
        "  dataset.columnar_open_ms (open + toDatabase)      %9.3f"
        % out["dataset.columnar_open_ms"],
        "  serve.rank_engine.cold_execute_ms.nn              %9.3f" % nn,
        "    dataset.select_machines_ms (universe + owned)   %9.3f" % sel,
        "    core.nnt_predict_ms                             %9.3f"
        % out["core.nnt_predict_ms"],
        "    remainder (derived, not counted: universe bookkeeping and "
        "the full sort in the private RankEngine::rankFrom)  %9.3f"
        % (nn - sel - out["core.nnt_predict_ms"]),
        "  serve.rank_engine.cold_execute_ms.mlp             %9.3f" % mlp,
        "    dataset.select_machines_ms                      %9.3f" % sel,
        "    core.loo_problem_ms (makeLeaveOneOutProblem)    %9.3f"
        % out["core.loo_problem_ms"],
        "    core.mlpt_fit_ms                                %9.3f"
        % out["core.mlpt_fit_ms"],
        "    core.mlpt_predict_ms                            %9.3f"
        % out["core.mlpt_predict_ms"],
        "    remainder (derived, not counted: the private "
        "RankEngine::gatherColumns and rankFrom)            %9.3f"
        % (mlp - sel - out["core.loo_problem_ms"] - out["core.mlpt_fit_ms"]
           - out["core.mlpt_predict_ms"]),
        "  coverage nn %.4f, mlp %.4f" % (lay["coverage.nn"],
                                          lay["coverage.mlp"]),
        "  rss per session %.1f KiB (daemon VmHWM - VmRSS at LISTENING, over "
        "%d cached sessions)" % (out["serve.rank_engine.rss_per_session_kib"],
                                 sessions),
        "  session-key repeat share %.6f (what any daemon cache could hit; "
        "must be ~0 for a cold workload)"
        % out["experiments.model_cache_hit_ratio"],
    ]
    return out


WORKLOADS = {
    "table2_offline": table2_offline,
    "serve_warm_mlp": lambda seed, s, t: serve_common("warm", seed, s, t),
    "serve_cold_20k": lambda seed, s, t: serve_common("cold", seed, s, t),
}


def traced_run(seed, seconds):
    """Every workload's traced pass, in WORKLOADS order and at the same
    --seconds whichever --workload was named. Each per-layer metric is
    taken from the pass of the workload that owns it, so a metric name
    always means the same measurement."""
    res = {"correct": True, "attempted": 0, "failed": 0, "layers": {},
           "report": [], "context": {"dataset": {}}}
    for name, fn in WORKLOADS.items():
        part = fn(seed, seconds, True)
        res["report"] += ["traced pass: " + name] + part["report"]
        res["correct"] = res["correct"] and part["correct"]
        res["attempted"] += part["attempted"]
        res["failed"] += part["failed"]
        for k, v in part["layers"].items():
            if LAYERS[k][1] != name:
                raise BenchError("%s measured %s, owned by %s"
                                 % (name, k, LAYERS[k][1]))
            res["layers"][k] = v
        res["context"]["host"] = part["context"]["host"]
        res["context"]["dataset"][name] = part["context"]["dataset"]
    return res


def seed_arg(text):
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("a seed is a whole number >= 0")
    return seed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=seed_arg, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an error, so every daemon started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        build()
        RUN_DIR.mkdir(parents=True, exist_ok=True)
        if args.trace:
            res = traced_run(args.seed, args.seconds)
            metrics = {k: {"value": res["layers"][k], "unit": LAYERS[k][0]}
                       for k in LAYERS}
        else:
            res = WORKLOADS[args.workload](args.seed, args.seconds, False)
            metrics = {k: {"value": res["e2e"][k], "unit": UNITS[k]}
                       for k in E2E}
    except (BenchError, subprocess.TimeoutExpired, KeyError,
            pbstats.InsufficientSamples) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2
    for line in res["report"]:
        log(line)
    ctx = dict(res["context"], workload=args.workload, seed=args.seed,
               seconds=args.seconds, trace=args.trace)
    log("# context " + json.dumps(ctx, sort_keys=True))
    log(json.dumps({"correct": bool(res["correct"]),
                    "attempted": int(res["attempted"]),
                    "failed": int(res["failed"]),
                    "metrics": metrics}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
