"""Statistics rules of the dtrank benchmark.

Pure functions, unit-tested by perfbench/test_perfbench.py:

* the percentile rule: a tail percentile is only reported when at
  least ten samples lie beyond it, so p99 needs >= 1000 samples and
  p90 >= 100;
* the SLO ladder: a rung passes when its tail latency meets the SLO,
  its fail share is at most 0.001 and the generator's lateness does not
  grow across the rung (a growing lateness means the generator, not the
  daemon, fell behind, so the rung proves nothing);
* lateness accounting: how late each request left the generator
  relative to its due time;
* spreads and the agreement check between two sets of runs.
"""

import math
import statistics

# Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10
# A rung's lateness grows when its last quarter is this much later
# (median) than its first quarter.
BACKLOG_GROWTH_S = 0.001
MAX_FAIL_SHARE = 0.001
# Record status of an OK response whose ranking was malformed.
MALFORMED = 4


class InsufficientSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def nearest_rank(sorted_values, q):
    """The ceil(q*N)-th smallest value of an ascending list."""
    if not sorted_values:
        raise InsufficientSamples("no samples")
    rank = math.ceil(q * len(sorted_values))
    return sorted_values[min(len(sorted_values) - 1, max(rank, 1) - 1)]


def min_samples(q, beyond=TAIL_SAMPLES):
    """Fewest samples for which percentile q is reportable."""
    return math.ceil(beyond / (1.0 - q) - 1e-9)


def tail(sorted_values, q):
    """Percentile q under the rule; raises InsufficientSamples otherwise.

    The median is exempt: it needs only one sample on each side.
    """
    n = len(sorted_values)
    if q > 0.5 and n < min_samples(q):
        raise InsufficientSamples(
            "p%g needs >= %d samples, have %d" % (q * 100, min_samples(q), n))
    return nearest_rank(sorted_values, q)


def lateness_growing(dues, lateness, growth_s=BACKLOG_GROWTH_S):
    """True when the generator falls further behind across a window.

    Compares the median lateness of the last quarter of requests (by due
    time) with that of the first quarter.
    """
    pairs = sorted(zip(dues, lateness))
    n = len(pairs)
    if n < 8:
        return False
    quarter = n // 4
    first = statistics.median(l for _, l in pairs[:quarter])
    last = statistics.median(l for _, l in pairs[-quarter:])
    return last - first > growth_s


def summarize(records, q_tail):
    """Latency summary of one phase.

    records: list of (due_s, lateness_s, latency_s, status); status 0 is
    an OK response, anything else a failure (error, overloaded, lost,
    malformed).
    """
    sent = len(records)
    ok = sorted(r[2] for r in records if r[3] == 0)
    failed = sent - len(ok)
    lateness = sorted(r[1] for r in records if r[1] >= 0)
    out = {
        "sent": sent,
        "ok": len(ok),
        "failed": failed,
        "fail_share": failed / sent if sent else 1.0,
        "p50_s": nearest_rank(ok, 0.5) if ok else float("inf"),
        "mean_s": statistics.fmean(ok) if ok else float("inf"),
        "lateness_p99_s": nearest_rank(lateness, 0.99) if lateness else 0.0,
        "lateness_mean_s": statistics.fmean(lateness) if lateness else 0.0,
        "backlog": lateness_growing([r[0] for r in records],
                                    [r[1] for r in records]),
    }
    try:
        out["tail_s"] = tail(ok, q_tail)
    except InsufficientSamples:
        out["tail_s"] = float("inf")
    ends = [r[0] + r[2] for r in records if r[2] >= 0]
    out["wall_s"] = max(ends) if ends else float("inf")
    return out


def rung_passes(summary, slo_s):
    """Whether one ladder rung meets the SLO, with the reasons it fails."""
    reasons = []
    if summary["tail_s"] > slo_s:
        reasons.append("tail %.3f ms > %.3f ms"
                       % (summary["tail_s"] * 1e3, slo_s * 1e3))
    if summary["fail_share"] > MAX_FAIL_SHARE:
        reasons.append("fail share %.4f" % summary["fail_share"])
    if summary["backlog"]:
        reasons.append("generator lateness grows")
    return not reasons, reasons


def ladder_max(rungs):
    """Highest passing rate of [(rate, passed), ...]; 0 when none pass."""
    passing = [rate for rate, passed in rungs if passed]
    return max(passing) if passing else 0.0


def spread(values):
    """Interquartile range over median (statistics.quantiles, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3}


HOST_KEYS = ("nproc", "cpu_model", "simd_tier", "compiler", "build_type")


def host_key(context):
    return tuple(context.get("host", {}).get(k) for k in HOST_KEYS)


def worse_share(old, new, better):
    """How much worse `new` is than `old`, as a share of `old`."""
    if old == 0:
        return 0.0 if new == old else float("inf")
    delta = (new - old) / abs(old)
    return delta if better == "lower" else -delta


def agreement(set_a, set_b, metrics):
    """Compares two proof sets (see prove.py) metric by metric.

    Refuses (raises ValueError) when the sets come from different hosts
    or SIMD tiers. Returns [(workload, metric, worse_share, bound, ok)].
    """
    if host_key(set_a) != host_key(set_b):
        raise ValueError("refusing to compare runs from different hosts or "
                         "tiers: %s vs %s" % (host_key(set_a),
                                              host_key(set_b)))
    rows = []
    for workload, per_metric in set_a["workloads"].items():
        other = set_b["workloads"].get(workload)
        if other is None:
            continue
        for m in metrics:
            name = m["name"]
            if name not in per_metric or name not in other:
                continue
            share = worse_share(per_metric[name]["median"],
                                other[name]["median"], m["better"])
            rows.append((workload, name, share, m["bound"],
                         share <= m["bound"]))
    return rows
