"""The benchmark's own arithmetic, kept free of I/O so tests can pin it.

Everything here is a pure function over the
raw samples the measurement engine returns: percentile ranks, geometric
means, the scaling of a timing to the reference host speed, and the diff
of two daemon STATS documents.
"""

import math

# Percentiles considered when reporting the tail of a timing, highest
# first. The reported tail is the highest one with at least MIN_BEYOND
# samples strictly beyond its rank.
TAIL_CANDIDATES = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least a
    fraction q of all samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 1:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def median(values):
    return percentile(values, 0.5)


def supported_tail(n):
    """Highest candidate percentile with at least MIN_BEYOND of n samples
    beyond its rank, or None when even the median lacks them."""
    for q in TAIL_CANDIDATES:
        if n - max(1, math.ceil(q * n - 1e-9)) >= MIN_BEYOND:
            return q
    return None


def summarize(values):
    """A timing as its median plus the highest supported tail, with the
    sample count: {"n", "p50", "tail_q", "tail"}."""
    q = supported_tail(len(values))
    return {
        "n": len(values),
        "p50": median(values),
        "tail_q": q,
        "tail": percentile(values, q) if q else None,
    }


def tail_metric(values, q=0.99):
    """The q-th percentile, or the highest supported one below it when
    there are too few samples (the summary line says which)."""
    supported = supported_tail(len(values))
    if supported is None:
        return percentile(values, 1.0)
    return percentile(values, min(q, supported))


def geomean(values):
    values = list(values)
    if not values:
        raise ValueError("geomean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def rate(values_ms):
    """Completed items per second from per-item busy times in ms."""
    total = sum(values_ms)
    return len(values_ms) * 1000.0 / total if total > 0 else 0.0


def to_reference(value, kind, calib_ms, reference_ms):
    """A timed-phase metric at the reference host speed: the host ran the
    calibration task in calib_ms, the reference host in reference_ms. A
    "time" shrinks on a slow host, a "rate" grows."""
    if calib_ms <= 0 or reference_ms <= 0:
        raise ValueError("calibration times must be positive")
    factor = reference_ms / calib_ms
    if kind == "time":
        return value * factor
    if kind == "rate":
        return value / factor
    raise ValueError(f"unknown kind {kind!r}")


def stats_diff(before, after):
    """after - before for every numeric leaf of two daemon STATS
    documents; lists are diffed elementwise (shards and histogram
    buckets), non-numeric leaves keep the after value."""
    if isinstance(after, bool) or not isinstance(after, (int, float, dict,
                                                         list)):
        return after
    if isinstance(after, dict):
        return {k: stats_diff(before.get(k) if isinstance(before, dict)
                              else None, v) for k, v in after.items()}
    if isinstance(after, list):
        prior = before if isinstance(before, list) else []
        return [stats_diff(prior[i] if i < len(prior) else None, v)
                for i, v in enumerate(after)]
    if isinstance(before, (int, float)) and not isinstance(before, bool):
        return after - before
    return after


def shard_sum(diff, *path):
    """Sum of one counter over every shard's metrics in a STATS diff."""
    total = 0
    for shard in diff["daemon"]["shards"]:
        node = shard["metrics"]
        for key in path:
            node = node[key]
        total += node
    return total


def hist_mean_ms(diff, name):
    """Mean of one service latency histogram over the diffed interval,
    pooled over shards, in ms (0 when it recorded nothing)."""
    count = shard_sum(diff, "latency", name, "count")
    sum_us = shard_sum(diff, "latency", name, "sum_us")
    return sum_us / count / 1000.0 if count else 0.0


def ratio(num, den):
    return num / den if den else 0.0
