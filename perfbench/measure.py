"""Metric table, statistics, host calibration and the modeled fingerprint.

``END_TO_END`` and ``PER_LAYER`` are the metrics the benchmark reports in
its final JSON line (``--trace 0`` and ``--trace 1`` respectively); they
must match ``BENCHMARK.json`` entry for entry, which
``test_perfbench.py`` checks.  Every one of them is reported on every
workload.  ``WORKLOAD_LAYER_METRICS`` lists the per-layer numbers that
exist on one workload only; traced runs print them and write them to
the output directory, but they are not part of the JSON line.

Each metric records the end-to-end metric and workload it should move
(``moves``), so later changes can cite them by name.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from typing import Dict, Iterable, List, Sequence

import numpy as np

clock = time.perf_counter

WORKLOADS = ("analyze", "churn-serve", "paper-compare")

#: (name, unit, better, bound, definition)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "median per trial of dataset generation, system build and prefill"),
    ("run_s", "s", "lower", 0.25,
     "wall time of the timed phase, correctness checks excluded: the sum over its "
     "rounds of each round's least time over the run's repeats"),
    ("ingest_eps", "1/s", "higher", 0.25,
     "edge mutations (inserts plus tombstones) per second of write-path calls, each "
     "call at its least time over the repeats"),
    ("recovery_s", "s", "lower", 0.25,
     "wall time of the open calls after power failures, each at its least time over "
     "the repeats: 8/16/32 crash/open cycles of the final graph on "
     "analyze/churn-serve/paper-compare"),
    ("request_p50_ms", "ms", "lower", 0.25,
     "median wall time per client request, each at its least time over the repeats: "
     "an analysis request on analyze, a served read on churn-serve, a slice into all "
     "systems on paper-compare"),
    ("request_tail_ms", "ms", "lower", 0.25,
     "request latency at the highest whole percentile with at least 10 of a trial's "
     "requests beyond it: p83 on analyze, p99 on churn-serve, p73 on paper-compare"),
    ("modeled_s", "s", "lower", 0.05,
     "deterministic: device clock plus kernel AnalysisClock plus served-read cost model"),
    ("write_amp", "ratio", "lower", 0.05,
     "deterministic: stored_bytes / payload_bytes of the devices from build to the end "
     "of the timed phase"),
    ("space_bytes_per_edge", "B", "lower", 0.1,
     "deterministic: pool allocator cursors divided by live edges"),
    ("peak_rss_mb", "MB", "lower", 0.2,
     "peak resident set size of the process through its first trial"),
)

#: (name, unit, better, moves)
PER_LAYER = (
    ("harness.host_calib_s", "s", "lower",
     "nothing: NumPy plus pure-Python microkernel, to compare hosts"),
    ("datasets.generate_s", "s", "lower", "setup_s on every workload"),
    ("pmem.stores", "count", "lower", "modeled_s and write_amp on analyze and churn-serve"),
    ("pmem.flushes", "count", "lower", "modeled_s and write_amp on analyze and churn-serve"),
    ("pmem.inplace_flushes", "count", "lower", "modeled_s on analyze and churn-serve"),
    ("pmem.fences", "count", "lower", "modeled_s on analyze and churn-serve"),
    ("pmem.media_bytes", "B", "lower", "modeled_s and write_amp on analyze and churn-serve"),
    ("pmem.modeled_ns", "ns", "lower", "modeled_s on analyze and churn-serve"),
    ("core.insert_s", "s", "lower", "ingest_eps on analyze and churn-serve"),
    ("core.open_s", "s", "lower", "recovery_s on every workload"),
    ("core.rebalances", "count", "lower", "ingest_eps and modeled_s on analyze"),
    ("core.host_ns_per_device_event", "ns", "lower", "ingest_eps on analyze and churn-serve"),
    ("obs.trace_overhead_frac", "ratio", "lower", "nothing: for information only"),
)

#: per-layer numbers that exist on one workload only: name -> moves.
WORKLOAD_LAYER_METRICS: Dict[str, Dict[str, str]] = {
    "analyze": {
        "core.resizes": "ingest_eps on analyze",
        "core.log_inserts": "write_amp on analyze",
        "pmem.modeled_ns.<bucket>": "modeled_s and write_amp on analyze",
        "analysis.materialize_s": "request_p50_ms on analyze",
        "analysis.full_rebuilds": "request_p50_ms on analyze",
        "analysis.incremental_builds": "request_p50_ms on analyze",
        "analysis.rows_reused_frac": "request_p50_ms on analyze",
        "analysis.delta_edges_merged": "request_p50_ms on analyze",
        "algorithms.pr_s": "request_tail_ms on analyze; run_s on paper-compare",
        "algorithms.bfs_s": "request_tail_ms on analyze",
        "algorithms.cc_s": "request_tail_ms on analyze",
        "algorithms.bc_s": "request_tail_ms on analyze",
        "algorithms.modeled_s": "modeled_s on analyze",
    },
    "churn-serve": {
        "serve.refresh_s": "request_tail_ms on churn-serve",
        "serve.reuse_us": "request_p50_ms on churn-serve",
        "serve.query_us.<class>": "request_p50_ms on churn-serve",
        "serve.reuse_ratio": "request_tail_ms on churn-serve",
        "serve.refresh_modeled_ns": "modeled_s on churn-serve",
        "temporal.advance_s": "ingest_eps on churn-serve",
        "temporal.self_s": "ingest_eps on churn-serve",
        "temporal.expired": "ingest_eps on churn-serve",
        "temporal.tombstone_density": "request_tail_ms on churn-serve",
        "sharding.insert_s": "ingest_eps on churn-serve",
        "sharding.route_self_s": "ingest_eps on churn-serve",
        "sharding.shard_edge_skew": "ingest_eps on churn-serve",
        "core.compact_s": "ingest_eps on churn-serve",
        "core.compactions": "space_bytes_per_edge on churn-serve",
        "pmem.modeled_ns.<bucket>": "modeled_s and write_amp on churn-serve",
    },
    "paper-compare": {
        "baselines.<system>.insert_s": "run_s on paper-compare",
        "baselines.<system>.modeled_s": "modeled_s on paper-compare",
        "baselines.<system>.write_amp": "write_amp on paper-compare",
        "baselines.<system>.stored_bytes_per_edge": "write_amp on paper-compare",
        "algorithms.pr_s": "run_s on paper-compare",
        "core.shift_inserts": "run_s on paper-compare",
    },
}



def tail_percentile(samples: int) -> int:
    """The highest whole percentile with at least 10 of ``samples`` beyond it."""
    return int(100 * (1 - 10 / samples))


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def percentile(values: Sequence[float], pct: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_calibration(repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of a fixed NumPy plus pure-Python kernel.

    Not gated: it puts numbers from different hosts side by side.
    """
    data = np.random.default_rng(12345).integers(0, 1 << 30, 1_000_000)
    best = float("inf")
    for _ in range(repeats):
        t0 = clock()
        np.sort(data)
        np.cumsum(data)
        np.bincount(data & 0xFFFF)
        acc = 0
        for i in range(300_000):
            acc += i & 7
        best = min(best, clock() - t0)
    return best


PMEM_FIELDS = (
    "stores", "stored_bytes", "payload_bytes", "flushes", "inplace_flushes",
    "fences", "media_bytes", "modeled_ns",
)


def snapshot_pools(pools) -> List:
    return [p.stats.snapshot() for p in pools]


def pmem_delta(pools, before) -> Dict[str, float]:
    """Summed ``PMemStats.delta_since`` over several pools, buckets included."""
    out: Dict[str, float] = {f: 0 for f in PMEM_FIELDS}
    buckets: Dict[str, float] = {}
    for pool, snap in zip(pools, before):
        d = pool.stats.delta_since(snap)
        for f in PMEM_FIELDS:
            out[f] += getattr(d, f)
        for k, v in d.buckets.items():
            buckets[k] = buckets.get(k, 0.0) + v
    out["buckets"] = buckets  # type: ignore[assignment]
    return out


def fingerprint(arrays: Sequence[np.ndarray], modeled_ns: float, pmem: Dict) -> str:
    """sha256 over the final CSR bytes, the modeled ns and the device counters."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    h.update(repr(float(modeled_ns)).encode())
    for f in PMEM_FIELDS:
        h.update(f"{f}={pmem[f]!r};".encode())
    for k in sorted(pmem["buckets"]):
        h.update(f"{k}={pmem['buckets'][k]!r};".encode())
    return h.hexdigest()
