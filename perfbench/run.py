"""DGAP benchmark: one workload, repeated trials, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 40 --trace 0

Trials repeat the inputs of ``--seed`` for ``--seconds`` (at least
``MIN_TRIALS`` of them); every repeat must give the first one's
fingerprint, and each timed call counts at its least time over them.
``--trace 0`` reports the end-to-end metrics of ``measure.END_TO_END``.
``--trace 1`` alternates untraced and traced trials and reports the
per-layer metrics of ``measure.PER_LAYER``; it also prints the
workload's own layer numbers and writes the spans and those numbers to
``perfbench/out/``.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
MIN_TRIALS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` on the path; fail if the program is absent."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program at {src}/repro; run from the root of a checkout")
    sys.path.insert(0, src)
    import workloads

    return workloads


def input_seed(seed: int) -> int:
    """The dataset seed of ``--seed``: nearby seeds give unrelated inputs."""
    import numpy as np

    return int(np.random.SeedSequence(seed).generate_state(1)[0])


def run_trials(trial_fn, seed: int, seconds: float, trace: bool):
    """Trials on the inputs of ``seed`` for ``seconds``: none is started
    that would end past them, going by the longest so far, once
    ``MIN_TRIALS`` have run."""
    from layers import SpanLog
    from measure import clock, peak_rss_mb

    deadline = clock() + seconds
    trials, errors, rss_mb, longest = [], [], 0.0, 0.0
    while len(trials) < MIN_TRIALS or clock() + longest <= deadline:
        traced = trace and len(trials) % 2 == 1
        start = clock()
        gc.collect()  # drop the previous trial's graphs before timing the next
        try:
            t = trial_fn(input_seed(seed), SpanLog() if traced else None)
        except Exception:  # a failed operation: report it and stop
            errors.append(traceback.format_exc())
            break
        trials.append((traced, t))
        longest = max(longest, clock() - start)
        if len(trials) == 1:
            # Later trials reuse heap the allocator kept from earlier ones,
            # so the peak after them depends on how many ran and in which
            # order they freed; after the first trial it does not.
            rss_mb = peak_rss_mb()
    return trials, errors, rss_mb


TIMED = ("laps", "writes", "reopens", "requests")


def repeats_agree(a, b) -> bool:
    """Did two trials on one input give the same result, call for call?"""
    return a.fingerprint == b.fingerprint and all(
        len(getattr(a, k)) == len(getattr(b, k)) for k in TIMED)


def fastest(trials, timed: str):
    """Each timed call's least wall time over repeats of the same input.

    On a shared host the same call can take up to 1.8x longer from one
    moment to the next, so a call's wall time is its cost plus the
    interference it met.  The least of several repeats of the call met
    the least interference; a change to the program moves it, the
    neighbours' load much less.
    """
    import numpy as np

    return np.min([getattr(t, timed) for t in trials], axis=0)


def end_to_end(trials, rss_mb: float) -> dict:
    """Wall metrics from each timed call's least wall time over the
    repeats, except ``setup_s``, the median of the repeats' set-ups.
    Deterministic metrics come from the first trial."""
    import measure as M

    requests = fastest(trials, "requests")
    tail = M.tail_percentile(len(requests))
    first = trials[0]
    values = {
        "setup_s": M.median(t.setup_s for t in trials),
        "run_s": float(fastest(trials, "laps").sum()),
        "ingest_eps": first.mutations / float(fastest(trials, "writes").sum()),
        "recovery_s": float(fastest(trials, "reopens").sum()),
        "request_p50_ms": M.percentile(requests, 50) * 1e3,
        "request_tail_ms": M.percentile(requests, tail) * 1e3,
        "modeled_s": first.modeled_ns * 1e-9,
        "write_amp": first.write_amp,
        "space_bytes_per_edge": first.space_bytes / first.live_edges,
        "peak_rss_mb": rss_mb,
    }
    print(f"requests: {len(requests)} per trial, each the least of {len(trials)} repeats; "
          f"tail = p{tail} with {int(len(requests) * (100 - tail) / 100)} samples beyond it")
    return {name: (values[name], unit) for name, unit, *_ in M.END_TO_END}


def layer_values(workload: str, t) -> dict:
    """Every per-layer number of one traced trial: universal ones first."""
    s = t.spans.summary()
    p = t.pmem
    v = {
        "datasets.generate_s": t.generate_s,
        "pmem.stores": p["stores"],
        "pmem.flushes": p["flushes"],
        "pmem.inplace_flushes": p["inplace_flushes"],
        "pmem.fences": p["fences"],
        "pmem.media_bytes": p["media_bytes"],
        "pmem.modeled_ns": p["modeled_ns"],
        "core.insert_s": s.total("core.insert_edges"),
        "core.open_s": s.total("core.open"),
        "core.rebalances": t.core["rebalances"],
        "core.host_ns_per_device_event": s.total("core.insert_edges") * 1e9 / t.core_events,
        "obs.spans": len(s.tree),
        "core.resizes": t.core["resizes"],
        "core.shift_inserts": t.core["shift_inserts"],
        "core.log_inserts": t.core["log_inserts"],
    }
    v.update(t.extra)
    for bucket, ns in sorted(p["buckets"].items()):
        v[f"pmem.modeled_ns.{bucket}"] = ns
    if workload == "analyze":
        v["analysis.materialize_s"] = s.total("analysis.view")
        built = v["analysis.rows_reused"] + v["analysis.vertices_rebuilt"]
        v["analysis.rows_reused_frac"] = v["analysis.rows_reused"] / max(1, built)
        for k in ("pr", "bfs", "cc", "bc"):
            v[f"algorithms.{k}_s"] = s.median(f"algorithms.{k}")
    elif workload == "churn-serve":
        v["serve.refresh_s"] = s.median("serve.refresh")
        v["serve.refreshes"] = s.count("serve.refresh")
        v["serve.reuse_us"] = s.median("serve.reuse") * 1e6
        for name in sorted(s.durations):
            if name.startswith("serve.query."):
                v[f"serve.query_us.{name[len('serve.query.'):]}"] = s.median(name) * 1e6
        v["temporal.advance_s"] = s.total("temporal.advance")
        v["temporal.self_s"] = s.self_time["temporal.advance"]
        v["sharding.insert_s"] = s.total("sharding.insert_edges")
        v["sharding.route_self_s"] = s.self_time["sharding.insert_edges"]
        v["core.compact_s"] = s.total("core.compact")
    elif workload == "paper-compare":
        from workloads import COMPARE_SYSTEMS

        for name in COMPARE_SYSTEMS:
            v[f"baselines.{name}.insert_s"] = s.total(f"baselines.{name}.insert")
        v["algorithms.pr_s"] = s.median("algorithms.pr")
    return v


def per_layer(workload: str, trials, calib_s: float, seed: int) -> dict:
    import measure as M

    traced = [t for tr, t in trials if tr]
    plain = [t for tr, t in trials if not tr]
    rows = [layer_values(workload, t) for t in traced]
    merged = {k: M.median(r[k] for r in rows) for k in rows[0]}
    merged["harness.host_calib_s"] = calib_s
    merged["obs.trace_overhead_frac"] = (
        fastest(traced, "laps").sum() / fastest(plain, "laps").sum() - 1.0
    )
    units = {name: unit for name, unit, *_ in M.PER_LAYER}
    print(f"per-layer numbers of {workload} (median of {len(traced)} traced trials):")
    for k in sorted(merged):
        print(f"  {k:44s} {merged[k]:.6g}{'' if k in units else '   (not in BENCHMARK.json)'}")
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}")
    with open(stem + ".spans.json", "w") as f:
        json.dump([[[n, a, b, parent] for n, a, b, parent in t.spans.tree()] for t in traced], f)
    with open(stem + ".layers.json", "w") as f:
        json.dump(merged, f, indent=1, sort_keys=True)
    return {name: (merged[name], unit) for name, unit, *_ in M.PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    import measure as M

    if args.workload not in workloads.TRIALS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {M.WORKLOADS}")
    calib_s = M.host_calibration()
    trials, errors, rss_mb = run_trials(workloads.TRIALS[args.workload], args.seed,
                                        args.seconds, bool(args.trace))
    for e in errors:
        print(e, file=sys.stderr)
    done = [t for _, t in trials]
    attempted = sum(t.attempted for t in done) + len(errors)
    failed = sum(t.failed for t in done) + len(errors)
    for t in done:
        for problem in t.problems:
            print(f"check failed: {problem}", file=sys.stderr)
    if len(done) < MIN_TRIALS:
        return 1
    for i, t in enumerate(done[1:], 1):  # one check per repeat
        attempted += 1
        if not repeats_agree(done[0], t):
            failed += 1
            print(f"check failed: trial {i} differs from trial 0 on the same input",
                  file=sys.stderr)
    trials = [(tr, t) for tr, t in trials if repeats_agree(done[0], t)]
    print(f"workload {args.workload} seed {args.seed}: {len(done)} trials, "
          f"host calibration {calib_s:.4f} s")
    print("fingerprint", done[0].fingerprint)
    if args.trace:
        metrics = per_layer(args.workload, trials, calib_s, args.seed)
    else:
        metrics = end_to_end([t for _, t in trials], rss_mb)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
