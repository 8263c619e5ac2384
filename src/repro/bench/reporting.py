"""Plain-text tables for the benchmark harness.

Every experiment prints two things: the regenerated table/figure series
(same rows the paper reports) and, where the paper gives numbers, a
``paper vs measured`` comparison so EXPERIMENTS.md can be audited
against ``bench_output.txt`` directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

#: The canonical distribution summary order, shared by every consumer
#: (crash-sweep reports, shard benchmarks, the serving layer's
#: tail-latency tables) so tables line up.  ``p99`` is the serving
#: layer's headline tail metric.
DISTRIBUTION_KEYS = ("min", "p50", "mean", "p90", "p95", "p99", "max")

#: percentile value behind each ``pNN`` key (min/mean/max are computed
#: directly).
_PERCENTILES = {"p50": 50, "p90": 90, "p95": 95, "p99": 99}


def distribution_stats(values, unit: str = "us") -> Dict[str, float]:
    """Summary of a sample along :data:`DISTRIBUTION_KEYS`.

    Keys are suffixed with ``unit`` (``min_us``, ``p50_us``, ...);
    values are expected pre-scaled to that unit.  Returns ``{}`` for an
    empty sample.  This is the single percentile helper — the crash
    sweep's recovery-time report, the shard-scaling benchmark and the
    serve-workload latency report all route through it instead of
    hand-rolling ``np.percentile`` calls, and every consumer derives
    its column list from :data:`DISTRIBUTION_KEYS` so the two can never
    drift.
    """
    import numpy as np

    vals = np.asarray(list(values), dtype=np.float64)
    if vals.size == 0:
        return {}
    out: Dict[str, float] = {}
    for key in DISTRIBUTION_KEYS:
        if key == "min":
            val = float(vals.min())
        elif key == "mean":
            val = float(vals.mean())
        elif key == "max":
            val = float(vals.max())
        else:
            val = float(np.percentile(vals, _PERCENTILES[key]))
        out[f"{key}_{unit}"] = val
    return out


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence],
    floatfmt: str = "{:.2f}",
) -> str:
    srows: List[List[str]] = []
    for row in rows:
        srows.append(
            [floatfmt.format(c) if isinstance(c, float) else str(c) for c in row]
        )
    widths = [len(h) for h in headers]
    for row in srows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    out = [f"== {title} ==", " | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
    for row in srows:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def paper_vs_measured(
    title: str,
    rows: Iterable[Sequence],
    headers: Sequence[str] = ("metric", "paper", "measured", "ok?"),
) -> str:
    """Rows: (metric, paper_value, measured_value, predicate_result)."""
    formatted = []
    for metric, paper, measured, ok in rows:
        formatted.append(
            (
                metric,
                paper if isinstance(paper, str) else f"{paper:g}",
                measured if isinstance(measured, str) else f"{measured:.3g}",
                "yes" if ok else "NO",
            )
        )
    return format_table(f"{title} — paper vs measured", headers, formatted)


def ingest_phase_table(results: Iterable) -> str:
    """Per-phase wall-clock vs modeled time for ingest results.

    Rows come from ``InsertResult.counters`` (harness-populated): one
    row per (system, phase) with the measured Python wall-clock next to
    the modeled device time, so interpreter overhead is visible and
    comparable across batch sizes.
    """
    rows = []
    for r in results:
        c = getattr(r, "counters", {}) or {}
        batch = int(c.get("batch_size", 0)) or "-"
        for phase in ("warmup", "timed"):
            wall = c.get(f"{phase}_wall_s")
            modeled = c.get(f"{phase}_modeled_s")
            if wall is None:
                continue
            ratio = wall / modeled if modeled else 0.0
            rows.append((r.system, batch, phase, wall, modeled, ratio))
    return format_table(
        "ingest wall-clock vs modeled (per phase)",
        ["system", "batch", "phase", "wall (s)", "modeled (s)", "wall/modeled"],
        rows,
        floatfmt="{:.3f}",
    )


def loop_table(pair, title: str = "twin loop") -> str:
    """Summarize a :class:`~repro.bench.twin_loop.LoopPair`.

    Per-step mutation volume and analysis wall clock for both arms
    (kernel outputs, modeled times, per-step CSR bytes and mutation
    volumes are asserted identical before this table can exist), then
    the identity contract with the speedup, then the cached arm's
    counters.
    """
    cached, scratch = pair.cached, pair.scratch
    rows = [
        (s.step, s.added, s.churned, s.expired, "yes" if s.compacted else "",
         c, u, u / max(c, 1e-12))
        for s, c, u in zip(cached.steps, cached.step_wall(), scratch.step_wall())
    ]
    rows.append((
        "total",
        sum(s.added for s in cached.steps),
        sum(s.churned for s in cached.steps),
        sum(s.expired for s in cached.steps),
        str(cached.compactions),
        cached.analysis_wall_s, scratch.analysis_wall_s, pair.speedup,
    ))
    window = (
        "" if cached.window is None
        else f", window {cached.window}, compact at {cached.compact_threshold:g}"
    )
    head = format_table(
        f"{title} — {cached.dataset} (scale {cached.scale:g}, "
        f"{len(cached.steps)} steps{window}, kernels {','.join(cached.kernels)})",
        ["step", "added", "churned", "expired", "compact",
         "cached wall (s)", "scratch wall (s)", "speedup"],
        rows,
        floatfmt="{:.4f}",
    )
    identity = format_table(
        "loop identity (asserted) & speedup",
        ["metric", "value"],
        [
            ("kernel outputs identical (sha256)", "yes"),
            ("modeled seconds identical", "yes"),
            ("per-step CSR byte-identical", "yes"),
            ("per-step mutation volumes identical", "yes"),
            ("analysis wall speedup (cached)", f"{pair.speedup:.2f}x"),
        ],
    )
    counters = format_table(
        "counters (cached arm)",
        ["counter", "value"],
        sorted(cached.counters.items()),
    )
    return "\n\n".join((head, identity, counters))


def crash_sweep_table(report, title: str = "crash sweep") -> str:
    """Summarize a :class:`~repro.testing.SweepReport` (§4.4 robustness).

    One table: sweep coverage (events, points, exhaustive or sampled),
    oracle outcomes (in-flight ops that landed, reported-unrecoverable
    points under a poison policy), and the modeled recovery-time
    distribution across crash points.
    """
    pol = report.policy
    faults = ", ".join(
        s for s, on in (
            ("torn-stores", pol.torn_stores),
            ("persist-reorder", pol.persist_reorder),
            (f"poison={pol.poison_on_crash}", pol.poison_on_crash > 0),
            (f"transient={pol.transient_read_rate:g}", pol.transient_read_rate > 0),
        ) if on
    ) or "none (clean ADR)"
    rows = [
        ("persistence events", report.total_events),
        ("crash points swept", report.crash_points),
        ("coverage", "exhaustive" if report.exhaustive else "sampled"),
        ("fault policy", faults),
        ("in-flight op landed", report.in_flight_applied_count()),
        ("unrecoverable (reported)", report.unrecoverable_count()),
    ]
    stats = report.recovery_stats()
    for name in DISTRIBUTION_KEYS:
        key = f"{name}_us"
        if key in stats:
            rows.append((f"recovery {name} (us)", stats[key]))
    return format_table(title, ["metric", "value"], rows, floatfmt="{:.2f}")


def soak_table(report, title: str = "soak sweep") -> str:
    """Summarize a :class:`~repro.testing.SoakReport` (PR 7 robustness).

    Header rows give the run-level verdict — fault points survived,
    final health, damage accounting, and which oracle legs ran — then
    one row per round with that round's fault/repair activity.
    """
    pol = report.config.faults
    head = [
        ("ops applied / total", f"{report.ops_applied} / {report.ops_total}"),
        ("ops skipped (enumerated)", report.ops_skipped),
        ("fault points survived", report.fault_points),
        ("  transient (retried)", report.transient_faults),
        ("  hard poison", report.poison_events),
        ("quarantined ranges", report.quarantined),
        ("lost edges (enumerated)", report.lost_edges),
        ("final health", report.health.value),
        ("byte-identity checked", "yes" if report.byte_compared else "no (lossy divergence)"),
        ("fault policy", f"poison={pol.read_poison_rate:g} transient={pol.transient_read_rate:g} seed={pol.seed}"),
    ]
    out = [format_table(title, ["metric", "value"], head)]
    rows = [
        (
            r.round_index, r.ops_applied, r.scrub_steps,
            r.transient_faults, r.read_retries, r.poison_events,
            r.quarantined, r.lost_edges, r.health.value,
            r.analysis_result if r.analyzed else "-",
        )
        for r in report.rounds
    ]
    out.append(format_table(
        f"{title} — per round",
        ["round", "ops", "scrubs", "transient", "retries", "poison",
         "quarantined", "lost", "health", "edges seen"],
        rows,
    ))
    return "\n\n".join(out)


def race_check_table(report, title: str = "race check") -> str:
    """Summarize a :class:`~repro.testing.RaceCheckReport`.

    One row per scenario: how many schedules were driven, whether the
    schedule space was exhausted or sampled, how many interleaving
    decision points and protocol events those schedules covered, and
    the lock-discipline oracle's verdict (violations must be zero).
    """
    rows = [
        (
            s.name,
            s.schedules,
            "exhaustive" if s.exhaustive else "sampled",
            s.decision_points,
            s.events,
            s.violations,
            "ok" if s.ok else "FAIL",
        )
        for s in report.scenarios
    ]
    table = format_table(
        title,
        ["scenario", "schedules", "coverage", "decisions", "events", "violations", "verdict"],
        rows,
    )
    if report.failures:
        table += "\nfailures:\n" + "\n".join(
            f"  {f}" for f in report.failures[:10]
        )
    return table


def race_check_dry_table(counts, title: str = "race check (dry run)") -> str:
    """Per-scenario event counts from one default schedule each —
    the pre-flight view of how much interleaving surface a full
    exploration would cover (mirrors the crash sweep's dry run)."""
    kinds = sorted({k for c in counts.values() for k in c if k != "decision-points"})
    rows = [
        (name,)
        + tuple(c.get(k, 0) for k in kinds)
        + (c.get("decision-points", 0),)
        for name, c in counts.items()
    ]
    return format_table(title, ["scenario"] + kinds + ["decisions"], rows)


def profile_table(tracer, title: str = "profile") -> str:
    """Per-phase attribution table for a :class:`~repro.obs.Tracer`.

    One row per span name with *self* attribution (each span's counter
    delta minus its children's), plus an ``(untraced)`` row for device
    activity outside every root span and a ``total`` row from
    ``tracer.total_delta()``.  Self deltas partition the traced
    interval, so the modeled-ms column sums to the total row within
    float rounding and the integer columns sum exactly.
    """
    from ..obs import aggregate_phases

    rows_in, untraced = aggregate_phases(tracer)
    total = tracer.total_delta()
    total_ns = total.modeled_ns if total is not None else 0.0

    def fmt(name, count, modeled_ns, wall_ns, counters, wa):
        share = 100.0 * modeled_ns / total_ns if total_ns else 0.0
        return (
            name,
            count,
            modeled_ns * 1e-6,
            share,
            wall_ns * 1e-6,
            counters["stores"],
            counters["flushes"],
            counters["fences"],
            counters["media_bytes"] // 1024,
            wa,
        )

    rows = [
        fmt(r.name, r.count, r.modeled_ns, r.wall_ns, r.counters,
            r.write_amplification())
        for r in rows_in
    ]
    if untraced is not None:
        rows.append(fmt(
            untraced.name, "-", untraced.modeled_ns, untraced.wall_ns,
            untraced.counters, untraced.write_amplification(),
        ))
    if total is not None:
        rows.append(fmt(
            "total", "-", total.modeled_ns, 0,
            {k: getattr(total, k)
             for k in ("stores", "flushes", "fences", "media_bytes")},
            total.write_amplification(),
        ))
    return format_table(
        title,
        ["phase", "spans", "modeled (ms)", "%", "self wall (ms)",
         "stores", "flushes", "fences", "media (KiB)", "WA"],
        rows,
        floatfmt="{:.3f}",
    )


#: tables collected during a benchmark session; pytest's capture swallows
#: per-test stdout of passing tests, so the benchmarks' conftest flushes
#: this registry in ``pytest_terminal_summary`` — that is how every table
#: reaches the tee'd ``bench_output.txt``.
def serve_latency_table(report, title: str = "serve latency") -> str:
    """Summarize a :class:`~repro.serve.driver.ServeReport`.

    Two tables: run-level facts (mode, mix, view reuse, twin identity
    and read speedup when the twin ran), then the per-class modeled
    latency distribution along :data:`DISTRIBUTION_KEYS` — ``p99``
    included, since tail behavior (the refresh-triggering read after a
    write) is the point of the serving layer.
    """
    head = [
        ("ops (reads / writes)", f"{report.ops} ({report.reads} / {report.writes})"),
        ("load model", f"{report.mode} ({report.n_clients} clients)"),
        ("view refreshes / reuses", f"{report.refreshes} / {report.reuses}"),
        ("reuse ratio", report.reuse_ratio),
        ("makespan (modeled ms)", report.makespan_ns * 1e-6),
    ]
    if report.identity_checked:
        head += [
            ("twin byte-identical", "yes" if report.identity_ok else "NO"),
            ("read speedup vs per-query snapshots (modeled)", report.modeled_read_speedup),
            ("read speedup vs per-query snapshots (wall)", report.wall_read_speedup),
        ]
    out = [format_table(title, ["metric", "value"], head)]
    for arm in ("served", "snapshot"):
        stats = report.stats(arm)
        if not stats:
            continue
        rows = [
            [cls, len(report.latencies[cls]) if arm == "served"
             else len(report.snapshot_latencies[cls])]
            + [st.get(f"{k}_us", 0.0) for k in DISTRIBUTION_KEYS]
            for cls, st in stats.items()
        ]
        out.append(format_table(
            f"{title} — {arm} arm (modeled us per query)",
            ["class", "ops", *DISTRIBUTION_KEYS],
            rows,
        ))
    return "\n\n".join(out)


_REPORTS: List[str] = []


def emit(text: str) -> None:
    """Print a report block and queue it for the end-of-session summary."""
    print("\n" + text + "\n")
    _REPORTS.append(text)


def flush_reports() -> List[str]:
    out = list(_REPORTS)
    _REPORTS.clear()
    return out


__all__ = [
    "DISTRIBUTION_KEYS",
    "distribution_stats",
    "format_table",
    "paper_vs_measured",
    "ingest_phase_table",
    "loop_table",
    "crash_sweep_table",
    "serve_latency_table",
    "soak_table",
    "profile_table",
    "race_check_table",
    "race_check_dry_table",
    "emit",
    "flush_reports",
]
