"""Twin ingest→analyze loop: incremental views vs from-scratch, one driver.

The paper's analysis experiments build one final graph and run each
kernel once; real dynamic-graph deployments interleave mutation with
repeated analysis.  This driver replays that cadence — every step
mutates the graph, then the full kernel sweep runs — twice on identical
streams: once with the epoch-versioned view cache (whole-view reuse +
dirty-section patching, DESIGN.md §7) and once with from-scratch
materialization per trial.

The workload is picked by the stream passed in; the two differ only in
how one step mutates the graph:

* **insert-only** (Fig. 7 cadence) — a list of ``(N, 2)`` edge slices;
  each step is ``system.insert_edges(part, batch_size)`` + ``finalize()``;
* **windowed** — a list of :class:`~repro.datasets.temporal.TemporalStep`;
  each step is :meth:`~repro.temporal.TemporalWindowGraph.advance`
  (ingest a burst, churn deletes, expire the burst that left the window
  down the tombstone path, and compact when tombstone density crosses
  the threshold).

One identity contract is *asserted* on every pair, not just reported
(:func:`check_identity`): equal record and step counts, then every
kernel output byte-identical, every modeled kernel time exactly equal
(materialization is host work, never accounted on the simulated
device), every step's out- and in-CSR byte-identical and every step's
mutation volume equal.  The wall-clock ratio between the arms is the
headline ``benchmarks/test_analysis_loop.py`` and
``benchmarks/test_temporal_loop.py`` pin against their seed baselines;
``verify_view_counters`` proves *incrementality* itself with
deterministic counter checks rather than timing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..algorithms import KERNELS
from ..analysis.view import ID_DTYPE, INDPTR_DTYPE
from ..datasets import TemporalStep, get_dataset, get_temporal_dataset
from ..temporal import TemporalWindowGraph
from .harness import SOURCE_KERNELS, build_system

#: the full Table 1 sweep, run after every step.
DEFAULT_KERNELS: Tuple[str, ...] = ("pr", "cc", "bfs", "bc")
#: default geometry for the windowed benchmark.
DEFAULT_DATASET = "orkut-stream"
DEFAULT_WINDOW = 6
DEFAULT_COMPACT_THRESHOLD = 0.25


@dataclass
class KernelRecord:
    """One kernel trial inside the loop."""

    step: int
    kernel: str
    source: int  #: start vertex for bfs/bc trials; -1 for pr/cc
    digest: str  #: sha256 of the output array's bytes
    modeled_s: float  #: modeled seconds at 1 thread (device clock)
    wall_s: float  #: host wall time incl. view acquisition


@dataclass
class StepRecord:
    """One step of one arm: mutation volume and the resulting views."""

    step: int
    added: int
    churned: int
    expired: int
    compacted: bool
    csr_digest: str  #: sha256 over the normalized out+in CSR bytes


@dataclass
class LoopResult:
    """One arm (cached or scratch) of the loop."""

    dataset: str
    scale: float
    kernels: Tuple[str, ...]
    view_caching: bool
    window: Optional[int] = None  #: None for the insert-only workload
    compact_threshold: Optional[float] = None
    steps: List[StepRecord] = field(default_factory=list)
    records: List[KernelRecord] = field(default_factory=list)
    ingest_wall_s: float = 0.0
    analysis_wall_s: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def compactions(self) -> int:
        return sum(s.compacted for s in self.steps)

    def step_wall(self) -> List[float]:
        """Analysis wall seconds summed per step."""
        out = [0.0] * len(self.steps)
        for r in self.records:
            out[r.step] += r.wall_s
        return out


@dataclass
class LoopPair:
    """Cached vs scratch arms over the identical stream (verified)."""

    cached: LoopResult
    scratch: LoopResult

    @property
    def speedup(self) -> float:
        """Scratch / cached analysis wall time (the pinned headline)."""
        return self.scratch.analysis_wall_s / max(self.cached.analysis_wall_s, 1e-12)


def _csr_digest(view) -> str:
    """Dtype-normalized digest so both arms hash identical bytes."""
    out_ip, out_ds = view.out_csr()
    in_ip, in_srcs = view.in_csr()
    h = hashlib.sha256()
    for arr, dt in (
        (out_ip, INDPTR_DTYPE), (out_ds, ID_DTYPE),
        (in_ip, INDPTR_DTYPE), (in_srcs, ID_DTYPE),
    ):
        h.update(np.ascontiguousarray(arr, dtype=dt).tobytes())
    return h.hexdigest()


def _pick_sources(stream: Sequence, nv: int, sources: int) -> np.ndarray:
    """The ``sources`` highest add-degree vertices over the whole stream.

    Identical for both arms; a source currently outside a window is a
    legal trivial trial.
    """
    deg = np.zeros(nv, dtype=np.int64)
    for part in stream:
        adds = part.adds if isinstance(part, TemporalStep) else part
        deg += np.bincount(adds[:, 0], minlength=nv)
    return np.argsort(-deg, kind="stable")[:sources]


def run_loop(
    dataset: str,
    scale: float,
    stream: Sequence,
    nv: int,
    ne: int,
    kernels: Sequence[str] = DEFAULT_KERNELS,
    sources: int = 8,
    batch_size: Optional[int] = None,
    view_caching: bool = True,
    window: int = DEFAULT_WINDOW,
    compact_threshold: float = DEFAULT_COMPACT_THRESHOLD,
) -> LoopResult:
    """One arm: apply each step of ``stream``, then run the kernel sweep.

    PR and CC run once per step; the source kernels (BFS, BC) follow
    GAPBS's trial protocol and run once per :func:`_pick_sources` pick.
    Every trial acquires its own ``analysis_view()`` — with caching on,
    trials after a step's first hit the whole-view cache and the
    per-step rebuild pays only for the sections the step dirtied.
    ``window``/``compact_threshold`` apply to windowed streams only.
    """
    system = build_system("dgap", nv, ne)
    system.view_caching = view_caching
    result = LoopResult(dataset, scale, tuple(kernels), view_caching)
    wg = None
    if stream and isinstance(stream[0], TemporalStep):
        wg = TemporalWindowGraph(
            system.graph, window,
            compact_threshold=compact_threshold, batch_size=batch_size,
        )
        result.window, result.compact_threshold = window, compact_threshold
    source_list = _pick_sources(stream, nv, sources)

    for i, part in enumerate(stream):
        t0 = perf_counter()
        if wg is not None:
            st = wg.advance(part)
        else:
            system.insert_edges(part, batch_size=batch_size)
            system.finalize()
            st = {"added": len(part), "churn_deleted": 0, "expired": 0,
                  "compacted": False}
        result.ingest_wall_s += perf_counter() - t0
        view = None
        for kernel in kernels:
            fn = KERNELS[kernel]
            trials = source_list if kernel in SOURCE_KERNELS else [-1]
            for src in trials:
                t0 = perf_counter()
                view = system.analysis_view()
                view.reset_clock()
                out = fn(view, int(src)) if src >= 0 else fn(view)
                wall = perf_counter() - t0
                result.analysis_wall_s += wall
                result.records.append(KernelRecord(
                    step=i,
                    kernel=kernel,
                    source=int(src),
                    digest=hashlib.sha256(
                        np.ascontiguousarray(out).tobytes()
                    ).hexdigest(),
                    modeled_s=view.seconds(1),
                    wall_s=wall,
                ))
        result.steps.append(StepRecord(
            step=i,
            added=st["added"],
            churned=st["churn_deleted"],
            expired=st["expired"],
            compacted=st["compacted"],
            csr_digest=_csr_digest(view if view is not None
                                   else system.analysis_view()),
        ))
    if wg is not None:
        result.counters.update(wg.counters())
        result.counters["tombstone_pairs_compacted"] = (
            system.graph.tombstone_pairs_compacted
        )
    result.counters.update(system.view_counters())
    return result


def check_identity(cached: LoopResult, scratch: LoopResult) -> None:
    """Raise ``AssertionError`` unless the two arms are indistinguishable.

    Record and step counts must match first (a dropped record must not
    hide behind ``zip``); then kernel digests, modeled seconds, per-step
    CSR digests and per-step mutation volumes.
    """
    if len(cached.records) != len(scratch.records):
        raise AssertionError(
            f"arms ran different trial counts: "
            f"{len(cached.records)} != {len(scratch.records)}"
        )
    if len(cached.steps) != len(scratch.steps):
        raise AssertionError(
            f"arms ran different step counts: "
            f"{len(cached.steps)} != {len(scratch.steps)}"
        )
    for rc, rs in zip(cached.records, scratch.records):
        where = f"step {rc.step} kernel {rc.kernel} source {rc.source}"
        if rc.digest != rs.digest:
            raise AssertionError(
                f"cached kernel output diverged from scratch at {where}: "
                f"{rc.digest[:12]} != {rs.digest[:12]}"
            )
        if rc.modeled_s != rs.modeled_s:
            raise AssertionError(
                f"cached modeled time diverged at {where}: "
                f"{rc.modeled_s!r} != {rs.modeled_s!r}"
            )
    for sc, ss in zip(cached.steps, scratch.steps):
        if sc.csr_digest != ss.csr_digest:
            raise AssertionError(
                f"cached CSR diverged from scratch at step {sc.step}: "
                f"{sc.csr_digest[:12]} != {ss.csr_digest[:12]}"
            )
        if (sc.added, sc.churned, sc.expired, sc.compacted) != (
            ss.added, ss.churned, ss.expired, ss.compacted
        ):
            raise AssertionError(
                f"arms applied different mutations at step {sc.step}"
            )


def run_loop_pair(
    dataset: str, scale: float, stream: Sequence, nv: int, ne: int, **kwargs
) -> LoopPair:
    """Run both arms of :func:`run_loop` and assert :func:`check_identity`."""
    cached = run_loop(dataset, scale, stream, nv, ne, view_caching=True, **kwargs)
    scratch = run_loop(dataset, scale, stream, nv, ne, view_caching=False, **kwargs)
    check_identity(cached, scratch)
    return LoopPair(cached=cached, scratch=scratch)


def run_analysis_loop_pair(
    dataset: str = "orkut",
    scale: float = 0.25,
    rounds: int = 10,
    kernels: Sequence[str] = DEFAULT_KERNELS,
    sources: int = 16,
    batch_size: Optional[int] = None,
) -> LoopPair:
    """Insert-only twin: the shuffled stream in ``rounds`` equal slices."""
    spec = get_dataset(dataset)
    edges = spec.generate(scale)
    nv, _ = spec.sizes(scale)
    return run_loop_pair(
        dataset, scale, np.array_split(edges, rounds), nv, edges.shape[0],
        kernels=kernels, sources=sources, batch_size=batch_size,
    )


def run_temporal_loop_pair(
    dataset: str = DEFAULT_DATASET,
    scale: float = 1.0,
    window: int = DEFAULT_WINDOW,
    compact_threshold: float = DEFAULT_COMPACT_THRESHOLD,
    kernels: Sequence[str] = DEFAULT_KERNELS,
    sources: int = 8,
    batch_size: Optional[int] = None,
    max_steps: Optional[int] = None,
) -> LoopPair:
    """Windowed twin: the seeded temporal stream, first ``max_steps`` steps."""
    spec = get_temporal_dataset(dataset)
    nv, ne = spec.sizes(scale)
    return run_loop_pair(
        dataset, scale, spec.generate(scale)[:max_steps], nv, ne,
        kernels=kernels, sources=sources, batch_size=batch_size,
        window=window, compact_threshold=compact_threshold,
    )


# ----------------------------------------------------------------------
# counter-based incrementality proof (deterministic; no wall clocks)
# ----------------------------------------------------------------------

def verify_view_counters(
    dataset: str = "orkut",
    scale: float = 0.25,
    touch_vertex: int = 3,
    touch_edges: int = 5,
) -> List[Tuple[str, bool, str]]:
    """Deterministic checks that the cache is actually incremental.

    Returns ``(check, ok, detail)`` rows:

    1. an unchanged graph costs a whole-view hit — zero sections rebuilt;
    2. a small batch localized to one source vertex triggers an
       *incremental* build touching a strict subset of sections;
    3. the incremental view is element-identical to a from-scratch
       rebuild of the same snapshot.
    """
    from ..analysis.view import build_in_csr

    spec = get_dataset(dataset)
    edges = spec.generate(scale)
    nv, _ = spec.sizes(scale)
    system = build_system("dgap", nv, edges.shape[0])
    system.insert_edges(edges)
    system.finalize()
    system.analysis_view()
    c0 = system.view_counters()

    checks: List[Tuple[str, bool, str]] = []

    # 1. unchanged graph: whole-view hit, no sections touched
    system.analysis_view()
    c1 = system.view_counters()
    checks.append((
        "unchanged graph -> whole-view hit",
        c1["whole_view_hits"] == c0["whole_view_hits"] + 1
        and c1["view_builds"] == c0["view_builds"],
        f"hits {c0['whole_view_hits']} -> {c1['whole_view_hits']}",
    ))
    checks.append((
        "unchanged graph -> zero sections rebuilt",
        c1["sections_rebuilt"] == c0["sections_rebuilt"],
        f"sections_rebuilt stayed {c1['sections_rebuilt']}",
    ))

    # 2. a localized batch: incremental build over a strict section subset
    dsts = (touch_vertex + 1 + np.arange(touch_edges)) % nv
    batch = np.stack(
        [np.full(touch_edges, touch_vertex, dtype=edges.dtype), dsts.astype(edges.dtype)],
        axis=1,
    )
    system.insert_edges(batch)
    system.finalize()
    view = system.analysis_view()
    c2 = system.view_counters()
    d_secs = c2["sections_rebuilt"] - c1["sections_rebuilt"]
    checks.append((
        "localized batch -> incremental build",
        c2["incremental_builds"] == c1["incremental_builds"] + 1
        and c2["full_rebuilds"] == c1["full_rebuilds"],
        f"incremental_builds {c1['incremental_builds']} -> {c2['incremental_builds']}",
    ))
    checks.append((
        "localized batch -> strict section subset rebuilt",
        0 < d_secs < c2["sections_total"],
        f"{d_secs} of {c2['sections_total']} sections",
    ))
    checks.append((
        "rows reused from previous materialization",
        c2["rows_reused"] - c1["rows_reused"]
        > c2["vertices_rebuilt"] - c1["vertices_rebuilt"],
        f"reused {c2['rows_reused'] - c1['rows_reused']}, "
        f"rebuilt {c2['vertices_rebuilt'] - c1['vertices_rebuilt']}",
    ))

    # 3. element-identity of the incremental view vs a scratch rebuild
    with system.graph.consistent_view() as snap:
        ref_indptr, ref_dsts = snap.to_csr()
    out_indptr, out_dsts = view.out_csr()
    in_indptr, in_srcs = view.in_csr()
    ref_in_indptr, ref_in_srcs = build_in_csr(
        np.asarray(ref_indptr), np.asarray(ref_dsts), nv
    )
    ok = (
        np.array_equal(out_indptr, np.asarray(ref_indptr))
        and np.array_equal(out_dsts, np.asarray(ref_dsts))
        and np.array_equal(in_indptr, ref_in_indptr)
        and np.array_equal(in_srcs, ref_in_srcs)
    )
    checks.append((
        "incremental view element-identical to scratch rebuild",
        ok,
        f"{int(out_indptr[-1])} edges compared",
    ))
    return checks


__all__ = [
    "DEFAULT_COMPACT_THRESHOLD",
    "DEFAULT_DATASET",
    "DEFAULT_KERNELS",
    "DEFAULT_WINDOW",
    "KernelRecord",
    "LoopPair",
    "LoopResult",
    "StepRecord",
    "check_identity",
    "run_analysis_loop_pair",
    "run_loop",
    "run_loop_pair",
    "run_temporal_loop_pair",
    "verify_view_counters",
]
