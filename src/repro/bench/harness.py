"""Experiment harness: build systems, ingest streams, run kernels.

One place owns the paper's protocol (§4.1):

* every system is initialized with the dataset's true size (the paper's
  ``INIT_*_SIZE`` estimations);
* the first 10% of the shuffled stream warms the system; counters are
  checkpointed; the remaining 90% is the timed window;
* analysis runs on the system's own view of the final graph.

Built systems are cached per (system, dataset, scale) so the analysis
experiments (Fig. 7/8, Table 4) reuse one ingest per system instead of
re-inserting for every kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Optional, Tuple

import numpy as np

from ..algorithms import KERNELS
from ..analysis.view import BaseGraphView
from ..baselines import SYSTEMS, DynamicGraphSystem, InsertProfile, StaticCSR
from ..config import DGAPConfig
from ..core.batch import DEFAULT_BATCH_SIZE
from ..datasets import DatasetSpec, env_scale, get_dataset

#: kernel -> does it take a source vertex (Table 1)
SOURCE_KERNELS = {"bfs", "bc"}

#: the compared systems, in the paper's table/figure column order
SYSTEM_ORDER = ("dgap", "bal", "llama", "graphone", "xpgraph")


@dataclass
class InsertResult:
    """Outcome of one timed ingest window (post-warm-up)."""

    system: str
    dataset: str
    edges_timed: int
    profile: InsertProfile
    wall_s: float
    write_amplification: float
    counters: Dict[str, float] = field(default_factory=dict)

    def meps(self, threads: int = 1) -> float:
        return self.profile.meps(threads)


def build_system(
    name: str,
    num_vertices: int,
    num_edges: int,
    **kwargs,
) -> DynamicGraphSystem:
    """Instantiate one compared system sized for the dataset."""
    if name == "dgap":
        cfg = kwargs.pop("config", None) or DGAPConfig(
            init_vertices=num_vertices, init_edges=num_edges, **kwargs
        )
        return SYSTEMS["dgap"](num_vertices, num_edges, config=cfg)
    return SYSTEMS[name](num_vertices, num_edges, **kwargs)


def ingest(
    system: DynamicGraphSystem,
    spec: DatasetSpec,
    edges: np.ndarray,
    batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
) -> InsertResult:
    """The paper's ingest protocol: 10% warm-up, then the timed window.

    Edges flow through :meth:`DynamicGraphSystem.insert_edges` as
    ``(N, 2)`` arrays split into ``batch_size`` sub-batches (None = one
    batch; 1 = the historical per-edge path).  Per-phase wall-clock and
    modeled time land in ``InsertResult.counters`` so reports can show
    interpreter overhead separately from the modeled device time.
    """
    warm, timed = spec.split_warmup(edges)
    w0 = perf_counter()
    system.insert_edges(warm, batch_size=batch_size)
    warm_wall = perf_counter() - w0
    cp = system.checkpoint()
    stats_before = [d.stats.snapshot() for d in system._devices()]
    t0 = perf_counter()
    system.insert_edges(timed, batch_size=batch_size)
    system.finalize()
    wall = perf_counter() - t0
    profile = system.insert_profile(since=cp, edges=timed.shape[0])
    stored = payload = 0
    for dev, before in zip(system._devices(), stats_before):
        d = dev.stats.delta_since(before)
        stored += d.stored_bytes
        payload += d.payload_bytes
    wa = stored / payload if payload else 0.0
    return InsertResult(
        system=system.name,
        dataset=spec.name,
        edges_timed=int(timed.shape[0]),
        profile=profile,
        wall_s=wall,
        write_amplification=wa,
        counters={
            "batch_size": float(batch_size or 0),
            "warmup_wall_s": warm_wall,
            "warmup_modeled_s": cp.ns * 1e-9,
            "timed_wall_s": wall,
            "timed_modeled_s": profile.modeled_ns * 1e-9,
        },
    )


def run_kernel(
    view: BaseGraphView,
    kernel: str,
    source: int = 0,
    threads: Tuple[int, ...] = (1, 16),
) -> Dict[int, float]:
    """Run one kernel on a view; modeled seconds per thread count."""
    view.reset_clock()
    fn = KERNELS[kernel]
    if kernel in SOURCE_KERNELS:
        fn(view, source)
    else:
        fn(view)
    return {p: view.seconds(p) for p in threads}


# ----------------------------------------------------------------------
# built-system cache (one ingest per system+dataset for all kernels)
# ----------------------------------------------------------------------
_CACHE: Dict[Tuple, Tuple[DynamicGraphSystem, InsertResult]] = {}


def get_built_system(
    name: str,
    dataset: str,
    scale: Optional[float] = None,
    batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
    **kwargs,
) -> Tuple[DynamicGraphSystem, InsertResult]:
    scale = env_scale() if scale is None else scale
    key = (name, dataset, scale, batch_size, tuple(sorted(kwargs.items())))
    if key not in _CACHE:
        spec = get_dataset(dataset)
        edges = spec.generate(scale)
        nv, _ = spec.sizes(scale)
        system = build_system(name, nv, edges.shape[0], **kwargs)
        _CACHE[key] = (system, ingest(system, spec, edges, batch_size=batch_size))
    return _CACHE[key]


def get_static_csr(dataset: str, scale: Optional[float] = None) -> StaticCSR:
    scale = env_scale() if scale is None else scale
    key = ("csr", dataset, scale, ())
    if key not in _CACHE:
        spec = get_dataset(dataset)
        edges = spec.generate(scale)
        nv, _ = spec.sizes(scale)
        csr = StaticCSR(nv, edges)
        _CACHE[key] = (csr, None)
    return _CACHE[key][0]


def clear_cache() -> None:
    _CACHE.clear()


def pick_source(dataset: str, scale: Optional[float] = None) -> int:
    """A deterministic well-connected source vertex for BFS/BC."""
    csr = get_static_csr(dataset, scale)
    view = csr.analysis_view()
    return int(np.argmax(view.out_degrees()))


__all__ = [
    "DEFAULT_BATCH_SIZE",
    "InsertResult",
    "SYSTEM_ORDER",
    "build_system",
    "ingest",
    "run_kernel",
    "get_built_system",
    "get_static_csr",
    "clear_cache",
    "pick_source",
    "SOURCE_KERNELS",
]
