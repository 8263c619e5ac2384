"""The three workloads, one trial each: generate, build, run, recover, check.

Each trial is closed-loop with a single client in one thread.  The seed
reaches the program only through ``dataclasses.replace(spec, seed=...)``
on the dataset specs and through the read-op RNG.  Correctness checks
run outside the timed phase; each failed check counts as a failed
operation.  A trial records every timed call, and every round of its
timed phase, as one entry of a list in an order fixed by the inputs, so
that ``run.py`` can line up repeats of one input call by call.  With a
:class:`~layers.SpanLog` the trial also records spans around every
layer call; without one it records nothing but the client timings the
end-to-end metrics need.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from layers import SpanLog
from measure import clock, fingerprint, pmem_delta, snapshot_pools

from repro import DGAP, DGAPConfig
from repro.algorithms import KERNELS, pagerank
from repro.baselines import SYSTEMS, DGAPSystem
from repro.datasets import get_dataset, get_temporal_dataset
from repro.serve import QueryServer, SnapshotReader
from repro.serve.workload import DEFAULT_READ_MIX, ZipfianSampler
from repro.sharding import ShardedDGAP
from repro.temporal import TemporalWindowGraph

#: edges per prefill insert call (DGAP splits it at its default batch size)
CHUNK = 4096
CORE_COUNTERS = ("n_rebalances", "n_resizes", "n_log_inserts", "n_shift_inserts", "n_compactions")

ANALYZE = dict(dataset="orkut", scale=1.5, prefill=0.9, rounds=60, slice=0.0005, check_every=10,
               recovery_cycles=8)
ANALYZE_KERNELS = ("pr", "bfs", "cc", "bc")
CHURN = dict(dataset="orkut-stream", scale=1.0, steps=200, window=20, shards=2,
             reads=50, zipf_theta=0.99, k_hop=2, top_k=8, check_every=10, recovery_cycles=16)
COMPARE = dict(dataset="orkut", scale=0.125, chunk=1024, recovery_cycles=32)
ABLATIONS = {
    "no_el": {"use_edge_log": False},
    "no_el_ul": {"use_edge_log": False, "use_undo_log": False},
    "no_el_ul_dp": {"use_edge_log": False, "use_undo_log": False, "dram_placement": False},
}
COMPARE_SYSTEMS = ("dgap", "bal", "llama", "graphone", "xpgraph", *ABLATIONS)


@dataclass
class Trial:
    """What one trial measured; ``run.py`` turns trials into metrics."""

    setup_s: float = 0.0
    generate_s: float = 0.0
    #: wall of each round of the timed phase, correctness checks excluded
    laps: List[float] = field(default_factory=list)
    #: wall of each write-path call
    writes: List[float] = field(default_factory=list)
    mutations: int = 0
    #: wall of each reopen after a power failure
    reopens: List[float] = field(default_factory=list)
    requests: List[float] = field(default_factory=list)
    modeled_ns: float = 0.0
    pmem: Dict = field(default_factory=dict)
    space_bytes: int = 0
    live_edges: float = 0.0
    core: Dict[str, int] = field(default_factory=dict)
    #: device stores + flushes + fences of the DGAP pools
    core_events: int = 0
    write_amp: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    fingerprint: str = ""
    #: workload-specific counters and per-layer values
    extra: Dict[str, float] = field(default_factory=dict)
    spans: Optional[SpanLog] = None

    def set_pmem(self, pmem: Dict) -> None:
        """The trial's device counters, and what they give by default."""
        self.pmem = pmem
        self.write_amp = pmem["stored_bytes"] / pmem["payload_bytes"]
        self.core_events = pmem["stores"] + pmem["flushes"] + pmem["fences"]

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


class Phase:
    """Wall clock of the timed phase, in rounds, with the checks paused out.

    ``lap()`` ends a round and appends its wall time to ``laps``.
    """

    def __init__(self, laps: List[float]) -> None:
        self.laps = laps
        self._lap_at = clock()
        self._paused = 0.0
        self._pause_at = 0.0

    def pause(self) -> None:
        self._pause_at = clock()

    def resume(self) -> None:
        self._paused += clock() - self._pause_at

    def lap(self) -> None:
        now = clock()
        self.laps.append(now - self._lap_at - self._paused)
        self._lap_at, self._paused = now, 0.0


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------

def chunks(edges: np.ndarray, size: int = CHUNK) -> List[np.ndarray]:
    return np.array_split(edges, max(1, -(-edges.shape[0] // size)))


def add_core(acc: Dict[str, int], graph) -> None:
    for c in CORE_COUNTERS:
        acc[c[2:]] = acc.get(c[2:], 0) + int(getattr(graph, c))


def csr_of(graph):
    with graph.consistent_view() as snap:
        return snap.to_csr()


def same_edges(indptr, dsts, expected: np.ndarray) -> bool:
    """Does the CSR hold exactly the multiset of ``expected`` (src, dst) rows?"""
    n = max(indptr.size - 1, int(expected.max()) + 1 if expected.size else 0)
    src = np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))
    got = np.sort(src * n + dsts.astype(np.int64))
    return np.array_equal(got, np.sort(expected[:, 0].astype(np.int64) * n + expected[:, 1]))


def recover(pool, reopen, cycles: int, t: Trial, log: Optional[SpanLog]):
    """``cycles`` power failures, each followed by a timed reopen."""
    graph = None
    for _ in range(cycles):
        pool.crash()
        a = clock()
        graph = reopen(pool)
        b = clock()
        t.reopens.append(b - a)
        t.attempted += 1
        if log:
            log.add("core.open", a, b)
    return graph


def bytes_equal(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape \
            and a.tobytes() == b.tobytes()
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(bytes_equal, a, b))
    return type(a) is type(b) and a == b


# ----------------------------------------------------------------------
# analyze: materialized views and kernels while writes trickle in
# ----------------------------------------------------------------------

def _kernel(name: str, view, source: int):
    fn = KERNELS[name]
    return fn(view, source) if name in ("bfs", "bc") else fn(view)


def analyze(seed: int, log: Optional[SpanLog]) -> Trial:
    p = ANALYZE
    t = Trial(spans=log)
    s0 = clock()
    spec = replace(get_dataset(p["dataset"]), seed=seed)
    edges = spec.generate(p["scale"])
    nv, _ = spec.sizes(p["scale"])
    t.generate_s = clock() - s0
    system = DGAPSystem(nv, edges.shape[0])
    if log:
        log.wrap_methods(system.graph, "core", ("insert_edges",))
    pool = system.graph.pool
    # Device counters and write-path wall cover the prefill too: the
    # trickle alone is a few rebalances, too few to compare across seeds.
    before = snapshot_pools([pool])
    k = int(edges.shape[0] * p["prefill"])
    for part in chunks(edges[:k]):
        a = clock()
        system.insert_edges(part)
        t.writes.append(clock() - a)
    t.mutations = k
    system.analysis_view()  # the first, full materialization is set-up
    source = int(np.argmax(np.bincount(edges[:k, 0], minlength=nv)))
    step = max(1, int(edges.shape[0] * p["slice"]))
    t.setup_s = clock() - s0

    views0 = system.view_counters()
    digest = []
    kernel_ns = 0.0
    phase = Phase(t.laps)
    for r in range(p["rounds"]):
        part = edges[k + r * step: k + (r + 1) * step]
        a = clock()
        system.insert_edges(part)
        b = clock()
        t.writes.append(b - a)
        t.mutations += part.shape[0]
        name = ANALYZE_KERNELS[r % len(ANALYZE_KERNELS)]
        a = clock()
        view = system.analysis_view()
        m = clock()
        out = _kernel(name, view, source)
        b = clock()
        t.requests.append(b - a)
        t.attempted += 2
        if log:
            log.add("harness.request", a, b)
            log.add("analysis.view", a, m)
            log.add(f"algorithms.{name}", m, b)
        modeled = view.seconds(1)
        kernel_ns += modeled * 1e9
        digest.append(np.ascontiguousarray(out))
        phase.lap()
        if r % p["check_every"] == p["check_every"] - 1:
            phase.pause()
            system.view_caching = False
            try:
                ref_view = system.analysis_view()
            finally:
                system.view_caching = True
            ref = _kernel(name, ref_view, source)
            t.check(bytes_equal(out, ref) and ref_view.seconds(1) == modeled,
                    f"round {r}: {name} on the cached view differs from a from-scratch view")
            phase.resume()
    t.set_pmem(pmem_delta([pool], before))
    views1 = system.view_counters()
    for c in ("full_rebuilds", "incremental_builds", "rows_reused", "vertices_rebuilt",
              "delta_edges_merged"):
        t.extra[f"analysis.{c}"] = views1[c] - views0[c]
    t.extra["algorithms.modeled_s"] = kernel_ns * 1e-9
    t.modeled_ns = t.pmem["modeled_ns"] + kernel_ns
    add_core(t.core, system.graph)
    t.space_bytes = pool.allocator.cursor
    t.live_edges = system.graph.num_edges
    indptr, dsts = csr_of(system.graph)
    t.fingerprint = fingerprint([indptr, dsts, *digest], t.modeled_ns, t.pmem)

    done = edges[: k + p["rounds"] * step]
    g = recover(pool, lambda q: DGAP.open(q, system.config), p["recovery_cycles"], t, log)
    t.check(same_edges(*csr_of(g), done), "recovered CSR differs from the ingested edges")
    return t


# ----------------------------------------------------------------------
# churn-serve: windowed churn on a sharded graph under served reads
# ----------------------------------------------------------------------

def _read_ops(stream, seed: int) -> List[List[tuple]]:
    """Seeded Zipfian reads of the ``DEFAULT_READ_MIX`` classes, per step.

    Vertices are drawn among those the stream has added so far, so each
    read names a vertex that exists when it runs.
    """
    p = CHURN
    rng = np.random.default_rng([seed, 1])
    names = [c for c, _ in DEFAULT_READ_MIX]
    weights = np.array([w for _, w in DEFAULT_READ_MIX])
    weights = weights / weights.sum()
    ops: List[List[tuple]] = []
    nv = 1
    for step in stream:
        if step.adds.size:
            nv = max(nv, int(step.adds.max()) + 1)
        zipf = ZipfianSampler(nv, p["zipf_theta"], rng)
        cls = rng.choice(len(names), size=p["reads"], p=weights)
        u = zipf.sample(rng, p["reads"])
        w = zipf.sample(rng, p["reads"])
        step_ops = []
        for c, a, b in zip(cls, u, w):
            name = names[c]
            if name == "edge_exists":
                step_ops.append((name, int(a), int(b)))
            elif name == "k_hop":
                step_ops.append((name, int(a), p["k_hop"]))
            elif name == "top_k_degree":
                step_ops.append((name, p["top_k"]))
            else:
                step_ops.append((name, int(a)))
        ops.append(step_ops)
    return ops


def _query(reader, op: tuple):
    return getattr(reader, op[0])(*op[1:])


def churn_serve(seed: int, log: Optional[SpanLog]) -> Trial:
    p = CHURN
    t = Trial(spans=log)
    s0 = clock()
    spec = replace(get_temporal_dataset(p["dataset"]), seed=seed, num_steps=p["steps"])
    stream = spec.generate(p["scale"])
    nv, ne = spec.sizes(p["scale"])
    t.generate_s = clock() - s0
    reads = _read_ops(stream, seed)
    cfg = DGAPConfig(init_vertices=nv, init_edges=ne)
    graph = ShardedDGAP(p["shards"], cfg)
    if log:  # time the calls the window, the server and the router make
        log.wrap_methods(graph, "sharding", ("insert_edges", "compact", "tombstone_density"))
        for sh in graph.shards:
            log.wrap_methods(sh, "core", ("insert_edges", "compact"))
    window = TemporalWindowGraph(graph, p["window"])
    server = QueryServer(graph)
    oracle = SnapshotReader(graph)
    t.setup_s = clock() - s0

    pools = graph.pool.pools
    before = snapshot_pools(pools)
    serve_ns = 0.0
    densities, live = [], []
    phase = Phase(t.laps)
    for step, step_reads in zip(stream, reads):
        a = clock()
        st = window.advance(step)
        b = clock()
        t.writes.append(b - a)
        t.mutations += st["added"] + st["churn_deleted"] + st["expired"]
        t.attempted += 1
        densities.append(st["tombstone_density"])
        if log:
            log.add("temporal.advance", a, b)
        for j, op in enumerate(step_reads):
            if log:
                r0 = server.refreshes
            a = clock()
            view = server.acquire()
            m = clock()
            res = _query(view, op)
            b = clock()
            t.requests.append(b - a)
            serve_ns += server.last_acquire_ns + view.last_query_ns
            if log:
                log.add("harness.read", a, b)
                log.add("serve.refresh" if server.refreshes != r0 else "serve.reuse", a, m)
                log.add(f"serve.query.{op[0]}", m, b)
            if j % p["check_every"] == 0:
                phase.pause()
                t.check(bytes_equal(res, _query(oracle, op)),
                        f"step {st['step']}: served {op} differs from a snapshot read")
                phase.resume()
        phase.lap()
        phase.pause()
        live.append(window.live_edges())
        t.check(int(view.out_indptr[-1]) == live[-1],
                f"step {st['step']}: served edge count differs from the window's live edges")
        phase.resume()
    t.attempted += len(t.requests)
    t.set_pmem(pmem_delta(pools, before))
    t.modeled_ns = t.pmem["modeled_ns"] + serve_ns
    for sh in graph.shards:
        add_core(t.core, sh)
    t.space_bytes = sum(pl.allocator.cursor for pl in pools)
    # the live count at the last step is one draw of the window's churn;
    # its mean over the stream is what the pool holds edges for
    t.live_edges = float(np.mean(live))
    (indptr, dsts), _ = graph.global_csr()
    t.fingerprint = fingerprint([indptr, dsts], t.modeled_ns, t.pmem)
    counters = window.counters()
    per_shard = [sh.num_edges for sh in graph.shards]
    t.extra.update({
        "temporal.expired": counters["expired"],
        "temporal.tombstone_density": float(np.median(densities)),
        "core.compactions": counters["compactions"],
        "serve.reuse_ratio": server.reuses / max(1, server.reuses + server.refreshes),
        "serve.refresh_modeled_ns": server.refresh_ns_total / max(1, server.refreshes),
        "sharding.shard_edge_skew": max(per_shard) / max(1e-9, sum(per_shard) / len(per_shard)),
    })

    counts = window.live_pair_counts()
    pairs = np.array(list(counts), dtype=np.int64).reshape(-1, 2)
    expected = np.repeat(pairs, np.fromiter(counts.values(), dtype=np.int64, count=len(counts)),
                         axis=0)
    g = recover(graph.pool, lambda q: ShardedDGAP.open(q, cfg), p["recovery_cycles"], t, log)
    (indptr, dsts), _ = g.global_csr()
    t.check(same_edges(indptr, dsts, expected),
            "recovered CSR differs from the window's live edges")
    return t


# ----------------------------------------------------------------------
# paper-compare: the compared systems and the Table 5 ablation configs
# ----------------------------------------------------------------------

def _build(name: str, nv: int, ne: int):
    if name in ABLATIONS:
        cfg = DGAPConfig(init_vertices=nv, init_edges=ne, **ABLATIONS[name])
        return DGAPSystem(nv, ne, config=cfg)
    return SYSTEMS[name](nv, ne)


def paper_compare(seed: int, log: Optional[SpanLog]) -> Trial:
    p = COMPARE
    t = Trial(spans=log)
    s0 = clock()
    spec = replace(get_dataset(p["dataset"]), seed=seed)
    edges = spec.generate(p["scale"])
    nv, _ = spec.sizes(p["scale"])
    ne = edges.shape[0]
    t.generate_s = clock() - s0
    systems = {name: _build(name, nv, ne) for name in COMPARE_SYSTEMS}
    dgaps = {n: s for n, s in systems.items() if isinstance(s, DGAPSystem)}
    if log:
        for s in dgaps.values():
            log.wrap_methods(s.graph, "core", ("insert_edges",))
    pools = {n: getattr(s, "graph", s).pool for n, s in systems.items()}
    # write amplification counts every device a system declares payload on
    devices = {n: [pools[n].device, *([s.dram] if hasattr(s, "dram") else [])]
               for n, s in systems.items()}
    out_degree = np.bincount(edges[:, 0], minlength=nv)
    parts = chunks(edges, p["chunk"])
    t.setup_s = clock() - s0

    before = {n: snapshot_pools(devs) for n, devs in devices.items()}
    phase = Phase(t.laps)
    for part in parts:  # one client request: the same slice into every system
        a = clock()
        for name, system in systems.items():
            s_a = clock()
            system.insert_edges(part)
            s_b = clock()
            t.writes.append(s_b - s_a)
            if log:
                log.add(f"baselines.{name}.insert", s_a, s_b)
            phase.lap()
        b = clock()
        t.requests.append(b - a)
        if log:
            log.add("harness.request", a, b)
    t.mutations = ne * len(systems)
    t.attempted += len(parts)
    ranks = []
    for name, system in systems.items():
        a = clock()
        system.finalize()
        f = clock()
        view = system.analysis_view()
        m = clock()
        ranks.append(pagerank(view))
        b = clock()
        t.writes.append(f - a)
        t.attempted += 2
        if log:
            log.add(f"baselines.{name}.insert", a, f)
            log.add(f"baselines.{name}.view", f, m)
            log.add("algorithms.pr", m, b)
        modeled = system.modeled_insert_ns()
        t.modeled_ns += modeled + view.seconds(1) * 1e9
        t.extra[f"baselines.{name}.modeled_s"] = modeled * 1e-9
        phase.lap()
        phase.pause()
        t.check(np.array_equal(view.out_degrees(), out_degree),
                f"{name}: final out-degree vector differs from the stream's")
        phase.resume()

    deltas = {n: pmem_delta(devs, before[n]) for n, devs in devices.items()}
    for n, d in deltas.items():
        t.extra[f"baselines.{n}.stored_bytes_per_edge"] = d["stored_bytes"] / ne
        if d["payload_bytes"]:  # LLAMA, GraphOne and XPGraph declare no payload
            t.extra[f"baselines.{n}.write_amp"] = d["stored_bytes"] / d["payload_bytes"]
    t.set_pmem(pmem_delta(list(pools.values()), [b[0] for b in before.values()]))
    stored = sum(d["stored_bytes"] for d in deltas.values())
    t.write_amp = stored / sum(d["payload_bytes"] for d in deltas.values())
    t.core_events = sum(
        deltas[n]["stores"] + deltas[n]["flushes"] + deltas[n]["fences"] for n in dgaps)
    for s in dgaps.values():
        add_core(t.core, s.graph)
    t.space_bytes = sum(pl.allocator.cursor for pl in pools.values())
    t.live_edges = ne * len(systems)
    indptr, dsts = csr_of(systems["dgap"].graph)
    t.fingerprint = fingerprint([indptr, dsts, *ranks], t.modeled_ns, t.pmem)

    dgap = systems["dgap"]
    g = recover(pools["dgap"], lambda q: DGAP.open(q, dgap.config), p["recovery_cycles"], t, log)
    t.check(same_edges(*csr_of(g), edges), "recovered dgap CSR differs from the stream")
    return t


TRIALS = {
    "analyze": analyze,
    "churn-serve": churn_serve,
    "paper-compare": paper_compare,
}
