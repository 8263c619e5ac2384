"""Shard-scaling twin — one pool vs N pools on the same edge stream.

Three arms over the synthetic ``scale`` notch (the headroom dataset one
step above the largest paper proxy):

* **batched ingest** — the headline gate: with 4 shards the modeled
  ingest clock (max over shard devices, each with its own media write
  bandwidth lane) must beat the single-pool arm by >= the pinned
  floor (2x), and the merged global CSR must be *byte-identical* to
  the unsharded build's, out and in.
* **vthreads** — per-edge concurrent ingest; threads split across
  shards.  Softer floor: hub-section serial chains get exposed once
  sharding removes the shared media floor, so the speedup sits well
  below the ideal N.
* **recovery** — crash, reopen; per-shard replays run concurrently on
  the modeled clock, so the sharded recovery makespan is the max over
  shard deltas and must beat the single pool's replay.

All gates are on **modeled** time, so they are deterministic and engage
at every ``REPRO_SCALE`` (unlike wall-clock gates, which need size for
stability).
"""

import numpy as np
from conftest import load_baseline, run_once

from repro import DGAP, DGAPConfig
from repro.bench import emit, format_table
from repro.bench.reporting import distribution_stats
from repro.datasets import get_dataset
from repro.sharding import ShardedDGAP
from repro.testing import pool_clocks
from repro.workloads.vthreads import VirtualThreadScheduler, run_sharded

DATASET = "scale"
N_SHARDS = 4
BATCH = 512
VTHREAD_EDGE_CAP = 20_000  # per-edge python loop: cap the vthreads arm


def _stream(scale):
    spec = get_dataset(DATASET)
    edges = spec.generate(scale)
    nv, _ = spec.sizes(scale)
    return edges, nv


def _cfg(nv, ne):
    return DGAPConfig(init_vertices=nv, init_edges=max(ne, 256))


def _ingest_modeled_ns(g, edges):
    before = g.pool.stats.snapshot()
    g.insert_edges(edges, batch_size=BATCH)
    return g.pool.stats.delta_since(before).modeled_ns


def _assert_merged_identity(single, sharded):
    ref_out, ref_in = single.view_cache().materialize()
    mrg_out, mrg_in = sharded.global_csr()
    for name, a, b in (
        ("out_indptr", ref_out[0], mrg_out[0]),
        ("out_dsts", ref_out[1], mrg_out[1]),
        ("in_indptr", ref_in[0], mrg_in[0]),
        ("in_srcs", ref_in[1], mrg_in[1]),
    ):
        assert a.dtype == b.dtype, f"{name}: dtype diverged"
        assert a.tobytes() == b.tobytes(), f"{name}: merged view diverged"


def test_shard_ingest_speedup(benchmark, scale):
    seed = load_baseline("shard_scaling")
    edges, nv = _stream(scale)

    def run():
        single = DGAP(_cfg(nv, edges.shape[0]))
        ns1 = _ingest_modeled_ns(single, edges)
        sharded = ShardedDGAP(N_SHARDS, _cfg(nv, edges.shape[0]))
        nsn = _ingest_modeled_ns(sharded, edges)
        _assert_merged_identity(single, sharded)
        shares = [sh.num_edges / sharded.num_edges for sh in sharded.shards]
        return ns1, nsn, shares

    ns1, nsn, shares = run_once(benchmark, run)
    meps = lambda ns: edges.shape[0] / ns * 1e3  # noqa: E731
    speedup = ns1 / nsn
    need = seed["min_required_speedup"]["ingest"]
    emit(format_table(
        f"shard scaling: batched ingest — {DATASET} "
        f"(scale {scale:g}, {edges.shape[0]} edges, {N_SHARDS} shards)",
        ["metric", "measured", "seed env"],
        [
            ("single-pool modeled MEPS", f"{meps(ns1):.2f}",
             f'{seed["ingest"]["single_meps"]:g}'),
            (f"{N_SHARDS}-shard modeled MEPS", f"{meps(nsn):.2f}",
             f'{seed["ingest"]["sharded_meps"]:g}'),
            (f"speedup (need >= {need:g}x)", f"{speedup:.2f}x",
             f'{seed["ingest"]["speedup"]:g}x'),
            ("max shard share", f"{max(shares):.3f}",
             f'{seed["ingest"]["max_shard_share"]:g}'),
            ("merged view byte-identical", "yes", "yes"),
        ],
    ))
    assert speedup >= need, (
        f"sharded ingest speedup regressed: {speedup:.2f}x < {need:g}x"
    )
    # the block-mixed partition must keep the stream balanced — a plain
    # residue partition puts ~half the RMAT stream in shard 0
    assert max(shares) <= seed["ingest"]["max_shard_share_bound"]


def test_shard_vthreads_speedup(benchmark, scale):
    seed = load_baseline("shard_scaling")
    edges, nv = _stream(scale)
    edges = edges[:VTHREAD_EDGE_CAP]
    n_threads = 16

    def run():
        pairs = [tuple(e) for e in edges.tolist()]
        single = DGAP(_cfg(nv, edges.shape[0]))
        base = VirtualThreadScheduler(single, n_threads).run(pairs)
        sharded = ShardedDGAP(N_SHARDS, _cfg(nv, edges.shape[0]))
        res = run_sharded(sharded, edges, n_threads)
        assert res.makespan_s == max(r.makespan_s for r in res.per_shard)
        return base.makespan_s, res.makespan_s

    base_s, shard_s = run_once(benchmark, run)
    speedup = base_s / shard_s
    need = seed["min_required_speedup"]["vthreads"]
    emit(format_table(
        f"shard scaling: vthreads ingest — {DATASET} "
        f"(scale {scale:g}, {edges.shape[0]} edges, "
        f"{n_threads} threads over {N_SHARDS} shards)",
        ["metric", "measured", "seed env"],
        [
            ("single-pool makespan (ms)", f"{base_s * 1e3:.2f}",
             f'{seed["vthreads"]["single_makespan_ms"]:g}'),
            (f"{N_SHARDS}-shard makespan (ms)", f"{shard_s * 1e3:.2f}",
             f'{seed["vthreads"]["sharded_makespan_ms"]:g}'),
            (f"speedup (need >= {need:g}x)", f"{speedup:.2f}x",
             f'{seed["vthreads"]["speedup"]:g}x'),
        ],
    ))
    assert speedup >= need, (
        f"sharded vthreads speedup regressed: {speedup:.2f}x < {need:g}x"
    )


def test_shard_recovery_parallelism(benchmark, scale):
    seed = load_baseline("shard_scaling")
    edges, nv = _stream(scale)

    def one_single():
        g = DGAP(_cfg(nv, edges.shape[0]))
        g.insert_edges(edges, batch_size=BATCH)
        g.pool.crash()
        before = pool_clocks(g.pool)
        DGAP.open(g.pool, g.config)
        return float((pool_clocks(g.pool) - before).max())

    def one_sharded():
        sh = ShardedDGAP(N_SHARDS, _cfg(nv, edges.shape[0]))
        sh.insert_edges(edges, batch_size=BATCH)
        sh.pool.crash()
        before = pool_clocks(sh.pool)
        ShardedDGAP.open(sh.pool, sh.config)
        deltas = pool_clocks(sh.pool) - before
        assert (deltas > 0).all()
        return deltas

    def run():
        return one_single(), one_sharded()

    single_ns, deltas = run_once(benchmark, run)
    makespan = float(deltas.max())
    total = float(deltas.sum())
    speedup = single_ns / makespan
    need = seed["min_required_speedup"]["recovery"]
    stats = distribution_stats(deltas * 1e-6, unit="ms")
    emit(format_table(
        f"shard scaling: crash recovery — {DATASET} "
        f"(scale {scale:g}, {edges.shape[0]} edges, {N_SHARDS} shards)",
        ["metric", "measured", "seed env"],
        [
            ("single-pool replay (ms)", f"{single_ns * 1e-6:.3f}",
             f'{seed["recovery"]["single_ms"]:g}'),
            ("sharded makespan = max shard (ms)", f"{makespan * 1e-6:.3f}",
             f'{seed["recovery"]["sharded_makespan_ms"]:g}'),
            ("sum over shards (ms)", f"{total * 1e-6:.3f}",
             f'{seed["recovery"]["sharded_sum_ms"]:g}'),
            (f"speedup (need >= {need:g}x)", f"{speedup:.2f}x",
             f'{seed["recovery"]["speedup"]:g}x'),
            ("per-shard p50 (ms)", f'{stats["p50_ms"]:.3f}', "-"),
        ],
    ))
    # parallel replay: the makespan is max-over-shards, strictly below
    # the serial sum, and beats the single pool's replay
    assert makespan < total
    assert speedup >= need, (
        f"sharded recovery speedup regressed: {speedup:.2f}x < {need:g}x"
    )
