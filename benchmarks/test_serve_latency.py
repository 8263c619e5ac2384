"""Serving-layer twin — snapshot-isolated views vs per-query snapshots.

One Zipfian read/write stream (95% reads, YCSB-style theta 0.99) is
replayed twice over the same live graph: the **served** arm acquires an
epoch-versioned view (refreshed only when a write moved the epoch) and
the **snapshot** arm opens a fresh Degree-Cache snapshot for every
query — the pre-serving read path.  Two gates:

* **byte-identity** — every served read must equal the snapshot read
  at the same stream point, byte for byte.  Serving is an
  optimization, never a semantic change.
* **speedup** — amortizing the O(nv) snapshot copies across an epoch's
  read burst must beat per-query snapshots by >= the pinned floor
  (3x unsharded) on the modeled clock.  The workload is fully seeded
  and the clock is modeled, so the numbers are deterministic.

The vertex count is pinned (the speedup is an nv-dependent ratio, not
a throughput); ``REPRO_SCALE`` scales the op count only.
"""

import numpy as np
from conftest import load_baseline, run_once

from repro import DGAP, DGAPConfig
from repro.bench import emit
from repro.bench.reporting import serve_latency_table
from repro.serve import ServeWorkloadConfig, generate_workload, run_serve_workload
from repro.sharding import ShardedDGAP

NV = 8000
PRELOAD_EDGES = 4 * NV
#: PMA edge-array capacity: roomy sections keep dirty-section spans —
#: and with them the modeled refresh cost — proportional to the write,
#: which is the geometry the serving layer targets.
EDGE_CAPACITY = 16 * NV
N_SHARDS = 4


def _config(scale) -> ServeWorkloadConfig:
    return ServeWorkloadConfig(
        n_ops=max(400, int(1500 * scale)),
        read_fraction=0.95,
        zipf_theta=0.99,
        n_clients=8,
        seed=7,
    )


def _build(graph):
    rng = np.random.default_rng(1)
    graph.insert_edges(rng.integers(0, NV, size=(PRELOAD_EDGES, 2)))
    return graph


def _run_twin(graph, scale):
    cfg = _config(scale)
    ops = generate_workload(NV, cfg)
    return run_serve_workload(graph, ops, cfg, twin_check=True), cfg


def _assert_p99_reported(report):
    stats = report.stats()
    assert stats, "no latency classes recorded"
    for cls, dist in stats.items():
        assert "p50_us" in dist and "p99_us" in dist, cls


def test_serve_twin_unsharded(benchmark, scale):
    seed = load_baseline("serve_latency")
    graph = _build(DGAP(DGAPConfig(init_vertices=NV, init_edges=EDGE_CAPACITY)))
    report, cfg = run_once(benchmark, lambda: _run_twin(graph, scale))

    emit(serve_latency_table(
        report, f"serve twin — unsharded (nv {NV}, {cfg.n_ops} ops, seed {cfg.seed})"
    ))

    assert report.identity_checked and report.identity_ok, (
        f"{report.mismatches} served reads diverged from fresh-snapshot reads"
    )
    floor = seed["min_required_speedup"]["unsharded"]
    assert report.modeled_read_speedup >= floor, (
        f"served reads {report.modeled_read_speedup:.2f}x vs per-query "
        f"snapshots; pinned floor {floor}x "
        f"(seed {seed['unsharded']['speedup']}x)"
    )
    assert report.reuse_ratio >= seed["unsharded"]["min_reuse_ratio"]
    _assert_p99_reported(report)
    graph.shutdown()


def test_serve_twin_sharded(benchmark, scale):
    seed = load_baseline("serve_latency")
    graph = _build(
        ShardedDGAP(N_SHARDS, DGAPConfig(init_vertices=NV, init_edges=EDGE_CAPACITY))
    )
    report, cfg = run_once(benchmark, lambda: _run_twin(graph, scale))

    emit(serve_latency_table(
        report,
        f"serve twin — {N_SHARDS} shards (nv {NV}, {cfg.n_ops} ops, seed {cfg.seed})",
    ))

    assert report.identity_checked and report.identity_ok, (
        f"{report.mismatches} served reads diverged from fresh-snapshot reads"
    )
    # point queries in the snapshot arm only open the owner shard's
    # (nv/N-sized) snapshot, so the amortization margin is structurally
    # thinner than unsharded — the floor is correspondingly lower.
    floor = seed["min_required_speedup"]["sharded"]
    assert report.modeled_read_speedup >= floor, (
        f"served reads {report.modeled_read_speedup:.2f}x vs per-query "
        f"snapshots; pinned floor {floor}x "
        f"(seed {seed['sharded']['speedup']}x)"
    )
    _assert_p99_reported(report)
    graph.shutdown()
