"""Vectorized read-path speedup — scalar reference vs bulk pmem reads.

The bulk read layer (``PMemDevice.load_batch``/``gather_span``) rewrote
the merge/rebalance gather->plan->write passes and the recovery
scan/replay as whole-window NumPy operations.  The scalar references in
:mod:`repro.testing.reference` are result- and accounting-identical by
contract; the scalar arm runs under their ``scalar_reference()`` seam.
The twin runs here first assert the seam called each reference the arm
needs and exact equivalence — same persistent bytes, same device
counters, same modeled time — and only then pin the wall-clock speedup
against the seed baseline.
"""

import contextlib
import json
import pathlib
import time

import numpy as np
from conftest import run_once

from repro import DGAP, DGAPConfig
from repro.bench import emit, format_table
from repro.bench.profile import build_rebalance_arm
from repro.datasets import get_dataset
from repro.testing.reference import scalar_reference

BASELINE_JSON = pathlib.Path(__file__).parent / "baselines" / "readpath_speed.json"
TRIALS = 3


def _arm(scalar: bool):
    """The scalar arm runs under the reference seam; the other as shipped."""
    return scalar_reference() if scalar else contextlib.nullcontext()


def _assert_used(calls, names) -> None:
    missing = [n for n in names if not calls[n]]
    assert not missing, f"scalar arm never called {missing}: {dict(calls)}"


def _assert_twin_equal(gs: DGAP, gv: DGAP) -> None:
    """The headline contract: both arms leave identical device state."""
    ds, dv = gs.pool.device, gv.pool.device
    assert np.array_equal(ds.buf, dv.buf), "CPU-visible bytes diverged"
    assert np.array_equal(ds.media, dv.media), "persistent bytes diverged"
    assert vars(ds.stats) == vars(dv.stats), "device accounting diverged"


def test_readpath_rebalance_speedup(benchmark, scale):
    """Merge/rebalance-heavy arm: forced whole-array rebalances, timed."""
    seed = json.loads(BASELINE_JSON.read_text())

    def run():
        best = {True: float("inf"), False: float("inf")}
        pair = {}
        for _ in range(TRIALS):
            for scalar in (True, False):
                with _arm(scalar) as calls:
                    g, wall = build_rebalance_arm("orkut", scale, 512)
                if scalar:
                    _assert_used(calls, ("gather_scalar", "plan_scalar"))
                best[scalar] = min(best[scalar], wall)
                pair[scalar] = g
        _assert_twin_equal(pair[True], pair[False])
        return best

    best = run_once(benchmark, run)
    speedup = best[True] / best[False]
    need = seed["min_required_speedup"]["rebalance"]
    emit(format_table(
        "read-path speedup: rebalance arm (orkut, timed rebalance calls)",
        ["arm", "wall s (best of 3)", "seed env wall s"],
        [
            ("scalar reference", f"{best[True]:.3f}",
             seed["rebalance_arm"]["scalar_wall_s"]),
            ("vectorized", f"{best[False]:.3f}",
             seed["rebalance_arm"]["vector_wall_s"]),
            (f"speedup (need >= {need:g}x)", f"{speedup:.2f}x",
             f'{seed["rebalance_arm"]["wall_speedup"]:g}x'),
        ],
    ))
    if scale < 0.5:
        return  # too small for stable wall-clock ratios
    assert speedup >= need, (
        f"rebalance read-path speedup regressed: {speedup:.2f}x < {need:g}x"
    )


def test_readpath_recovery_speedup(benchmark, scale):
    """Crash-recovery replay: edge-array scan + log replay + cursor rebuild."""
    seed = json.loads(BASELINE_JSON.read_text())
    spec = get_dataset("orkut")
    edges = spec.generate(scale)
    nv, _ = spec.sizes(scale)

    def one(scalar: bool):
        cfg = DGAPConfig(init_vertices=nv, init_edges=edges.shape[0])
        with _arm(scalar) as calls:
            g = DGAP(cfg)
            g.insert_edges(edges, batch_size=512)
            g.pool.crash()
            t0 = time.perf_counter()
            g2 = DGAP.open(g.pool, cfg)
            wall = time.perf_counter() - t0
        if scalar:
            _assert_used(calls, ("rebuild_counts_scalar", "scan_edge_array_scalar",
                                 "replay_logs_scalar"))
        return g2, wall

    def run():
        best = {True: float("inf"), False: float("inf")}
        pair = {}
        for _ in range(TRIALS):
            for scalar in (True, False):
                g2, wall = one(scalar)
                best[scalar] = min(best[scalar], wall)
                pair[scalar] = g2
        _assert_twin_equal(pair[True], pair[False])
        assert pair[True].num_edges == pair[False].num_edges
        return best

    best = run_once(benchmark, run)
    speedup = best[True] / best[False]
    need = seed["min_required_speedup"]["recovery"]
    emit(format_table(
        "read-path speedup: crash-recovery arm (orkut)",
        ["arm", "wall s (best of 3)", "seed env wall s"],
        [
            ("scalar reference", f"{best[True]:.3f}",
             seed["recovery_arm"]["scalar_wall_s"]),
            ("vectorized", f"{best[False]:.3f}",
             seed["recovery_arm"]["vector_wall_s"]),
            (f"speedup (need >= {need:g}x)", f"{speedup:.2f}x",
             f'{seed["recovery_arm"]["wall_speedup"]:g}x'),
        ],
    ))
    if scale < 0.5:
        return  # too small for stable wall-clock ratios
    assert speedup >= need, (
        f"recovery read-path speedup regressed: {speedup:.2f}x < {need:g}x"
    )
