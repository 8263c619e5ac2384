"""Fig. 6 — single-writer-thread insert throughput, 5 systems x 6 graphs.

The paper's protocol: shuffled stream, first 10% warm-up, remaining 90%
timed; throughput in million edges per second (MEPS).  A companion check
exercises the batched ingestion pipeline: the same modeled numbers must
come out of the harness at a fraction of the wall-clock cost.
"""

from conftest import load_baseline, run_once
from repro.bench import (
    emit,
    format_table,
    get_built_system,
    ingest,
    ingest_phase_table,
    paper_vs_measured,
)
from repro.bench.harness import DEFAULT_BATCH_SIZE, SYSTEM_ORDER, build_system
from repro.bench.paper_data import FIG6_MEPS
from repro.datasets import PAPER_DATASETS, get_dataset


def test_fig6_insert_throughput(benchmark, scale):
    def run():
        table = {}
        for ds in PAPER_DATASETS:
            table[ds] = {}
            for name in SYSTEM_ORDER:
                _, ins = get_built_system(name, ds, scale=scale)
                table[ds][name] = ins.meps(1)
        return table

    table = run_once(benchmark, run)

    rows = [
        [ds] + [table[ds][s] for s in SYSTEM_ORDER] + [max(table[ds], key=table[ds].get)]
        for ds in table
    ]
    emit(format_table(
        "Fig 6: single-thread insert throughput (MEPS, measured)",
        ["dataset"] + list(SYSTEM_ORDER) + ["best"],
        rows,
    ))
    rows_p = [[ds] + [FIG6_MEPS[ds][s] for s in SYSTEM_ORDER] for ds in FIG6_MEPS]
    emit(format_table(
        "Fig 6: paper-reported MEPS (real hardware, full datasets)",
        ["dataset"] + list(SYSTEM_ORDER),
        rows_p,
    ))

    checks = []
    for ds in table:
        best = max(table[ds].values())
        checks.append((
            f"{ds}: DGAP best or near-best (paper)",
            "top/~top",
            f"dgap={table[ds]['dgap']:.2f} best={best:.2f}",
            table[ds]["dgap"] >= 0.75 * best,
        ))
        checks.append((
            f"{ds}: DGAP beats GraphOne (paper: up to 2.5x)",
            ">1x",
            table[ds]["dgap"] / table[ds]["graphone"],
            table[ds]["dgap"] > table[ds]["graphone"],
        ))
        checks.append((
            f"{ds}: DGAP beats LLAMA (paper: up to 6x)",
            ">1x",
            table[ds]["dgap"] / table[ds]["llama"],
            table[ds]["dgap"] > table[ds]["llama"],
        ))
    emit(paper_vs_measured("fig6 structure", checks))
    assert all(ok for *_, ok in checks)
    # LLAMA's vertex-table cost makes CitPatents its worst dataset (paper)
    assert table["citpatents"]["llama"] == min(t["llama"] for t in table.values())


def test_fig6_dgap_batch_speedup(benchmark, scale):
    """Batched ingestion must beat the per-edge path >= 3x in wall clock
    on DGAP/Orkut while leaving modeled throughput essentially unchanged.

    The speedup pair {1, 1024} is pinned against the seed baseline; the
    throughput-consistency check runs at the shipping default (512),
    since 1024-edge rounds trade some rebalance efficiency for speed on
    reduced-scale graphs (see DESIGN.md §5).
    """
    seed = load_baseline("fig6_insert_batch")
    spec = get_dataset("orkut")
    edges = spec.generate(scale)
    nv, ne = spec.sizes(scale)

    def run():
        out = {}
        for bs in (1, DEFAULT_BATCH_SIZE, 1024):
            system = build_system("dgap", nv, ne)
            out[bs] = ingest(system, spec, edges, batch_size=bs)
        return out

    results = run_once(benchmark, run)
    wall = {bs: r.counters["timed_wall_s"] for bs, r in results.items()}
    meps = {bs: r.meps(1) for bs, r in results.items()}
    speedup = wall[1] / wall[1024]
    need = seed["min_required_speedup"]["batch_1024_vs_1"]
    dbs = DEFAULT_BATCH_SIZE

    emit(ingest_phase_table(results.values()))
    emit(paper_vs_measured(
        "fig6 batched-ingest speedup (DGAP, orkut)",
        [
            ("timed wall s, batch 1 (seed env)", seed["batch"]["1"]["timed_wall_s"],
             wall[1], True),
            ("timed wall s, batch 1024 (seed env)", seed["batch"]["1024"]["timed_wall_s"],
             wall[1024], True),
            (f"wall speedup 1024 vs 1 (need >= {need:g}x)",
             seed["wall_speedup_1024_vs_1"], speedup, speedup >= need),
            ("modeled MEPS T1, batch 1", seed["batch"]["1"]["meps_t1"], meps[1],
             abs(meps[1] - seed["batch"]["1"]["meps_t1"]) < 0.5 or scale != seed["scale"]),
            (f"modeled MEPS within 10% at default batch ({dbs})", "<=10%",
             abs(meps[dbs] - meps[1]) / meps[1], abs(meps[dbs] - meps[1]) <= 0.10 * meps[1]),
        ],
    ))
    if ne < 50_000:
        return  # too small for stable wall-clock ratios
    assert speedup >= need, (wall, speedup)
    assert abs(meps[dbs] - meps[1]) <= 0.10 * meps[1]
