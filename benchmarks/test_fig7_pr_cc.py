"""Fig. 7 — PageRank and Connected Components, normalized to CSR on PM.

Full-scan kernels: every iteration touches every vertex and edge, the
pattern where mutable CSR's locality wins (paper §4.3: DGAP averages
only ~37% over immutable CSR and beats BAL/LLAMA/GraphOne/XPGraph by up
to 2.9x/2.9x/1.4x/3.1x on PR).
"""

from conftest import run_once
from repro.bench import (
    emit,
    format_table,
    get_built_system,
    get_static_csr,
    paper_vs_measured,
    run_kernel,
)
from repro.bench.harness import SYSTEM_ORDER
from repro.bench.paper_data import TABLE4_SECONDS
from repro.datasets import PAPER_DATASETS

#: full-scale proxy analysis over all six datasets
DATASET_ORDER = tuple(PAPER_DATASETS)


def _normalized(kernel: str, scale: float):
    table = {}
    for ds in DATASET_ORDER:
        csr_view = get_static_csr(ds, scale).analysis_view()
        t_csr = run_kernel(csr_view, kernel)[1]
        table[ds] = {"csr": 1.0}
        for name in SYSTEM_ORDER:
            system, _ = get_built_system(name, ds, scale=scale)
            view = system.analysis_view()
            table[ds][name] = run_kernel(view, kernel)[1] / t_csr
    return table


def _paper_ratio(kernel: str, ds: str, system: str):
    data = TABLE4_SECONDS[kernel].get(ds)
    if not data:
        return None
    return data[system][0] / data["csr"][0]


def _emit(kernel: str, table):
    rows = [[ds] + [table[ds][s] for s in SYSTEM_ORDER] for ds in table]
    emit(format_table(
        f"Fig 7 ({kernel.upper()}): time normalized to CSR on PM (measured; smaller is better)",
        ["dataset"] + list(SYSTEM_ORDER),
        rows,
    ))
    prows = []
    for ds in table:
        pr = [_paper_ratio(kernel, ds, s) for s in SYSTEM_ORDER]
        if all(p is not None for p in pr):
            prows.append([ds] + [f"{p:.2f}" for p in pr])
    if prows:
        emit(format_table(
            f"Fig 7 ({kernel.upper()}): paper ratios (Table 4 T1)",
            ["dataset"] + list(SYSTEM_ORDER),
            prows,
        ))


def test_fig7_pagerank_and_cc(benchmark, scale):
    def run():
        return {"pr": _normalized("pr", scale), "cc": _normalized("cc", scale)}

    tables = run_once(benchmark, run)
    for kernel in ("pr", "cc"):
        _emit(kernel, tables[kernel])

    checks = []
    for kernel in ("pr", "cc"):
        t = tables[kernel]
        dgap_avg = sum(t[ds]["dgap"] for ds in t) / len(t)
        checks.append((
            f"{kernel}: DGAP avg overhead vs CSR (paper ~1.37x)",
            1.37, dgap_avg, 1.0 <= dgap_avg < 1.9,
        ))
        for rival in ("bal", "llama", "xpgraph"):
            wins = sum(t[ds]["dgap"] < t[ds][rival] for ds in t)
            checks.append((
                f"{kernel}: DGAP beats {rival} (paper: on all datasets)",
                "6/6", f"{wins}/6", wins >= 5,
            ))
        wins_go = sum(t[ds]["dgap"] < t[ds]["graphone"] for ds in t)
        checks.append((
            f"{kernel}: DGAP beats DRAM-cached GraphOne on most datasets (paper)",
            ">=4/6", f"{wins_go}/6", wins_go >= 4,
        ))
    emit(paper_vs_measured("fig7 structure", checks))
    assert all(ok for *_, ok in checks)
