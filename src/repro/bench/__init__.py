"""Benchmark harness: regenerates every table and figure of the paper."""

from .harness import (
    DEFAULT_BATCH_SIZE,
    build_system,
    clear_cache,
    get_built_system,
    get_static_csr,
    ingest,
    pick_source,
    run_kernel,
)
from .reporting import (
    emit,
    format_table,
    ingest_phase_table,
    loop_table,
    paper_vs_measured,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "build_system",
    "ingest",
    "run_kernel",
    "get_built_system",
    "get_static_csr",
    "clear_cache",
    "pick_source",
    "emit",
    "format_table",
    "ingest_phase_table",
    "loop_table",
    "paper_vs_measured",
]
