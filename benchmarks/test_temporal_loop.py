"""Windowed temporal streams — the ingest→expire→analyze loop, twinned.

Temporal deployments retire edges as well as add them: every step of a
windowed stream ingests a burst, deletes the burst that just left the
window (down the tombstone path), and occasionally pays a
tombstone-merge compaction sweep.  This benchmark replays that loop
twice on identical streams — with the epoch-versioned view cache and
with the seed's from-scratch materialization — and pins four facts:

* kernel outputs, modeled seconds and per-step CSR bytes are identical
  (expiry and compaction are invisible to analysis results);
* the cached loop is >= 2x faster in wall clock (seed baseline JSON);
* the mutation ledger (adds, churn, expiry, compactions, pairs swept)
  reproduces the seeded stream exactly;
* the view-build/whole-view-hit counters prove the cache's reuse
  pattern deterministically — no wall clocks involved.
"""

from conftest import load_baseline, run_once
from repro.bench import emit, format_table, paper_vs_measured
from repro.bench.reporting import loop_table
from repro.bench.twin_loop import run_temporal_loop_pair


def test_temporal_loop_cached_speedup(benchmark):
    seed = load_baseline("temporal_loop")

    def run():
        # run_temporal_loop_pair raises if any kernel digest, modeled
        # time or per-step CSR differs between the arms — identity is
        # asserted, not eyed
        return run_temporal_loop_pair(
            seed["dataset"],
            scale=seed["scale"],
            window=seed["window"],
            compact_threshold=seed["compact_threshold"],
            kernels=tuple(seed["kernels"]),
            sources=seed["sources"],
        )

    pair = run_once(benchmark, run)
    emit(loop_table(pair, title="temporal loop (windowed stream)"))

    need = seed["min_required_speedup"]["cached"]
    c = pair.cached.counters
    m = seed["mutations"]
    checks = [
        ("cached analysis wall s (seed env)", seed["cached_analysis_wall_s"],
         pair.cached.analysis_wall_s, True),
        ("scratch analysis wall s (seed env)", seed["scratch_analysis_wall_s"],
         pair.scratch.analysis_wall_s, True),
        (f"wall speedup cached vs scratch (need >= {need:g}x)",
         seed["wall_speedup_cached"], pair.speedup, pair.speedup >= need),
        ("edges added", m["added"], c["added"], c["added"] == m["added"]),
        ("churn deletes applied", m["churn_deleted"], c["churn_deleted"],
         c["churn_deleted"] == m["churn_deleted"]),
        ("copies expired", m["expired"], c["expired"],
         c["expired"] == m["expired"]),
        ("compaction sweeps", m["compactions"], c["compactions"],
         c["compactions"] == m["compactions"]),
        ("tombstone pairs compacted", m["tombstone_pairs_compacted"],
         c["tombstone_pairs_compacted"],
         c["tombstone_pairs_compacted"] == m["tombstone_pairs_compacted"]),
        ("view builds (one per step)", seed["counters"]["view_builds"],
         c["view_builds"], c["view_builds"] == seed["counters"]["view_builds"]),
        ("whole-view hits (all other trials)",
         seed["counters"]["whole_view_hits"], c["whole_view_hits"],
         c["whole_view_hits"] == seed["counters"]["whole_view_hits"]),
    ]
    emit(paper_vs_measured("temporal-loop speedup (DGAP, orkut-stream)", checks))
    assert all(ok for *_, ok in checks), checks


def test_temporal_loop_window_zero_and_one(benchmark):
    """Degenerate windows stay identical across arms: W=0 (everything
    expires the step it arrives) and W=1 (only the current step lives)."""
    seed = load_baseline("temporal_loop")

    def run():
        rows = []
        for window in (0, 1):
            pair = run_temporal_loop_pair(
                seed["dataset"],
                scale=0.25,
                window=window,
                compact_threshold=seed["compact_threshold"],
                sources=2,
                max_steps=8,
            )
            c = pair.cached.counters
            # W=0: every add either churns or expires the same step, so
            # nothing outlives its step; W=1 keeps exactly one step.
            rows.append((window, c["added"], c["churn_deleted"] + c["expired"],
                         pair.speedup))
        return rows

    rows = run_once(benchmark, run)
    emit(format_table(
        "degenerate windows (identity asserted per pair)",
        ["window", "added", "deleted", "speedup"],
        rows,
    ))
    w0 = rows[0]
    assert w0[1] == w0[2], "window 0 must delete every copy it ingests"
