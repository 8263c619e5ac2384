"""The twin ingest→analyze loop driver (``repro.bench.twin_loop``).

Tiny insert-only and windowed pairs pin the cache's reuse pattern and
per-step CSR identity; doctored copies of one arm show that the one
identity check rejects every kind of divergence — including a dropped
record, which a bare ``zip`` over the two arms would let through.
"""

import copy
import dataclasses

import pytest

from repro.bench.__main__ import main
from repro.bench.twin_loop import (
    DEFAULT_KERNELS,
    check_identity,
    run_analysis_loop_pair,
    run_temporal_loop_pair,
)


@pytest.fixture(scope="module")
def insert_pair():
    return run_analysis_loop_pair("orkut", scale=0.02, rounds=3, sources=2)


@pytest.fixture(scope="module")
def window_pair():
    return run_temporal_loop_pair(
        "orkut-stream", scale=0.05, window=2, sources=2, max_steps=4
    )


@pytest.fixture(params=["insert", "window"])
def pair(request, insert_pair, window_pair):
    return insert_pair if request.param == "insert" else window_pair


def test_one_view_build_per_step(pair):
    steps = len(pair.cached.steps)
    trials = len(pair.cached.records)
    assert trials == steps * (2 + 2 * 2)  # pr, cc + two sources each of bfs, bc
    assert pair.cached.kernels == DEFAULT_KERNELS
    c = pair.cached.counters
    assert c["view_builds"] == steps
    assert c["whole_view_hits"] == trials - steps
    assert pair.scratch.counters["whole_view_hits"] == 0


def test_per_step_csr_identical(pair):
    for sc, ss in zip(pair.cached.steps, pair.scratch.steps, strict=True):
        assert sc.csr_digest == ss.csr_digest
        assert (sc.added, sc.churned, sc.expired) == (ss.added, ss.churned, ss.expired)
    assert [len(w) for w in (pair.cached.step_wall(), pair.scratch.step_wall())] == [
        len(pair.cached.steps)
    ] * 2


def test_workload_follows_stream(insert_pair, window_pair):
    ins, win = insert_pair.cached, window_pair.cached
    assert ins.window is None and "expired" not in ins.counters
    assert sum(s.added for s in ins.steps) > 0
    assert all(s.churned == s.expired == 0 for s in ins.steps)
    assert win.window == 2 and len(win.steps) == 4
    assert win.counters["added"] == sum(s.added for s in win.steps)
    assert win.counters["expired"] == sum(s.expired for s in win.steps) > 0


def _doctored(arm, edit):
    bad = copy.deepcopy(arm)
    edit(bad)
    return bad


@pytest.mark.parametrize("edit", [
    lambda a: setattr(a.records[3], "digest", "0" * 64),
    lambda a: setattr(a.records[-1], "modeled_s", a.records[-1].modeled_s * 2),
    lambda a: setattr(a.steps[1], "csr_digest", "0" * 64),
    lambda a: a.records.pop(),
    lambda a: a.steps.pop(),
    lambda a: a.steps.__setitem__(
        0, dataclasses.replace(a.steps[0], added=a.steps[0].added + 1)
    ),
], ids=["digest", "modeled_s", "csr", "dropped-record", "dropped-step", "mutations"])
def test_identity_check_rejects(pair, edit):
    check_identity(pair.cached, pair.scratch)
    with pytest.raises(AssertionError):
        check_identity(pair.cached, _doctored(pair.scratch, edit))


def test_cli_subcommands(capsys):
    assert main([
        "analysis-loop", "--scale", "0.02", "--rounds", "2", "--sources", "1",
        "--kernels", "pr,bfs", "--check-counters",
    ]) == 0
    assert main([
        "temporal", "--scale", "0.05", "--window", "1", "--sources", "1",
        "--max-steps", "3", "--kernels", "cc,bc",
    ]) == 0
    out = capsys.readouterr().out
    assert "analysis loop — orkut" in out and "temporal loop — orkut-stream" in out
    assert "per-step CSR byte-identical" in out
    assert "incrementality counter checks" in out


def test_cli_speedup_floor_exits_nonzero():
    with pytest.raises(SystemExit, match="speedup"):
        main([
            "temporal", "--scale", "0.05", "--sources", "1", "--max-steps", "2",
            "--kernels", "pr", "--min-speedup", "1e9",
        ])
