"""Scalar-reference vs vectorized read-path equivalence.

The bulk pmem read layer (``load_batch``/``gather_span``) rewrote the
rebalance gather/plan passes and the recovery scan/replay/cursor-rebuild
as whole-window NumPy operations, and the one tombstone matcher
(``nputil.match_tombstones``) rewrote the snapshot's bulk row
materialization and compaction's pair dropping;
:mod:`repro.testing.reference` keeps the original per-slot / per-entry /
per-vertex loops as references, and its ``scalar_reference()`` seam runs
a whole workload on them.  The contract
is exact equivalence: same results, same persistent bytes, and the same
device accounting (counters *and* modeled time, bit for bit).  These
tests pin that contract on randomized workloads, including tombstoned
edges, invalidated log entries, and torn (partially persisted) entries.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import DGAP, DGAPConfig
from repro.core import rebalance
from repro.core import recovery as rec
from repro.core.edge_log import EdgeLogs
from repro.core.encoding import encode_edge
from repro.core.rebalance import Rebalancer
from repro.core.snapshot import DGAPSnapshot
from repro.errors import PMemError
from repro.pmem import PMemPool
from repro.testing import reference as ref

common = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# (src, dst, delete?) op streams on a small vertex universe — small enough
# to hammer merges and rebalances, big enough to grow real chains.
op_streams = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15), st.booleans()),
    min_size=1,
    max_size=250,
)

#: a pinned stream that ends with live edge-log chains holding
#: tombstones (drawn streams are mostly too short to outgrow the gaps):
#: four hubs, every 7th op a delete
HUB_OPS = [(k % 4, (5 * k) % 16, k % 7 == 6) for k in range(240)]


def _build(ops, mid=None) -> DGAP:
    """Apply ``ops``; ``mid(g)`` (if given) runs once halfway through."""
    g = DGAP(
        DGAPConfig(
            init_vertices=16,
            init_edges=64,  # ~8 slots per vertex: gaps run out, chains grow
            elog_size=96,  # 8 entries/section: frequent merges
            segment_slots=64,
        )
    )
    inserted = set()
    for i, (src, dst, delete) in enumerate(ops):
        if mid is not None and i == len(ops) // 2:
            mid(g)
        if delete and (src, dst) in inserted:
            g.delete_edge(src, dst)
            inserted.discard((src, dst))
        else:
            g.insert_edge(src, dst)
            inserted.add((src, dst))
    return g


def _read_and_compact(ops):
    """Every bulk tombstone consumer on one stream.

    A snapshot and a view cache open mid-stream; after the stream the
    snapshot's CSR (stale chains, tombstones) and an incremental view
    refresh are read, then a compaction sweep runs and the compacted
    graph's CSR is read back.  Returns ``(graph, arrays, sweep stats)``.
    """
    held = {}

    def mid(g):
        held["snap"] = g.consistent_view()
        held["cache"] = g.view_cache()
        held["cache"].materialize()

    g = _build(ops, mid)
    with held["snap"] as snap:
        arrays = list(snap.to_csr())
    out, inn = held["cache"].materialize()
    arrays += [*out, *inn]
    stats = g.compact()
    with g.consistent_view() as snap:
        arrays += list(snap.to_csr())
    return g, arrays, stats


def _assert_devices_equal(ga: DGAP, gb: DGAP) -> None:
    da, db = ga.pool.device, gb.pool.device
    assert np.array_equal(da.buf, db.buf)
    assert np.array_equal(da.media, db.media)
    sa, sb = vars(da.stats), vars(db.stats)
    assert sa == sb, {k: (sa[k], sb[k]) for k in sa if sa[k] != sb[k]}


def _assert_graphs_equal(ga: DGAP, gb: DGAP) -> None:
    _assert_devices_equal(ga, gb)
    va, vb = ga.va, gb.va
    nv = va.num_vertices
    assert nv == vb.num_vertices
    for name in ("degree", "live_degree", "array_degree", "start", "el"):
        np.testing.assert_array_equal(
            getattr(va, name)[:nv], getattr(vb, name)[:nv], err_msg=name
        )


def _assert_used(calls, *names) -> None:
    """The seam really ran each named reference (not the vectorized path)."""
    missing = [n for n in names if calls[n] == 0]
    assert not missing, f"scalar arm never called {missing}: {dict(calls)}"


class TestTwinWorkloads:
    """Whole-workload twins: every merge/rebalance lands identically."""

    @given(op_streams)
    @example(HUB_OPS)
    @common
    def test_ingest_equivalence(self, ops):
        with ref.scalar_reference() as calls:
            gs = _build(ops)
        if gs.n_rebalances or gs.n_resizes:  # each one gathers and plans
            _assert_used(calls, "gather_scalar", "plan_scalar")
        _assert_graphs_equal(gs, _build(ops))

    @given(op_streams)
    @example(HUB_OPS)
    @common
    def test_crash_recovery_equivalence(self, ops):
        gv = _build(ops)
        gv.pool.crash()
        rv = DGAP.open(gv.pool, gv.config)
        with ref.scalar_reference() as calls:
            gs = _build(ops)
            gs.pool.crash()
            rs = DGAP.open(gs.pool, gs.config)
        _assert_used(calls, "rebuild_counts_scalar", "scan_edge_array_scalar",
                     "replay_logs_scalar")
        _assert_graphs_equal(rs, rv)
        assert rs.num_edges == rv.num_edges

    @given(op_streams)
    @example(HUB_OPS)
    @common
    def test_forced_rebalance_equivalence(self, ops):
        gv = _build(ops)
        with ref.scalar_reference() as calls:
            gs = _build(ops)
            gs.rebalancer.rebalance_window(0, gs.ea.n_sections, gs.ea.tree.height)
        _assert_used(calls, "gather_scalar", "plan_scalar")
        gv.rebalancer.rebalance_window(0, gv.ea.n_sections, gv.ea.tree.height)
        _assert_graphs_equal(gs, gv)

    @given(op_streams)
    @example(HUB_OPS)
    @common
    def test_read_and_compact_equivalence(self, ops):
        with ref.scalar_reference() as calls:
            gs, arrays_s, stats_s = _read_and_compact(ops)
        _assert_used(calls, "materialize_rows_scalar", "compact_keep_mask_scalar")
        gv, arrays_v, stats_v = _read_and_compact(ops)
        assert stats_s == stats_v
        for a, b in zip(arrays_s, arrays_v):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype
        _assert_graphs_equal(gs, gv)


class TestGatherPlanEquivalence:
    """The rebalance passes themselves, on the same graph instance."""

    @given(op_streams)
    @common
    def test_gather_matches_scalar(self, ops):
        g = _build(ops)
        lo, hi = 0, g.ea.capacity
        i0, j = 0, g.va.num_vertices
        res_v = g.rebalancer._gather(lo, hi, i0, j)
        res_s = ref.gather_scalar(g, lo, hi, i0, j)
        assert res_v.total == res_s.total
        np.testing.assert_array_equal(res_v.sizes, res_s.sizes)
        np.testing.assert_array_equal(res_v.values[: res_v.sizes.sum()],
                                      res_s.values[: res_s.sizes.sum()])
        np.testing.assert_array_equal(np.asarray(res_v.chain_gidxs),
                                      np.asarray(res_s.chain_gidxs))
        for rv, rs in zip(ref.runs(res_v), ref.runs(res_s)):
            np.testing.assert_array_equal(rv, rs)

    @given(op_streams)
    @common
    def test_gather_accounting_matches_scalar(self, ops):
        deltas = []
        for gather in (ref.gather_scalar, lambda g, *w: g.rebalancer._gather(*w)):
            g = _build(ops)
            before = g.pool.device.stats.snapshot()
            gather(g, 0, g.ea.capacity, 0, g.va.num_vertices)
            deltas.append(vars(g.pool.device.stats.delta_since(before)))
        assert deltas[0] == deltas[1]

    @given(op_streams)
    @common
    def test_plan_matches_scalar(self, ops):
        g = _build(ops)
        res = g.rebalancer._gather(0, g.ea.capacity, 0, g.va.num_vertices)
        image_v, starts_v = g.rebalancer._plan(res)
        image_s, starts_s = ref.plan_scalar(g, res)
        np.testing.assert_array_equal(np.asarray(image_v), np.asarray(image_s))
        np.testing.assert_array_equal(np.asarray(starts_v), np.asarray(starts_s))


class TestRecoveryEquivalenceWithFaults:
    """Cursor rebuild on logs with invalidated and torn entries."""

    @given(
        st.lists(  # (section, src, n_appends)
            st.tuples(st.integers(0, 3), st.integers(0, 9), st.integers(1, 10)),
            min_size=0,
            max_size=8,
        ),
        st.data(),
    )
    @common
    def test_rebuild_counts_equivalence(self, chains, data):
        pool = PMemPool(4 << 20)
        logs = EdgeLogs(pool, n_sections=4, entries_per_section=16)
        appended = []
        for section, src, n in chains:
            gidx = -1
            for k in range(n):
                if logs.fill_fraction(section) >= 1.0:
                    break
                gidx = logs.append(section, src, int(encode_edge(k)), gidx)
                appended.append(gidx)
        # invalidate a random subset (zero dst_enc, like post-merge cleanup)
        if appended:
            victims = data.draw(st.lists(st.sampled_from(appended), unique=True))
            logs.invalidate_entries(victims)
            # tear a random *interior* entry fully open: zero another field
            # too (a torn append persists any subset of its three fields)
            torn = data.draw(st.sampled_from(appended))
            s, slot = logs.locate(torn)
            logs.region.write(logs._base(s) + slot * 3 + 2, 0, payload=0)

        logs_v = EdgeLogs(pool, 4, 16, create=False)
        logs_v.rebuild_counts()
        logs_s = EdgeLogs(pool, 4, 16, create=False)
        ref.rebuild_counts_scalar(logs_s)
        np.testing.assert_array_equal(logs_v.counts, logs_s.counts)
        np.testing.assert_array_equal(logs_v.live_counts, logs_s.live_counts)

    def test_rebuild_counts_accounting_matches(self):
        pools = []
        for rebuild in (ref.rebuild_counts_scalar, EdgeLogs.rebuild_counts):
            pool = PMemPool(1 << 20)
            logs = EdgeLogs(pool, 4, 16)
            g = -1
            for d in range(5):
                g = logs.append(2, 7, int(encode_edge(d)), g)
            before = pool.device.stats.snapshot()
            rebuild(logs)
            pools.append(vars(pool.device.stats.delta_since(before)))
        assert pools[0] == pools[1]

    @given(op_streams)
    @common
    def test_recovery_scan_and_replay_match_scalar(self, ops):
        outs = []
        for rebuild, scan in ((ref.rebuild_counts_scalar, ref.scan_edge_array_scalar),
                              (EdgeLogs.rebuild_counts, rec._scan_edge_array)):
            g = _build(ops)
            g.pool.crash()
            rebuild(g.logs)
            outs.append(scan(g))
        for a, b in zip(*outs):
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


def _entry_points():
    return (Rebalancer._gather, Rebalancer._plan, rec._scan_edge_array,
            rec._replay_logs, EdgeLogs.rebuild_counts, DGAPSnapshot.materialize_rows,
            rebalance._compact_keep_mask)


class TestScalarReferenceSeam:
    """The seam routes every entry point and always restores them."""

    def test_routes_and_counts_every_reference(self):
        ops = [(k % 16, (3 * k) % 16, k % 5 == 4) for k in range(200)]
        with ref.scalar_reference() as calls:
            g, _, _ = _read_and_compact(ops)
            g.rebalancer.rebalance_window(0, g.ea.n_sections, g.ea.tree.height)
            g.pool.crash()
            DGAP.open(g.pool, g.config)
        assert sorted(calls) == sorted(ref.REFERENCES)

    def test_restores_entry_points_when_the_block_raises(self):
        originals = _entry_points()
        with pytest.raises(RuntimeError):
            with ref.scalar_reference():
                assert _entry_points() != originals
                raise RuntimeError("boom")
        assert _entry_points() == originals


class TestChainErrors:
    """Both walk forms reject invalidated chain hops identically."""

    def test_walk_and_resolve_agree_on_invalidated(self):
        pool = PMemPool(1 << 20)
        logs = EdgeLogs(pool, 2, 16)
        g0 = logs.append(0, 3, int(encode_edge(1)), -1)
        g1 = logs.append(0, 3, int(encode_edge(2)), g0)
        logs.invalidate_entries([g0])
        with pytest.raises(PMemError, match="invalidated entry"):
            ref.walk_chain(logs, g1)
        with pytest.raises(PMemError, match="invalidated entry"):
            logs.resolve_chains(np.asarray([g1]))


class TestScratchBuffer:
    def test_grow_only_reuse(self):
        from repro.nputil import ScratchBuffer

        sb = ScratchBuffer()
        a = sb.take("x", 100, np.int64)
        assert a.size == 100
        b = sb.take("x", 50, np.int64)
        assert b.base is a.base or b.base is a  # same backing buffer reused
        c = sb.take("x", 10_000, np.int64)
        assert c.size == 10_000  # grew

    def test_zero_fill_and_dtype_keys(self):
        from repro.nputil import ScratchBuffer

        sb = ScratchBuffer()
        a = sb.take("k", 64, np.int32)
        a[:] = 7
        z = sb.take("k", 64, np.int32, zero=True)
        assert not z.any()
        other = sb.take("k", 64, np.int64)
        assert other.dtype == np.int64  # distinct per-dtype buffers

    def test_multi_arange_reference(self):
        from repro.nputil import multi_arange

        starts = np.asarray([5, 0, 100])
        counts = np.asarray([3, 0, 2])
        np.testing.assert_array_equal(multi_arange(starts, counts), [5, 6, 7, 100, 101])
        assert multi_arange(np.empty(0, np.int64), np.empty(0, np.int64)).size == 0
