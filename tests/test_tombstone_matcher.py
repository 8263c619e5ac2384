"""Differentials for the one vectorized tombstone matcher and its bulk reader.

:func:`repro.nputil.match_tombstones` replaces two per-element loops: the
snapshot's point-read rule (``snapshot._apply_tombstones``: every
tombstone is dropped, each cancelling the most recent earlier live copy)
and compaction's pairing (``reference.compact_keep_mask_scalar``: only
matched pairs are dropped).  These tests pin it against both scalar
rules, then pin :meth:`DGAPSnapshot.materialize_rows` against per-vertex
:meth:`DGAPSnapshot.out_neighbors` on snapshots taken mid-stream.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DGAP, DGAPConfig
from repro.core.encoding import TOMB_BIT
from repro.core.snapshot import _apply_tombstones
from repro.nputil import match_tombstones
from repro.testing.reference import compact_keep_mask_scalar

common = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# per-owner runs of (key, tombstone?) on a tiny key space: repeated keys,
# deletes of absent keys and delete-then-reinsert all come up often
runs_st = st.lists(
    st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=30),
    max_size=6,
)


def _flatten(runs):
    sizes = np.asarray([len(r) for r in runs], dtype=np.int64)
    owner = np.repeat(np.arange(sizes.size), sizes)
    key = np.asarray([k for r in runs for k, _ in r], dtype=np.int64)
    tomb = np.asarray([t for r in runs for _, t in r], dtype=bool)
    return sizes, owner, key, tomb


class TestMatcherDifferentials:
    @given(runs_st)
    @common
    def test_matches_compaction_rule(self, runs):
        sizes, owner, key, tomb = _flatten(runs)
        values = np.where(tomb, (key + 1) | int(TOMB_BIT), key + 1).astype(np.int32)
        want = compact_keep_mask_scalar(values, sizes, np.cumsum(sizes) - sizes)
        matched_live, matched_tomb = match_tombstones(owner, key, tomb)
        np.testing.assert_array_equal(~(matched_live | matched_tomb), want)
        assert not (matched_live & tomb).any() and not (matched_tomb & ~tomb).any()
        assert matched_live.sum() == matched_tomb.sum()

    @given(runs_st)
    @common
    def test_matches_read_rule(self, runs):
        sizes, owner, key, tomb = _flatten(runs)
        matched_live, _ = match_tombstones(owner, key, tomb)
        keep = ~(tomb | matched_live)
        for r in range(sizes.size):
            row = owner == r
            want = _apply_tombstones(key[row], tomb[row])
            np.testing.assert_array_equal(key[row][keep[row]], want)

    @given(runs_st, st.randoms(use_true_random=False))
    @common
    def test_interleaved_owners_match_grouped(self, runs, rnd):
        """Owners need not be contiguous: only order within an owner counts."""
        sizes, owner, key, tomb = _flatten(runs)
        # a random interleaving of the runs that keeps each owner's order
        labels = rnd.sample(owner.tolist(), owner.size)
        nxt = (np.cumsum(sizes) - sizes).tolist()
        perm = []
        for o in labels:
            perm.append(nxt[o])
            nxt[o] += 1
        perm = np.asarray(perm, dtype=np.int64)
        ml, mt = match_tombstones(owner, key, tomb)
        pml, pmt = match_tombstones(owner[perm], key[perm], tomb[perm])
        np.testing.assert_array_equal(pml, ml[perm])
        np.testing.assert_array_equal(pmt, mt[perm])

    @pytest.mark.parametrize(
        "seq, live, tombs",
        [
            ([], [], []),
            ([(3, False)], [], []),  # nothing to cancel
            ([(1, True), (1, False)], [], []),  # delete before insert: unmatched
            ([(2, False), (2, True), (2, False)], [0], [1]),  # delete, re-insert
            ([(2, False), (2, False), (2, True)], [1], [2]),  # newest copy first
            ([(4, False), (4, False), (4, True), (4, True), (4, True)], [0, 1], [2, 3]),
            ([(1, False), (2, True), (1, True)], [0], [2]),  # keys never cross
        ],
    )
    def test_pinned_cases(self, seq, live, tombs):
        key = np.asarray([k for k, _ in seq], dtype=np.int64)
        tomb = np.asarray([t for _, t in seq], dtype=bool)
        ml, mt = match_tombstones(np.zeros(key.size, dtype=np.int64), key, tomb)
        assert np.flatnonzero(ml).tolist() == live
        assert np.flatnonzero(mt).tolist() == tombs

    def test_owners_never_cross(self):
        ml, mt = match_tombstones(np.asarray([0, 1]), np.asarray([7, 7]),
                                  np.asarray([False, True]))
        assert not ml.any() and not mt.any()


# -- bulk reads vs point reads on mid-stream snapshots ------------------------

#: 24 vertices on a 512-edge array with a roomy edge log: the four hub
#: sources outgrow their gaps early, so later edges (and deletes) pile up
#: in chains that merges rarely drain between snapshots.
MID_CFG = dict(init_vertices=24, init_edges=512, segment_slots=64, elog_size=4096)

op_streams = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 7), st.booleans()),
    max_size=80,
)


def _seeded_ops(seed: int, n: int = 250):
    """A hub-heavy stream long enough to outgrow the gaps and grow chains
    (drawn from a seed so hypothesis shrinks one integer, not 250 ops)."""
    rng = np.random.default_rng(seed)
    p_del = rng.uniform(0.1, 0.5)
    return list(zip(rng.integers(0, 4, n).tolist(), rng.integers(0, 8, n).tolist(),
                    (rng.random(n) < p_del).tolist()))


def _midstream(ops, every: int, cow: bool):
    """Apply ``ops`` one by one, opening a snapshot every ``every`` ops."""
    g = DGAP(DGAPConfig(**MID_CFG, cow_degree_cache=cow))
    snaps = []
    for i, (src, dst, delete) in enumerate(ops):
        (g.delete_edge if delete else g.insert_edge)(src, dst)
        if (i + 1) % every == 0:
            snaps.append(g.consistent_view())
    snaps.append(g.consistent_view())
    return g, snaps


def _assert_rows_match(snap, vids):
    counts, dsts = snap.materialize_rows(vids)
    rows = [snap.out_neighbors(int(v)) for v in vids]
    np.testing.assert_array_equal(counts, [r.size for r in rows])
    np.testing.assert_array_equal(dsts, np.concatenate(rows) if rows else [])
    assert counts.dtype == np.int64 and dsts.dtype == np.int32


def _shape(g, snap):
    """(stale chains, tombstoned array parts, tombstoned chain parts)."""
    va = g.va
    skipped = arr_tomb = chain_tomb = 0
    for v in range(snap.num_vertices):
        deg_t, a_now = int(snap.degree_t[v]), int(va.array_degree[v])
        tomb = (snap.slot_values(v) & TOMB_BIT) != 0
        skipped += deg_t > a_now and int(va.degree[v]) > deg_t
        arr_tomb += bool(tomb[: min(a_now, deg_t)].any())
        chain_tomb += bool(tomb[min(a_now, deg_t):].any())
    return skipped, arr_tomb, chain_tomb


class TestMaterializeRows:
    @given(st.integers(0, 2**16), op_streams, st.integers(5, 60), st.booleans(), st.data())
    @settings(common, max_examples=25)
    def test_matches_point_reads(self, seed, tail, every, cow, data):
        g, snaps = _midstream(_seeded_ops(seed) + tail, every, cow)
        for snap in snaps:
            nv = snap.num_vertices
            _assert_rows_match(snap, np.arange(nv, dtype=np.int64))
            vids = data.draw(st.lists(st.integers(0, nv - 1), max_size=12))
            _assert_rows_match(snap, np.asarray(vids, dtype=np.int64))
            snap.release()

    @pytest.mark.parametrize("cow", [False, True])
    def test_stale_chains_and_tombstones_in_both_parts(self, cow):
        g, snaps = _midstream(_seeded_ops(3, 400), 25, cow)
        shapes = np.asarray([_shape(g, s) for s in snaps]).sum(axis=0)
        assert (shapes > 0).all(), shapes  # the differential hits every branch
        for snap in snaps:
            _assert_rows_match(snap, np.arange(snap.num_vertices, dtype=np.int64))
            snap.release()

    @pytest.mark.parametrize("deletes", [False, True])
    def test_results_never_alias_persistent_buffers(self, deletes):
        g = DGAP(DGAPConfig(**MID_CFG))
        for k in range(120):
            g.insert_edge(k % 4, k % 7)
            if deletes and k % 3 == 0:
                g.delete_edge(k % 4, k % 7)
        buf = g.pool.device.buf
        with g.consistent_view() as snap:
            vids = np.arange(snap.num_vertices, dtype=np.int64)
            counts, dsts = snap.materialize_rows(vids)
            assert not np.shares_memory(dsts, buf)
            assert not np.shares_memory(counts, buf)
            assert not np.shares_memory(counts, snap.degree_t)
            before = buf.copy()
            dsts[:] = -5
            counts[:] = -5
            assert np.array_equal(buf, before)
            c2, d2 = snap.materialize_rows(vids)
            assert (d2 >= 0).all() and (c2 >= 0).all()

