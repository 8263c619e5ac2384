"""Incremental CSR maintenance for DGAP analysis views.

``DGAPSystem.analysis_view()`` historically rematerialized the whole
out-CSR from the snapshot and rebuilt the in-CSR with an ``O(E log E)``
argsort on every call — even when only a handful of PMA sections
changed since the last analysis round.  :class:`DGAPViewCache` keeps the
last materialized ``(out_indptr, out_dsts)`` / ``(in_indptr, in_srcs)``
pair and, on the next call, rebuilds only what the structure epochs say
moved:

* **stale vertices** — a vertex is stale iff any *dirty* section (one
  stamped after the cache's materialization epoch) intersects its
  current run span ``[start-1, start+array_degree]`` (pivot included).
  Every DGAP mutation that can affect a row — gap insert, edge-log
  append, shift, rebalance window, resize, tombstone — stamps a section
  inside the span, so clean vertices' cached rows are exact.
* **out-CSR patch** — clean rows are gathered from the previous arrays,
  stale rows re-materialized from the snapshot in one whole-set pass
  (:meth:`~repro.core.snapshot.DGAPSnapshot.materialize_rows`: one
  gather of array prefixes, one chain resolution, one vectorized
  tombstone match — no per-vertex loop, however many stale rows carry
  pending chains or tombstones).
* **in-CSR delta merge** — old entries whose source went stale are
  dropped; the stale rows' edges are counting-sorted by destination
  (NumPy's stable integer argsort is a radix sort over the *delta
  only*) and merged in one ``searchsorted`` pass on the combined
  ``dst * nv + src`` key.  Because every source is either wholly stale
  or wholly clean, no key collides across the two groups and the result
  is bit-identical to :func:`~repro.analysis.view.build_in_csr`'s full
  stable sort — which matters because PR's ``bincount`` float summation
  order follows ``in_srcs`` order.

When most of the graph moved (resize stamps everything) patching would
touch nearly every row anyway, so the cache falls back to a full
rebuild above :data:`FULL_REBUILD_STALE_FRACTION`.

None of this changes modeled analysis time: materialization reads the
simulated arrays without accounting (as the from-scratch path always
has), and kernels charge the same geometry-derived costs either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nputil import multi_arange
from ..obs.tracer import annotate, trace
from .view import ID_DTYPE, INDPTR_DTYPE, build_in_csr_from

#: stale-vertex share above which patching loses to a from-scratch
#: rebuild (a resize stamps every section, so this also catches
#: generation switches).
FULL_REBUILD_STALE_FRACTION = 0.9

CSRPair = Tuple[np.ndarray, np.ndarray]


@dataclass
class ViewCacheStats:
    """Materialization counters — the incrementality evidence."""

    #: materializations served entirely from scratch (includes the first).
    full_rebuilds: int = 0
    #: materializations that patched only stale rows.
    incremental_builds: int = 0
    #: dirty sections covered by rebuilds (== n_sections for a full one).
    sections_rebuilt: int = 0
    #: vertices whose rows were re-materialized.
    vertices_rebuilt: int = 0
    #: clean rows copied over from the previous materialization.
    rows_reused: int = 0
    #: delta edges merged into the in-CSR (incremental builds only).
    delta_edges_merged: int = 0
    #: superseded in-CSR entries dropped before the merge.
    in_entries_dropped: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "full_rebuilds": self.full_rebuilds,
            "incremental_builds": self.incremental_builds,
            "sections_rebuilt": self.sections_rebuilt,
            "vertices_rebuilt": self.vertices_rebuilt,
            "rows_reused": self.rows_reused,
            "delta_edges_merged": self.delta_edges_merged,
            "in_entries_dropped": self.in_entries_dropped,
        }


class DGAPViewCache:
    """Epoch-versioned (out, in) CSR cache for one :class:`~repro.core.dgap.DGAP`.

    Made by ``DGAP.view_cache()``; :meth:`materialize`, :attr:`stats`,
    :attr:`local_counts` and :meth:`epoch_key` are the interface it
    shares with :class:`~repro.sharding.merge.ShardedViewCache`.

    ``id_stride`` / ``row_ids`` generalize the cache for sharded builds
    (:mod:`repro.sharding`): out-CSR row ``i`` carries the source id
    ``row_ids(nv)[i]`` in the in-CSR (ids must ascend, with
    ``id == i * id_stride + something < id_stride`` so the inverse is a
    floor division), and the in-CSR destination domain can be widened to
    a caller-supplied ``dst_nv`` (the *global* vertex count).  The
    defaults — stride 1, identity ids, ``dst_nv=None`` — reproduce the
    unsharded behavior exactly.
    """

    def __init__(self, graph, id_stride: int = 1, row_ids=None) -> None:
        self.graph = graph
        self._counters = ViewCacheStats()
        self.id_stride = int(id_stride)
        self.row_ids = row_ids
        self._out: Optional[CSRPair] = None
        self._in: Optional[CSRPair] = None
        self._epoch = -1
        self._nv = 0
        self._dst_nv = 0

    def _row_ids(self, nv: int) -> np.ndarray:
        if self.row_ids is None:
            return np.arange(nv, dtype=ID_DTYPE)
        return np.asarray(self.row_ids(nv), dtype=ID_DTYPE)

    # -- interface shared with ShardedViewCache ----------------------------
    @property
    def stats(self) -> List[ViewCacheStats]:
        """Per-shard counters: a single entry for an unsharded graph."""
        return [self._counters]

    @property
    def local_counts(self) -> List[int]:
        """Per-shard vertex count of the last materialization."""
        return [self._nv]

    def epoch_key(self) -> int:
        """The graph's current structure epoch; equal keys, equal views."""
        return int(self.graph.structure_epoch)

    def materialize(self) -> Tuple[CSRPair, CSRPair]:
        """Current ``((out_indptr, out_dsts), (in_indptr, in_srcs))``.

        Opens its own snapshot of the graph.  The returned arrays are
        owned by the cache and shared with analysis views; they are
        never mutated afterwards (each refresh allocates new ones).
        """
        with self.graph.consistent_view() as snap:
            return self.materialize_from(snap)

    def materialize_from(self, snap, dst_nv: Optional[int] = None) -> Tuple[CSRPair, CSRPair]:
        """:meth:`materialize` from an open snapshot at the current epoch.

        ``dst_nv`` widens the in-CSR destination domain (sharded builds
        pass the global vertex count); it must not shrink between calls.
        """
        g = self.graph
        epoch = int(g.structure_epoch)
        nv = snap.num_vertices
        if dst_nv is None:
            dst_nv = nv
        with trace("view_materialize"):
            if self._out is None:
                annotate(mode="full")
                out, inn = self._full_build(snap, nv, dst_nv)
            else:
                dirty = g.sections_dirty_since(self._epoch)
                stale = self._stale_vertices(dirty, nv)
                n_stale = int(stale.sum())
                if n_stale == 0 and nv == self._nv:
                    # Epoch moved but nothing a view can observe changed
                    # (the destination domain may still have grown via
                    # other shards — extend the in-indptr with empties).
                    annotate(mode="reuse")
                    out, inn = self._out, self._in
                    if dst_nv != self._dst_nv:
                        inn = (_extend_indptr(inn[0], dst_nv), inn[1])
                    self._counters.incremental_builds += 1
                    self._counters.rows_reused += nv
                elif n_stale >= FULL_REBUILD_STALE_FRACTION * nv:
                    annotate(mode="full")
                    out, inn = self._full_build(snap, nv, dst_nv)
                else:
                    annotate(mode="incremental", stale_vertices=n_stale)
                    self._counters.incremental_builds += 1
                    self._counters.sections_rebuilt += int(np.count_nonzero(dirty))
                    self._counters.vertices_rebuilt += n_stale
                    self._counters.rows_reused += nv - n_stale
                    stale_vids = np.flatnonzero(stale)
                    out, s_counts, s_dsts = self._patch_out(snap, nv, stale, stale_vids)
                    inn = self._merge_in(
                        nv, dst_nv, stale, stale_vids, s_counts, s_dsts
                    )
        self._out, self._in = out, inn
        self._epoch, self._nv, self._dst_nv = epoch, nv, dst_nv
        return out, inn

    # -- staleness ---------------------------------------------------------
    def _stale_vertices(self, dirty: np.ndarray, nv: int) -> np.ndarray:
        """Vertices whose current run span intersects a dirty section."""
        g = self.graph
        stale = np.zeros(nv, dtype=bool)
        if dirty.any():
            va = g.va
            starts = va.start[:nv]
            adeg = va.array_degree[:nv]
            S = g.ea.segment_slots
            sec_lo = (starts - 1) // S  # pivot's section
            sec_hi = (starts + adeg - 1) // S  # last run slot (== pivot if empty)
            cum = np.concatenate(([0], np.cumsum(dirty)))
            stale = cum[sec_hi + 1] > cum[sec_lo]
        if self._nv < nv:
            stale[self._nv :] = True  # vertices born after the cached build
        return stale

    # -- out-CSR -----------------------------------------------------------
    def _full_build(self, snap, nv: int, dst_nv: int) -> Tuple[CSRPair, CSRPair]:
        self._counters.full_rebuilds += 1
        self._counters.sections_rebuilt += int(self.graph.ea.n_sections)
        self._counters.vertices_rebuilt += nv
        out = snap.to_csr()
        inn = build_in_csr_from(out[0], out[1], self._row_ids(nv), dst_nv)
        return out, inn

    def _patch_out(
        self, snap, nv: int, stale: np.ndarray, stale_vids: np.ndarray
    ) -> Tuple[CSRPair, np.ndarray, np.ndarray]:
        prev_indptr, prev_dsts = self._out  # type: ignore[misc]
        prev_counts = np.diff(prev_indptr)
        clean_vids = np.flatnonzero(~stale)  # all < self._nv by construction
        s_counts, s_dsts = snap.materialize_rows(stale_vids)

        counts = np.empty(nv, dtype=np.int64)
        counts[clean_vids] = prev_counts[clean_vids]
        counts[stale_vids] = s_counts
        indptr = np.zeros(nv + 1, dtype=INDPTR_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        dsts = np.empty(int(indptr[-1]), dtype=ID_DTYPE)
        src_idx = multi_arange(prev_indptr[clean_vids], prev_counts[clean_vids])
        dst_idx = multi_arange(indptr[:-1][clean_vids], counts[clean_vids])
        if src_idx.size:
            dsts[dst_idx] = prev_dsts[src_idx]
        s_idx = multi_arange(indptr[:-1][stale_vids], s_counts)
        if s_idx.size:
            dsts[s_idx] = s_dsts
        return (indptr, dsts), s_counts, s_dsts

    # -- in-CSR ------------------------------------------------------------
    def _merge_in(
        self,
        nv: int,
        dst_nv: int,
        stale: np.ndarray,
        stale_vids: np.ndarray,
        s_counts: np.ndarray,
        s_dsts: np.ndarray,
    ) -> CSRPair:
        prev_in_indptr, prev_in_srcs = self._in  # type: ignore[misc]
        prev_dst_nv = prev_in_indptr.size - 1
        old_dst = np.repeat(
            np.arange(prev_dst_nv, dtype=np.int64), np.diff(prev_in_indptr)
        )
        # prev_in_srcs carry source *ids* (global under sharding); the
        # stale mask is indexed by local row.
        if self.id_stride == 1 and self.row_ids is None:
            keep = ~stale[prev_in_srcs]
        else:
            keep = ~stale[prev_in_srcs // self.id_stride]
        ko_dst = old_dst[keep]
        ko_src = prev_in_srcs[keep]
        self._counters.in_entries_dropped += int(prev_in_srcs.size - ko_src.size)

        # Counting-sort the delta by destination: a stable integer
        # argsort over the delta only (NumPy radix-sorts ints) — never a
        # full-graph sort.
        delta_src = np.repeat(self._row_ids(nv)[stale_vids], s_counts)
        order = np.argsort(s_dsts, kind="stable")
        kd_dst = s_dsts[order].astype(np.int64)
        kd_src = delta_src[order]
        self._counters.delta_edges_merged += int(kd_src.size)

        # Single merge pass on the (dst, src) key.  Sources are wholly
        # stale or wholly clean, so no key appears in both sides and the
        # merged order is exactly build_in_csr's (dst, src, insertion)
        # order — bit-identical in_srcs.  The multiplier only has to
        # exceed every source id; ``dst_nv`` does (ids live in the
        # destination domain), and it equals ``nv`` when unsharded.
        ko_key = ko_dst * dst_nv + ko_src
        kd_key = kd_dst * dst_nv + kd_src
        pos_d = np.searchsorted(ko_key, kd_key, side="left") + np.arange(kd_key.size)
        total = ko_key.size + kd_key.size
        in_srcs = np.empty(total, dtype=ID_DTYPE)
        old_mask = np.ones(total, dtype=bool)
        old_mask[pos_d] = False
        in_srcs[pos_d] = kd_src
        in_srcs[old_mask] = ko_src

        counts = np.bincount(ko_dst, minlength=dst_nv) + np.bincount(
            kd_dst, minlength=dst_nv
        )
        in_indptr = np.zeros(dst_nv + 1, dtype=INDPTR_DTYPE)
        np.cumsum(counts, out=in_indptr[1:])
        return in_indptr, in_srcs


def _extend_indptr(indptr: np.ndarray, dst_nv: int) -> np.ndarray:
    """Widen an in-indptr to a grown destination domain (empty tail rows)."""
    if indptr.size == dst_nv + 1:
        return indptr
    ext = np.full(dst_nv + 1 - indptr.size, indptr[-1], dtype=INDPTR_DTYPE)
    return np.concatenate((indptr, ext))


__all__ = ["DGAPViewCache", "ViewCacheStats", "FULL_REBUILD_STALE_FRACTION"]
