"""Scalar reference twins of the vectorized read path, and the seam to run them.

The rebalance gather/plan passes, the recovery pivot scan, log replay
and log-cursor rebuild, the snapshot's bulk row materialization and the
compaction sweep's tombstone pairing run as whole-window NumPy passes.
The per-slot / per-entry / per-vertex Python loops below are the
implementations they replaced, kept as test oracles: each is result-
and accounting-identical to its vectorized counterpart by contract
(``tests/test_readpath_equivalence.py`` pins it).

:func:`scalar_reference` routes the vectorized entry points to these
references for the duration of a ``with`` block and counts the calls
each reference received, so a twin run can prove the seam was active.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Iterator, List, Tuple

import numpy as np

from ..core import rebalance, recovery
from ..core.edge_log import _FIELDS, ENTRY_BYTES, EdgeLogs
from ..core.encoding import SLOT_DTYPE, TOMB_BIT, encode_pivot
from ..core.rebalance import GatherResult, Rebalancer
from ..core.snapshot import DGAPSnapshot
from ..errors import GraphError, RecoveryError
from ..nputil import multi_arange


def walk_chain(logs: EdgeLogs, head_gidx: int, limit: int = -1) -> list:
    """Newest-first list of ``(gidx, src, dst_enc)`` tuples of one log chain."""
    gidxs, srcs, dst_encs = logs.walk_chain_arrays(head_gidx, limit)
    return list(zip(gidxs.tolist(), srcs.tolist(), dst_encs.tolist()))


def runs(g: GatherResult) -> List[np.ndarray]:
    """Per-vertex edge values (no pivot), as views into ``g.values``."""
    return [g.values[o : o + s] for o, s in zip(g.run_off.tolist(), g.sizes.tolist())]


def gather_result_from_runs(lo, hi, i0, j, runs, chain_gidxs, total) -> GatherResult:
    """Build a :class:`GatherResult` from a per-vertex list of run arrays."""
    sizes = np.fromiter((r.size for r in runs), dtype=np.int64, count=len(runs))
    values = np.concatenate(runs) if runs else np.empty(0, dtype=SLOT_DTYPE)
    return GatherResult(lo, hi, i0, j, values.astype(SLOT_DTYPE, copy=False), sizes,
                        np.cumsum(sizes) - sizes, np.asarray(chain_gidxs, dtype=np.int64), total)


def gather_scalar(host, lo: int, hi: int, i0: int, j: int) -> GatherResult:
    """Per-vertex/per-entry reference of ``Rebalancer._gather``."""
    va, ea, logs = host.va, host.ea, host.logs
    slots = ea.slots
    vruns: List[np.ndarray] = []
    chain_gidxs: List[int] = []
    total = 0
    for v in range(i0, j):
        st = int(va.start[v])
        ad = int(va.array_degree[v])
        arr = slots[st : st + ad].copy()
        el = int(va.el[v])
        if el >= 0:
            chain = walk_chain(logs, el)  # newest first
            if chain and chain[-1][1] != v:
                raise GraphError(f"edge-log chain of vertex {v} is corrupt")
            vals = np.fromiter(
                (c[2] for c in reversed(chain)), dtype=SLOT_DTYPE, count=len(chain)
            )
            chain_gidxs.extend(c[0] for c in chain)
            run = np.concatenate([arr, vals])
        else:
            run = arr
        vruns.append(run)
        total += 1 + run.size  # pivot + edges
    dev = host.pool.device
    dev.account_seq_read((hi - lo) * 4, bucket="rebalance")
    if chain_gidxs:
        dev.account_rnd_read(len(chain_gidxs), 12, bucket="rebalance")
    return gather_result_from_runs(lo, hi, i0, j, vruns, chain_gidxs, total)


def plan_scalar(host, g: GatherResult) -> Tuple[np.ndarray, np.ndarray]:
    """Per-run reference of ``Rebalancer._plan``."""
    W = g.hi - g.lo
    g_runs = runs(g)
    nv = len(g_runs)
    sizes = np.fromiter((1 + r.size for r in g_runs), dtype=np.int64, count=nv)
    T = int(sizes.sum())
    assert T == g.total and T <= W
    gaps = host.rebalancer._gaps(sizes, W - T, T) if nv else sizes
    image = np.zeros(W, dtype=SLOT_DTYPE)
    new_starts = np.zeros(nv, dtype=np.int64)
    pos = 0
    for k, run in enumerate(g_runs):
        image[pos] = encode_pivot(g.i0 + k)
        image[pos + 1 : pos + 1 + run.size] = run
        new_starts[k] = g.lo + pos + 1
        pos += 1 + run.size + int(gaps[k])
    return image, new_starts


def scan_edge_array_scalar(host) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-slot reference of ``recovery._scan_edge_array``."""
    slots = host.ea.slots
    cap = host.ea.capacity
    vids: List[int] = []
    starts: List[int] = []
    array_deg: List[int] = []
    live: List[int] = []
    for i in range(cap):
        s = int(slots[i])
        if s < 0:
            vids.append(-s - 1)
            starts.append(i + 1)
            array_deg.append(0)
            live.append(0)
        elif s != 0 and starts:
            array_deg[-1] += 1
            if s & int(TOMB_BIT):
                live[-1] -= 1
            else:
                live[-1] += 1
    nv = len(vids)
    if nv:
        if any(b <= a for a, b in zip(vids, vids[1:])):
            raise RecoveryError("pivot ids are not strictly increasing — image corrupt")
        if vids[0] != 0 or vids[-1] != nv - 1:
            raise RecoveryError("pivot id space is not dense — image corrupt")
    host.pool.device.account_seq_read(cap * 4, bucket="recovery")
    return (
        np.asarray(starts, dtype=np.int64),
        np.asarray(array_deg, dtype=np.int64),
        np.asarray(live, dtype=np.int64),
    )


def replay_logs_scalar(
    host, nv: int, degree: np.ndarray, live: np.ndarray, el: np.ndarray
) -> None:
    """Per-entry reference of ``recovery._replay_logs``."""
    logs = host.logs
    view = logs.region.view
    total = logs.n_sections * logs.entries_per_section
    n_entries = 0
    for g in range(total):
        p = g * 3
        f0, f1, f2 = int(view[p]), int(view[p + 1]), int(view[p + 2])
        if not (f0 and f1 and f2):
            continue
        n_entries += 1
        s = f0 - 1
        if s >= nv or s < 0:
            raise RecoveryError("edge-log entry references unknown vertex")
        degree[s] += 1
        if f1 & int(TOMB_BIT):
            live[s] -= 1
        else:
            live[s] += 1
        if g > el[s]:
            el[s] = g
    if n_entries:
        host.pool.device.account_rnd_read(n_entries, ENTRY_BYTES, bucket="recovery")


def rebuild_counts_scalar(logs: EdgeLogs) -> None:
    """Per-entry reference of :meth:`EdgeLogs.rebuild_counts`."""
    view = logs.region.view
    counts = np.zeros(logs.n_sections, dtype=np.int64)
    live = np.zeros(logs.n_sections, dtype=np.int64)
    for s in range(logs.n_sections):
        base = logs._base(s)
        for slot in range(logs.entries_per_section):
            p = base + slot * _FIELDS
            f0, f1, f2 = int(view[p]), int(view[p + 1]), int(view[p + 2])
            if f0 or f1 or f2:
                counts[s] = slot + 1
            if f0 and f1 and f2:
                live[s] += 1
    logs.counts = counts
    logs.live_counts = live
    logs.pool.device.account_seq_read(logs.region.nbytes, bucket="recovery")


def compact_keep_mask_scalar(
    values: np.ndarray, sizes: np.ndarray, run_off: np.ndarray
) -> np.ndarray:
    """Per-run dict-of-stacks reference of ``rebalance._compact_keep_mask``."""
    keep = np.ones(values.size, dtype=bool)
    vals = values.tolist()
    tb = int(TOMB_BIT)
    for o, s in zip(run_off.tolist(), sizes.tolist()):
        open_pos: dict = {}
        for i in range(o, o + s):
            enc = vals[i]
            if enc & tb:
                stack = open_pos.get(enc & ~tb)
                if stack:
                    keep[stack.pop()] = False
                    keep[i] = False
            else:
                open_pos.setdefault(enc, []).append(i)
    return keep


def materialize_rows_scalar(snap: DGAPSnapshot, vids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-vertex splice reference of ``DGAPSnapshot.materialize_rows``.

    Rows without a pending chain or a tombstone are gathered in bulk;
    every other row is read on its own through the point-read path
    (:meth:`~repro.core.snapshot.DGAPSnapshot.out_neighbors`).
    """
    snap._check()
    va = snap.host.va
    vids = np.asarray(vids, dtype=np.int64)
    deg_t = snap.degree_t[vids]
    a_now = va.array_degree[vids]
    starts = va.start[vids]
    n_arr = np.minimum(a_now, deg_t)
    idx = multi_arange(starts, n_arr)
    vals = snap.host.ea.slots[idx] if idx.size else np.empty(0, dtype=SLOT_DTYPE)

    needs_chain = deg_t > n_arr
    has_tomb = np.zeros(vids.size, dtype=bool)
    if vals.size:
        tomb_positions = (vals & TOMB_BIT) != 0
        if tomb_positions.any():
            owner = np.repeat(np.arange(vids.size), n_arr)
            has_tomb[np.unique(owner[tomb_positions])] = True
    special = np.nonzero(needs_chain | has_tomb)[0]

    if special.size == 0:
        dsts = (vals & ~TOMB_BIT) - 1
        return n_arr, dsts.astype(np.int32, copy=False)

    # General path: splice per-vertex corrected segments.
    counts = n_arr.copy()
    patches = {}
    for i in special:
        nb = snap.out_neighbors(int(vids[i]))
        patches[int(i)] = nb
        counts[i] = nb.size
    offsets = np.zeros(vids.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    dsts = np.empty(int(offsets[-1]), dtype=np.int32)
    # vectorized fill for ordinary vertices
    ordinary = ~(needs_chain | has_tomb)
    src_idx = multi_arange(starts[ordinary], n_arr[ordinary])
    dst_idx = multi_arange(offsets[:-1][ordinary], counts[ordinary])
    if src_idx.size:
        slot_vals = snap.host.ea.slots[src_idx]
        dsts[dst_idx] = (slot_vals & ~TOMB_BIT) - 1
    for i, nb in patches.items():
        dsts[offsets[i] : offsets[i] + nb.size] = nb
    return counts, dsts


#: (owner, vectorized entry point, reference).  ``Rebalancer`` methods
#: hand the reference their host graph in place of ``self``.
_ROUTES = (
    (Rebalancer, "_gather", gather_scalar),
    (Rebalancer, "_plan", plan_scalar),
    (recovery, "_scan_edge_array", scan_edge_array_scalar),
    (recovery, "_replay_logs", replay_logs_scalar),
    (EdgeLogs, "rebuild_counts", rebuild_counts_scalar),
    (DGAPSnapshot, "materialize_rows", materialize_rows_scalar),
    (rebalance, "_compact_keep_mask", compact_keep_mask_scalar),
)

#: names of every reference the seam routes to (the keys it counts).
REFERENCES = tuple(ref.__name__ for _, _, ref in _ROUTES)


def _routed(calls: Counter, owner, ref):
    def call(head, *args):
        calls[ref.__name__] += 1
        return ref(head.host if owner is Rebalancer else head, *args)

    return call


@contextmanager
def scalar_reference() -> Iterator[Counter]:
    """Run the scalar references in place of the vectorized read path.

    Every DGAP in the process is affected while the block runs.  Yields
    a :class:`~collections.Counter` of calls per reference name (see
    :data:`REFERENCES`); the vectorized entry points are restored on
    exit, also when the block raises.
    """
    calls: Counter = Counter()
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in _ROUTES]
    try:
        for owner, name, ref in _ROUTES:
            setattr(owner, name, _routed(calls, owner, ref))
        yield calls
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


__all__ = [
    "REFERENCES",
    "compact_keep_mask_scalar",
    "gather_result_from_runs",
    "gather_scalar",
    "materialize_rows_scalar",
    "plan_scalar",
    "rebuild_counts_scalar",
    "replay_logs_scalar",
    "runs",
    "scalar_reference",
    "scan_edge_array_scalar",
    "walk_chain",
]
