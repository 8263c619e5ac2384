"""Small NumPy primitives shared across core and kernel code."""

from __future__ import annotations

import numpy as np


def multi_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s+c)`` per (start, count) pair, vectorized.

    The gather primitive behind both the snapshot CSR materialization
    and the kernels' edge gathers; always returns int64 indices.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    cum = np.cumsum(counts)
    # one fused repeat of (start - run_offset) instead of two
    base = np.asarray(starts, dtype=np.int64) - cum + counts
    return np.arange(total, dtype=np.int64) + np.repeat(base, counts)


def match_tombstones(owner: np.ndarray, key: np.ndarray, tomb: np.ndarray):
    """Pair every tombstone with the live copy it cancels, vectorized.

    Elements are in logical (insertion) order within each ``owner``.  A
    tombstone cancels the most recent earlier *uncancelled* live element
    with the same ``(owner, key)``; one with none is unmatched.  That is
    nearest-unmatched-open bracket matching per ``(owner, key)`` group
    (live = open, tombstone = close), done here in three whole-array
    steps:

    1. a stable sort on ``(owner, key)`` keeps position order inside
       each group;
    2. a running depth per group: a close that drives the depth to a new
       negative prefix minimum finds no open left and is unmatched;
    3. with those closes removed, each open sits at level ``depth`` and
       each close at ``depth + 1`` (``depth`` counted after the element),
       so in ``(group, level, position)`` order every matched close
       directly follows the open it cancels.

    Returns boolean masks ``(matched_live, matched_tomb)`` aligned with
    the inputs.  Owners and keys are ids below ``2**31`` (vertex ids,
    slot encodings), so the combined sort key fits in int64.
    """
    tomb = np.asarray(tomb, dtype=bool)
    n = int(tomb.size)
    matched_live = np.zeros(n, dtype=bool)
    matched_tomb = np.zeros(n, dtype=bool)
    if not tomb.any():
        return matched_live, matched_tomb
    owner = np.asarray(owner, dtype=np.int64)
    key = np.asarray(key, dtype=np.int64)
    # only owners holding a tombstone can match anything
    tomb_owner = np.zeros(int(owner.max()) + 1, dtype=bool)
    tomb_owner[owner[tomb]] = True
    sel = np.flatnonzero(tomb_owner[owner])
    k = key[sel]
    kmin = int(k.min())
    group_key = owner[sel] * (int(k.max()) - kmin + 1) + (k - kmin)
    order = np.argsort(group_key, kind="stable")
    group_key, t = group_key[order], tomb[sel][order]
    m = int(sel.size)
    new_group = np.ones(m, dtype=bool)
    new_group[1:] = group_key[1:] != group_key[:-1]
    first = np.maximum.accumulate(np.where(new_group, np.arange(m), 0))

    def depth_after(step):
        cum = np.cumsum(step)
        return cum - (cum - step)[first]

    step = np.where(t, -1, 1).astype(np.int64)
    depth = depth_after(step)
    # group-offset trick: a segmented running minimum of the depth
    # before each element (groups only ever get lower, by more than any
    # in-group swing, so each group's minimum restarts at its own 0)
    gid = np.cumsum(new_group) - 1
    before_min = np.minimum.accumulate(depth - step - gid * (2 * m + 2)) + gid * (2 * m + 2)
    unmatched = t & (depth < before_min)
    step[unmatched] = 0
    depth = depth_after(step)
    live = ~unmatched
    level = np.where(t, depth + 1, depth)[live]
    pos = np.flatnonzero(live)
    pair_order = np.argsort(gid[live] * (m + 1) + level, kind="stable")
    closes = np.flatnonzero(t[live][pair_order])
    tomb_at = sel[order[pos[pair_order[closes]]]]
    live_at = sel[order[pos[pair_order[closes - 1]]]]
    matched_tomb[tomb_at] = True
    matched_live[live_at] = True
    return matched_live, matched_tomb


class ScratchBuffer:
    """Grow-only reusable DRAM scratch arrays, keyed by purpose.

    The rebalance and recovery hot paths repeatedly need short-lived
    work arrays whose sizes vary run to run (a window image here, a
    gathered value buffer there).  Allocating them fresh each time costs
    more than the arithmetic on them; this pool hands out views of
    keyed backing buffers that only ever grow (geometrically), so the
    steady state allocates nothing.

    ``take(key, n, dtype)`` returns an *uninitialized* length-``n`` view
    — callers must overwrite it fully (or ``zero=True`` to get it
    cleared).  Views alias the backing buffer: a borrowed array is valid
    until the next ``take`` with the same key.
    """

    __slots__ = ("_bufs",)

    def __init__(self):
        self._bufs: dict = {}

    def take(self, key: str, n: int, dtype=np.int64, zero: bool = False) -> np.ndarray:
        dt = np.dtype(dtype)
        buf = self._bufs.get((key, dt))
        if buf is None or buf.size < n:
            cap = max(int(n), 256, 0 if buf is None else 2 * buf.size)
            buf = np.empty(cap, dtype=dt)
            self._bufs[(key, dt)] = buf
        out = buf[:n]
        if zero:
            out[:] = 0
        return out


__all__ = ["match_tombstones", "multi_arange", "ScratchBuffer"]
