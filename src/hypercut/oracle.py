"""Exhaustive max-k-cut oracle: exact ground truth for small instances."""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, InputError
from .hypergraph import Hypergraph, KCut, chunk_rows, cut_values

CAPACITY = 10**8  # largest number of assignments k^n scanned


def _growing(length: int, labels: int, top: int) -> np.ndarray:
    """The strings of ``length`` part ids below ``labels`` that may follow a
    growth string whose largest part id is ``top`` (each part id at most 1 +
    the largest before it), in lexicographic order."""
    rows = np.indices((labels,) * length).reshape(length, labels**length).T
    seen = np.maximum.accumulate(np.column_stack([np.full(len(rows), top), rows]), axis=1)
    return rows[(rows <= seen[:, :-1] + 1).all(axis=1)]


def brute_force_max_kcut(h: Hypergraph, k: int) -> KCut:
    """Exact maximum k-cut by exhaustive scan over restricted growth strings.

    A cut's value ignores part names, and relabelling parts by first
    occurrence maps every assignment to the lexicographically smallest one of
    its orbit, a restricted growth string (each vertex's part is at most 1 +
    the largest part before it).  Scanning those strings alone in
    lexicographic order therefore returns the first maximizer in
    lexicographic assignment order, with vertex 0 in part 0.
    """
    if k < 2:
        raise InputError(f"need k >= 2, got k={k}")
    if h.n == 0:
        return KCut.from_assignment(h, (), k)
    # k >= 2, so n >= bit_length(CAPACITY) alone implies k^n > CAPACITY;
    # testing n first keeps k^n from being formed for a huge n.
    if h.n >= CAPACITY.bit_length() or k**h.n > CAPACITY:
        raise CapacityError(
            f"{k}^{h.n} assignments exceed the exhaustive capacity {CAPACITY}"
        )
    # Each growth string is a head on the first n - t vertices and a tail on
    # the last t; the head table and each tail table hold at most about
    # sqrt(k^n) rows.
    labels, t = min(k, h.n), h.n // 2
    rest = _growing(h.n - t - 1, labels, 0)
    heads = np.column_stack([np.zeros(len(rest), dtype=np.intp), rest])
    tops = heads.max(axis=1)
    tails = [_growing(t, labels, top) for top in range(labels)]
    sizes = np.array([len(rows) for rows in tails])
    ends = np.cumsum(sizes[tops])  # growth strings through each head
    # string g has head i = searchsorted(ends, g, "right") and tail
    # flat[g + shift[i]], flat holding the tails of each top in turn
    flat = np.concatenate(tails)
    shift = (np.cumsum(sizes) - sizes)[tops] - (ends - sizes[tops])
    chunk = chunk_rows(h)
    best_val, best_assign = -1, None
    total = int(ends[-1])
    for start in range(0, total, chunk):
        g = np.arange(start, min(start + chunk, total))
        i = np.searchsorted(ends, g, side="right")
        assigns = np.concatenate([heads[i], flat[g + shift[i]]], axis=1)
        vals = cut_values(h, assigns, k)
        idx = int(np.argmax(vals))  # first occurrence = lexicographic min
        if vals[idx] > best_val:
            best_val, best_assign = int(vals[idx]), assigns[idx]
    return KCut.from_assignment(h, best_assign, k)
