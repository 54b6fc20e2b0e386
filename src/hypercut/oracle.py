"""Exhaustive max-k-cut oracle: exact ground truth for small instances."""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, integer
from .hypergraph import Hypergraph, KCut, chunk_rows, cut_counts, part_masks

CAPACITY = 10**8  # largest number of assignments k^n scanned


def _growing(length: int, labels: int, top: int) -> np.ndarray:
    """The strings of ``length`` part ids below ``labels`` that may follow a
    growth string whose largest part id is ``top`` (each part id at most 1 +
    the largest before it), in lexicographic order."""
    rows = np.indices((labels,) * length).reshape(length, labels**length).T
    seen = np.maximum.accumulate(np.column_stack([np.full(len(rows), top), rows]), axis=1)
    return rows[(rows <= seen[:, :-1] + 1).all(axis=1)]


def _masks(h: Hypergraph, rows: np.ndarray, first: int) -> np.ndarray:
    """Part masks (len(rows), d) of rows of part ids on the vertices first,
    first + 1, ...: per edge of h.edges, the parts those vertices meet."""
    bits = np.zeros((len(rows), h.n), dtype=np.uint8)
    bits[:, first:first + rows.shape[1]] = np.left_shift(1, rows)
    return part_masks(bits, h.columns)


def brute_force_max_kcut(h: Hypergraph, k: int) -> KCut:
    """Exact maximum k-cut by exhaustive scan over restricted growth strings.

    A cut's value ignores part names, and relabelling parts by first
    occurrence maps every assignment to the lexicographically smallest one of
    its orbit, a restricted growth string (each vertex's part is at most 1 +
    the largest part before it).  Scanning those strings alone in
    lexicographic order therefore returns the first maximizer in
    lexicographic assignment order, with vertex 0 in part 0.
    """
    k = integer("k", k, 2)
    if h.n == 0:
        return KCut.from_assignment(h, (), k)
    # k >= 2, so n >= bit_length(CAPACITY) alone implies k^n > CAPACITY;
    # testing n first keeps k^n from being formed for a huge n.
    if h.n >= CAPACITY.bit_length() or k**h.n > CAPACITY:
        raise CapacityError(
            f"{k}^{h.n} assignments exceed the exhaustive capacity {CAPACITY}"
        )
    if k > h.r or not len(h.edges):  # every string cuts nothing: the first wins
        return KCut.from_assignment(h, np.zeros(h.n, dtype=np.intp), k)
    # Now k <= r <= n and k^n <= 10^8, so k <= 8 and a part set fits a uint8.
    # Each growth string is a head on the first n - t vertices and a tail on
    # the last t; the head table and each tail table hold at most about
    # sqrt(k^n) rows.
    t = h.n // 2
    rest = _growing(h.n - t - 1, k, 0)
    heads = np.column_stack([np.zeros(len(rest), dtype=np.intp), rest])
    tops = heads.max(axis=1)
    tails = {top: _growing(t, k, top) for top in np.unique(tops).tolist()}
    # A string's part masks are its head's | its tail's.
    rows = chunk_rows(max(len(h.edges), h.n))  # strings scored per step
    best = (1, 0, 0)  # (-cut, head, tail) of the first maximizer so far
    for top, tail_rows in tails.items():
        mine = np.flatnonzero(tops == top)
        step = min(len(tail_rows), rows)  # tails per step
        span = rows // step  # heads per step
        for j in range(0, len(tail_rows), step):
            tail_masks = _masks(h, tail_rows[j:j + step], h.n - t)
            for i in range(0, len(mine), span):
                block = mine[i:i + span]
                head_masks = _masks(h, heads[block], 0)
                vals = cut_counts(h, head_masks[:, None] | tail_masks, (1 << k) - 1)
                a, b = np.unravel_index(np.argmax(vals), vals.shape)  # first: smallest
                best = min(best, (-int(vals[a, b]), int(block[a]), j + int(b)))
    _, head, tail = best
    return KCut.from_assignment(h, np.concatenate([heads[head], tails[int(tops[head])][tail]]), k)
