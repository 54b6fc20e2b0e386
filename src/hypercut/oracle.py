"""Exhaustive max-k-cut oracle: exact ground truth for small instances."""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, integer
from .hypergraph import Hypergraph, KCut, chunk_rows, part_masks

CAPACITY = 10**8  # largest number of assignments k^n scanned


def _growing(length: int, labels: int, top: int) -> np.ndarray:
    """The strings of ``length`` part ids below ``labels`` that may follow a
    growth string whose largest part id is ``top`` (-1 for the empty string;
    each part id at most 1 + the largest before it), in lexicographic order."""
    rows = np.indices((labels,) * length).reshape(length, labels**length).T
    seen = np.maximum.accumulate(np.column_stack([np.full(len(rows), top), rows]), axis=1)
    return rows[(rows <= seen[:, :-1] + 1).all(axis=1)]


def _masks(h: Hypergraph, rows: np.ndarray, first: int) -> np.ndarray:
    """Part masks (d, len(rows)) of rows of part ids on the vertices first,
    first + 1, ...: per edge of h.edges, the parts those vertices meet."""
    bits = np.zeros((h.n, len(rows)), dtype=np.uint8)
    bits[first:first + rows.shape[1]] = np.left_shift(1, rows.T)
    return part_masks(bits, h.columns, axis=0)


def _cut_block(heads: np.ndarray, tails: np.ndarray, weight: np.ndarray, full: int, acc) -> np.ndarray:
    """Cut sizes (heads, tails) of each head | tail of (d, heads) and (d, tails) mask tables: one
    block ORed, compared with ``full``, weighted by ``weight`` (in place in uint8), summed in ``acc``."""
    cut = np.bitwise_or(heads[:, :, None], tails[:, None, :])
    hit = np.equal(cut, full, out=cut.view(bool))
    cut = np.multiply(cut, weight, out=cut) if weight.itemsize == 1 else hit * weight
    return cut.sum(axis=0, dtype=acc)


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
    # k >= 2, so n >= bit_length(CAPACITY) implies k^n > CAPACITY: no k^n for a huge n.
    if h.n >= CAPACITY.bit_length() or k**h.n > CAPACITY:
        raise CapacityError(f"{k}^{h.n} assignments exceed the exhaustive capacity {CAPACITY}")
    if k > h.r or not len(h.edges):  # every string cuts nothing: the first wins
        return KCut.from_assignment(h, np.zeros(h.n, dtype=np.intp), k)
    # Now k <= r <= n and k^n <= 10^8, so k <= 8 and a part set fits a uint8.
    # Each growth string is a head on the first n - t vertices and a tail on
    # the last t; the head table and each tail table hold at most about
    # sqrt(k^n) rows.
    t = h.n // 2
    heads = _growing(h.n - t, k, -1)  # vertex 0 in part 0
    tops = heads.max(axis=1)
    tails = {top: _growing(t, k, top) for top in np.unique(tops).tolist()}
    # A string's part masks are its head's | its tail's.  An edge weighs its multiplicity in the
    # narrowest unsigned dtype that holds the largest; a cut (<= d times it) sums in int32 below 2^31.
    weight = h.mult.astype(np.min_scalar_type(h.mult.max()))[:, None, None]
    acc = np.int32 if len(h.edges) * int(h.mult.max()) < 2**31 else np.int64
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
                vals = _cut_block(head_masks, tail_masks, weight, (1 << k) - 1, acc)
                a, b = np.unravel_index(np.argmax(vals), vals.shape)  # first: smallest
                best = min(best, (-int(vals[a, b]), int(block[a]), j + int(b)))
    _, head, tail = best
    return KCut.from_assignment(h, np.concatenate([heads[head], tails[int(tops[head])][tail]]), k)
