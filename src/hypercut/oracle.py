"""Exhaustive max-k-cut oracle: exact ground truth for small instances."""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, InputError
from .hypergraph import Hypergraph, KCut, cut_values

CAPACITY = 10**8
# Cells gathered per chunk (assignments x edges x r): bounds the chunk's memory.
_CELLS = 1 << 19


def brute_force_max_kcut(h: Hypergraph, k: int) -> KCut:
    """Exact maximum k-cut by exhaustive scan.

    Vertex 0 is pinned to part 0 (part labels are symmetric), and the first
    maximizer in lexicographic assignment order is returned.
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
    total = k ** (h.n - 1)
    powers = k ** np.arange(h.n - 2, -1, -1, dtype=np.int64)
    chunk = max(1, _CELLS // max(h.edges.size, h.n))
    best_val, best_assign = -1, None
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        assigns = np.zeros((len(codes), h.n), dtype=np.intp)
        assigns[:, 1:] = (codes[:, None] // powers) % k
        vals = cut_values(h, assigns, k)
        idx = int(np.argmax(vals))  # first occurrence = lexicographic min
        if vals[idx] > best_val:
            best_val, best_assign = int(vals[idx]), assigns[idx]
    return KCut.from_assignment(h, best_assign, k)
