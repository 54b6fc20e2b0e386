"""Exhaustive max-k-cut oracle: exact ground truth for small instances."""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, InputError
from .hypergraph import Hypergraph, KCut

CAPACITY = 10**8
_CHUNK = 1 << 15


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
    free = h.n - 1
    total = k**free
    verts = np.array([v for v, _ in h.edges], dtype=np.intp).reshape(
        len(h.edges), h.r
    )
    mult = np.array([m for _, m in h.edges], dtype=np.int64)
    powers = k ** np.arange(free - 1, -1, -1, dtype=np.int64) if free else None
    best_val = -1
    best_assign: np.ndarray | None = None
    for start in range(0, max(total, 1), _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        chunk = len(codes)
        assigns = np.zeros((chunk, h.n), dtype=np.intp)
        if free:
            assigns[:, 1:] = (codes[:, None] // powers) % k
        if len(mult) == 0:
            vals = np.zeros(chunk, dtype=np.int64)
        else:
            vals = np.zeros(chunk, dtype=np.int64)
            for e in range(len(mult)):
                parts = assigns[:, verts[e]]
                flag = np.ones(chunk, dtype=bool)
                for p in range(k):
                    flag &= (parts == p).any(axis=1)
                vals += mult[e] * flag
        top = int(vals.max(initial=0))
        if top > best_val:
            idx = int(np.argmax(vals))  # first occurrence = lexicographic min
            best_val = top
            best_assign = assigns[idx].copy()
    assert best_assign is not None
    return KCut.from_assignment(h, best_assign, k)
