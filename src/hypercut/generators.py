"""Seeded instance generators: binomial random r-graphs, greedy random linear
3-graphs, and complete hypergraphs, plus the Edwards surplus bound."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import CapacityError, InputError
from .hypergraph import Hypergraph

# Largest number of potential edges C(n, r) a generator enumerates.
MAX_CANDIDATES = 10**8


def _candidates(r: int, n: int) -> int:
    """C(n, r), once it is known to be within MAX_CANDIDATES."""
    if r < 2 or n < 0:
        raise InputError(f"need r >= 2 and n >= 0, got r={r}, n={n}")
    total = math.comb(n, r)
    if total > MAX_CANDIDATES:
        raise CapacityError(
            f"C({n}, {r}) = {total} potential edges exceed {MAX_CANDIDATES}"
        )
    return total


def _combinations(r: int, n: int, keep: np.ndarray | None = None) -> Hypergraph:
    """The r-subsets of range(n) in lexicographic order, each an edge of
    multiplicity 1; only those flagged in ``keep`` when it is given."""
    count = _candidates(r, n)
    combos = itertools.combinations(range(n), r)
    if keep is not None:
        combos, count = itertools.compress(combos, keep), int(keep.sum())
    flat = itertools.chain.from_iterable(combos)
    rows = np.fromiter(flat, dtype=np.intp, count=count * r).reshape(count, r)
    return Hypergraph(r, n, rows, np.ones(count, dtype=np.int64))


def gen_random_uniform(r: int, n: int, p: float, seed: int) -> Hypergraph:
    """Each of the C(n, r) potential edges included independently with
    probability p; deterministic given the seed."""
    if not (0.0 <= p <= 1.0):
        raise InputError(f"probability must be in [0,1], got {p}")
    keep = np.random.default_rng(seed).random(_candidates(r, n)) < p
    return _combinations(r, n, keep)


def gen_random_3graph(n: int, p: float, seed: int) -> Hypergraph:
    return gen_random_uniform(3, n, p, seed)


def gen_random_linear_3graph(
    n: int, target_m: int, seed: int
) -> tuple[Hypergraph, bool]:
    """Greedy random packing of triples with pairwise intersections <= 1.

    Samples random triples and keeps those reusing no pair; gives up after
    50 * target_m rejections.  Returns (hypergraph, shortfall) where
    shortfall is True when the target was not reached.
    """
    if target_m < 0:
        raise InputError(f"target edge count must be >= 0, got {target_m}")
    if n >= 3 and target_m > n * (n - 1) // 6:
        raise InputError(
            f"target {target_m} exceeds the pair-packing bound {n * (n - 1) // 6}"
        )
    if n < 3 and target_m > 0:
        raise InputError("need at least 3 vertices for any triple")
    rng = np.random.default_rng(seed)
    used_pairs: set[tuple[int, int]] = set()
    edges: list[tuple[int, int, int]] = []
    rejections = 0
    budget = 50 * target_m
    while len(edges) < target_m and rejections <= budget:
        tri = tuple(sorted(int(v) for v in rng.choice(n, size=3, replace=False)))
        pairs = [(tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])]
        if any(pr in used_pairs for pr in pairs):
            rejections += 1
            continue
        used_pairs.update(pairs)
        edges.append(tri)
    return Hypergraph.from_edges(3, n, edges), len(edges) < target_m


def gen_complete(r: int, n: int) -> Hypergraph:
    if n < r:
        raise InputError(f"complete {r}-graph needs n >= r, got n={n}")
    return _combinations(r, n)


def edwards_bound(m: int):
    """(sqrt(8m+1) - 1) / 8; exact Fraction when 8m+1 is a perfect square."""
    if m < 0:
        raise InputError(f"edge count must be >= 0, got {m}")
    s = math.isqrt(8 * m + 1)
    if s * s == 8 * m + 1:
        return Fraction(s - 1, 8)
    return (math.sqrt(8 * m + 1) - 1.0) / 8.0
