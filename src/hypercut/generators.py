"""Seeded instance generators: binomial random r-graphs, greedy random linear
3-graphs, and complete hypergraphs."""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, InputError, integer
from .hypergraph import MAX_IDS, MAX_UNIFORMITY, Hypergraph

# Largest number of potential edges C(n, r) a generator enumerates.
MAX_CANDIDATES = 10**8
# Most gaps gen_random_uniform draws at once: bounds its memory by the kept edges.
_DRAW = 1 << 16


def _candidates(r: int, n: int) -> tuple[int, int, int]:
    """r and n as ints, and C(n, r), once it is known to be within MAX_CANDIDATES."""
    # r is capped before C(n, r), which takes ~r big-int steps
    r, n = integer("r", r, 2, MAX_UNIFORMITY), integer("n", n)
    total = math.comb(n, r)
    if total > MAX_CANDIDATES:
        raise CapacityError(f"C({n}, {r}) potential edges exceed {MAX_CANDIDATES}")
    return r, n, total


def _check_ids(r: int, m: float) -> None:
    if r * m > MAX_IDS:
        raise CapacityError(f"{r} x {m:.0f} edges need more than {MAX_IDS} vertex ids")


def _subsets(r: int, n: int, ranks: np.ndarray) -> Hypergraph:
    """The r-subsets of range(n) at the given ascending lexicographic ranks,
    each an edge of multiplicity 1.

    Lexicographic rank R of the subset c_0 < ... < c_{r-1} satisfies
    C(n, r) - 1 - R = sum_i C(n-1-c_i, r-i), the combinatorial number
    system, so each c_i is read off greedily, largest binomial first.
    """
    rest = math.comb(n, r) - 1 - np.asarray(ranks, dtype=np.int64)
    rows = np.empty((len(rest), r), dtype=np.intp)
    for i in range(r - 1):
        j = r - i
        # n-1-c_i lies in [j-1, n-r+j-1]; these binomials are at most C(n-1, r)
        table = np.array([math.comb(d, j) for d in range(j - 1, n - r + j)], dtype=np.int64)
        d = np.searchsorted(table, rest, side="right") - 1
        rest -= table[d]
        rows[:, i] = n - r + i - d
    rows[:, r - 1] = n - 1 - rest  # the last digit's table C(d, 1) = d is 0..n-r: d = rest
    return Hypergraph(r, n, rows, np.ones(len(rows), dtype=np.int64))


def gen_random_uniform(r: int, n: int, p: float, seed: int) -> Hypergraph:
    """Each of the C(n, r) potential edges included independently with
    probability p; deterministic given the seed.

    The lexicographic ranks of the kept edges are drawn directly: from one
    kept rank to the next is a Geometric(p) gap (Batagelj and Brandes,
    Phys. Rev. E 71, 036113, 2005), so the draws follow the kept count,
    not C(n, r).  The gaps come in chunks of the expected remaining count
    plus three standard deviations, at most _DRAW, which continue the one
    stream, so a seed gives the same graph whatever the chunk size.  The
    vertex ids of the kept edges are capped, in expectation up front and
    as the kept count grows.
    """
    if not (0.0 <= p <= 1.0):
        raise InputError(f"probability must be in [0,1], got {p}")
    r, n, total = _candidates(r, n)
    _check_ids(r, p * total)
    rng = np.random.default_rng(integer("seed", seed))
    kept = [np.zeros(0, dtype=np.int64)]
    m = 0
    last = -1  # the rank of the last kept edge, -1 before the first
    while p > 0 and last < total - 1:
        left = (total - 1 - last) * p
        gaps = rng.geometric(p, min(_DRAW, int(left + 3 * math.sqrt(left)) + 16))
        # a gap saturates at 2^63 - 1 for tiny p; one of C(n, r) + 1 already
        # passes the last rank, and keeps the running sum far from overflow
        ranks = last + np.cumsum(np.minimum(gaps, total + 1))
        kept.append(ranks[ranks < total])
        m += len(kept[-1])
        _check_ids(r, m)
        if len(kept[-1]) < len(ranks):
            break
        last = int(ranks[-1])
    return _subsets(r, n, np.concatenate(kept))


def gen_random_3graph(n: int, p: float, seed: int) -> Hypergraph:
    return gen_random_uniform(3, n, p, seed)


def _candidate_triples(rng: np.random.Generator, n: int, remaining):
    """Candidate triples of range(n) while remaining() > 0, each a sorted
    list: blocks of 2 * remaining() + 64 uniform draws from range(n)^3, the
    size read as each block starts, each row sorted and the rows that repeat
    a vertex dropped, so that each row left is a uniform 3-subset."""
    while (left := remaining()) > 0:
        t = np.sort(rng.integers(0, n, size=(2 * left + 64, 3)), axis=1)
        yield from t[(t[:, 0] < t[:, 1]) & (t[:, 1] < t[:, 2])].tolist()


def gen_random_linear_3graph(
    n: int, target_m: int, seed: int
) -> tuple[Hypergraph, bool]:
    """Greedy random packing of triples with pairwise intersections <= 1.

    Walks the candidate triples of ``_candidate_triples`` in order and keeps
    those reusing no pair; gives up after 50 * target_m rejections.  Returns
    (hypergraph, shortfall) where shortfall is True when the target was not
    reached.  Pairs are keyed by the exact Python int u * n + v.
    """
    n, target_m = integer("n", n), integer("target_m", target_m)
    if n >= 3 and target_m > n * (n - 1) // 6:
        raise InputError(
            f"target {target_m} exceeds the pair-packing bound {n * (n - 1) // 6}"
        )
    if n < 3 and target_m > 0:
        raise InputError("need at least 3 vertices for any triple")
    if n >= 2**63 and target_m > 0:
        raise InputError(f"vertex count {n} passes the int64 vertex-id limit 2^63")
    _check_ids(3, target_m)
    rng = np.random.default_rng(integer("seed", seed))
    used_pairs: set[int] = set()
    edges: list[list[int]] = []
    rejections = 0
    budget = 50 * target_m
    for tri in _candidate_triples(rng, n, lambda: target_m - len(edges)):
        u, v, w = tri
        uv, uw, vw = u * n + v, u * n + w, v * n + w
        if uv in used_pairs or uw in used_pairs or vw in used_pairs:
            rejections += 1
            if rejections > budget:
                break
            continue
        used_pairs.update((uv, uw, vw))
        edges.append(tri)
        if len(edges) == target_m:
            break
    rows = np.array(edges, dtype=np.int64).reshape(-1, 3)
    return Hypergraph(3, n, rows, np.ones(len(rows), dtype=np.int64)), len(edges) < target_m


def gen_complete(r: int, n: int) -> Hypergraph:
    r, n, total = _candidates(r, n)
    if n < r:
        raise InputError(f"complete {r}-graph needs n >= r, got n={n}")
    _check_ids(r, total)
    return _subsets(r, n, np.arange(total))
