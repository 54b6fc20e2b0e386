"""Pure-Python reference for the array code: a dict merge, a set-of-parts
cut counter, the best-cut pick by tuple order and the one-draw-per-trial
lift, the k-way probe search, the one-start 1-flip sweep, the 3-cut's
sampled trials rounded one after another, the
conditional-expectation cut by enumeration and by exact per-edge cut
chances, the line-by-line text parser and writer, the
one-triple-at-a-time linear packer, the dense adjacency by two
``np.add.at`` passes, the quadratic surplus -x.A.x/4 by one dense product,
the Edwards bound (sqrt(8m+1) - 1)/8, the r = 2 surplus baseline, and
the affine geometry AG(d, 3), a 3-graph with a planted 3-cut.
Edges are lists of (vertex tuple, multiplicity) pairs.  Three references
keep numpy for speed: the full k^(n-1) oracle scan, scored by
``cut_values`` (pinned to ``ref_cut`` by its own test), the
one-draw-per-candidate generator, and the packer's candidate stream, which
is shared with the code under test.  The trial-by-trial 3-cut calls the
package's collapse, rounding and k-way search, one trial at a time: what it
pins is that searching the trials together changes no cut."""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from hypercut import (
    BipartitionResult,
    Hypergraph,
    InputError,
    SymmetricMatrix,
    best_bipartition,
    cut_values,
    generators,
    sample_and_reduce,
)
from hypercut.solver import SAMPLE_P, _CutEvaluator
from hypercut.spectral import adjacency


def ref_merge(items, key=lambda verts: tuple(sorted(verts))):
    """Equal keys merged with multiplicities summed, in sorted key order."""
    merged = {}
    for verts, mult in items:
        merged[key(verts)] = merged.get(key(verts), 0) + mult
    return sorted(merged.items())


def ref_cut(edges, assign, k):
    """Edges (with multiplicity) whose vertices meet all k parts."""
    return sum(mult for verts, mult in edges if len({assign[v] for v in verts}) == k)


def as_items(g):
    """The (vertex tuple, multiplicity) pairs of a Hypergraph."""
    return list(zip(map(tuple, g.edges.tolist()), g.mult.tolist()))


def ref_local_search(edges, n, assign, k):
    """Probe every (vertex, part) move in cyclic vertex order, lowest part
    first; take the first that raises the cut; stop after a pass with none."""
    a = list(assign)
    improved = True
    while improved:
        improved = False
        for v in range(n):
            for b in range(k):
                moved = a[:v] + [b] + a[v + 1:]
                if b != a[v] and ref_cut(edges, moved, k) > ref_cut(edges, a, k):
                    a, improved = moved, True
                    break
    return a


def quadratic_surplus(a, x):
    """-x.A.x/4 of a sign vector x: for a multigraph adjacency A, the cut
    size of x minus half the edge weight."""
    xv = np.asarray(x, dtype=float)
    return float(-0.25 * xv @ a.a @ xv)


def edwards_bound(m):
    """(sqrt(8m+1) - 1) / 8; exact Fraction when 8m+1 is a perfect square."""
    if m < 0:
        raise InputError(f"edge count must be >= 0, got {m}")
    s = math.isqrt(8 * m + 1)
    if s * s == 8 * m + 1:
        return Fraction(s - 1, 8)
    return (math.sqrt(8 * m + 1) - 1.0) / 8.0


def ref_local_search_1flip(a, x):
    """First-improvement single-sign flips from one start, in sweeps over
    i = 0, ..., n-1 until a sweep flips nothing."""
    xv = np.asarray(x, dtype=float).copy()
    if xv.shape != (a.n,) or not np.all(np.abs(xv) == 1):
        raise InputError("x must be a +-1 vector matching the matrix dimension")
    ax = a.a @ xv
    flips = 0
    improved = True
    while improved:
        improved = False
        for i in range(a.n):
            gain = xv[i] * ax[i]
            if gain > 0:
                xv[i] = -xv[i]
                ax += 2.0 * xv[i] * a.a[:, i]
                flips += 1
                improved = True
    return BipartitionResult(
        x=tuple(int(s) for s in xv),
        value=quadratic_surplus(a, xv),
        flips=flips,
    )


def ref_direct_3cut(h, plan):
    """The 3-cut's trials one after another: each samples X from its own
    generator, collapses the 3-graph onto the rest's pair graph and, when a
    pair is left, rounds it by ``best_bipartition`` from the same generator.
    The best cut by ``ref_best``, after k-way search."""
    cuts = []
    for seq in np.random.SeedSequence(plan.seed).spawn(plan.trials):
        rng = np.random.default_rng(seq)
        sampled = np.flatnonzero(rng.random(h.n) < SAMPLE_P)
        red = sample_and_reduce(h, sampled)
        assign = np.full(h.n, 1)
        assign[sampled] = 0
        if len(red.weights):
            a = SymmetricMatrix(adjacency(len(red.rest), red.pairs, red.weights))
            bp = best_bipartition(a, seed=rng)
            assign[red.rest[np.asarray(bp.x) < 0]] = 2
        cuts.append(assign.tolist())
    return _CutEvaluator(h, 3).local_search(ref_best(as_items(h), cuts, 3))


def ref_expectation_cut(h, k):
    """Each vertex in turn to the lowest part that maximises the total cut
    over every completion of the later vertices, scored by ``cut_values``."""
    assign = []
    for v in range(h.n):
        tails = list(itertools.product(range(k), repeat=h.n - v - 1))
        totals = [
            # Python ints: an int64 sum over the tails can wrap for m near 2^53
            sum(cut_values(h, np.array([[*assign, b, *t] for t in tails], dtype=np.intp), k).tolist())
            for b in range(k)
        ]
        assign.append(totals.index(max(totals)))
    return assign


def ref_expectation_cut_exact(h, k):
    """Each vertex in turn to the lowest part that maximises the exact
    expected cut when the later vertices are drawn uniformly: the sum over
    the edges of each one's cut probability, a Fraction by inclusion-exclusion
    over the parts its placed vertices miss."""

    @functools.cache
    def cut_chance(met, free):
        missed = k - met
        return sum(
            Fraction((-1) ** j * math.comb(missed, j) * (k - j) ** free, k**free)
            for j in range(missed + 1)
        )

    assign = []
    for v in range(h.n):
        totals = []
        for b in range(k):
            placed = [*assign, b]
            totals.append(sum(
                mult * cut_chance(len({placed[u] for u in verts if u <= v}), sum(u > v for u in verts))
                for verts, mult in as_items(h)
            ))
        assign.append(totals.index(max(totals)))
    return assign


def ref_parse(text):
    """The text format read one line at a time with ``int`` on every token."""
    header, rows, mult = None, [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        try:
            nums = list(map(int, tokens))
        except ValueError as exc:
            raise InputError(f"line {lineno}: not an integer list: {raw!r}") from exc
        if header is None:
            if len(nums) != 2:
                raise InputError(f"line {lineno}: header must be 'r n'")
            header = (nums[0], nums[1])
            continue
        r = header[0]
        if len(nums) not in (r, r + 1):
            raise InputError(
                f"line {lineno}: expected {r} vertices with optional "
                f"multiplicity, got {len(nums)} fields"
            )
        rows.append(nums[:r])
        mult.append(nums[r] if len(nums) > r else 1)
    if header is None:
        raise InputError("empty input: missing 'r n' header line")
    return Hypergraph(header[0], header[1], rows, mult)


def ref_adjacency(n, pairs, weights):
    """Dense n x n adjacency: every (u, v) row adds its weight to A(u, v), in
    row order, then every row adds it to A(v, u)."""
    a = np.zeros((n, n))
    np.add.at(a, (pairs[:, 0], pairs[:, 1]), weights)
    np.add.at(a, (pairs[:, 1], pairs[:, 0]), weights)
    return a


def ref_max_kcut(h, k):
    """(value, assignment) of the first maximum k-cut among all k^(n-1)
    assignments with vertex 0 in part 0, in lexicographic order."""
    if h.n == 0:
        return 0, ()
    assigns = np.array(
        [(0, *tail) for tail in itertools.product(range(k), repeat=h.n - 1)], dtype=np.intp
    )
    vals = cut_values(h, assigns, k)
    best = int(np.argmax(vals))  # first occurrence
    return int(vals[best]), tuple(assigns[best].tolist())


def ref_best(edges, rows, k):
    """The row with the largest ``ref_cut``, ties to the smallest tuple."""
    return min(map(tuple, rows), key=lambda a: (-ref_cut(edges, a, k), a))


def ref_reduce_cut_up(h, assign, trials, seed):
    """One draw of the carved part per trial, the best by ``ref_best``."""
    r = h.r
    base = np.asarray(assign, dtype=np.intp)
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(trials):
        mask = rng.random(h.n) < 1.0 / r
        assign = np.where(mask, r - 1, base)
        draws.append(assign.tolist())
    return ref_best(as_items(h), draws, r)


def ref_gen_random_uniform(r, n, p, seed):
    """One scalar Geometric(p) gap per kept lexicographic rank, summed in
    Python ints from rank -1 until a rank passes the last of the C(n, r)
    r-subsets of range(n); the kept ranks are mapped to subsets by
    itertools.combinations."""
    rng = np.random.default_rng(seed)
    total = math.comb(n, r)
    ranks = set()
    rank = -1
    while p > 0:
        rank += int(rng.geometric(p))
        if rank >= total:
            break
        ranks.add(rank)
    combos = itertools.combinations(range(n), r)
    return Hypergraph.from_edges(r, n, (c for i, c in enumerate(combos) if i in ranks))


def ref_format(h):
    """The text format written one f-string per line."""
    lines = [f"{h.r} {h.n}"]
    for verts, mult in zip(h.edges.tolist(), h.mult.tolist()):
        body = " ".join(map(str, verts))
        lines.append(body if mult == 1 else f"{body} {mult}")
    return "\n".join(lines) + "\n"


def ref_linear_packing(n, target_m, seed):
    """The greedy packing one candidate triple at a time, with tuple pair
    keys, fed by the generator's own candidate stream."""
    rng = np.random.default_rng(seed)
    used_pairs: set[tuple[int, int]] = set()
    edges: list[tuple[int, int, int]] = []
    stream = generators._candidate_triples(rng, n, lambda: target_m - len(edges))
    rejections = 0
    budget = 50 * target_m
    while len(edges) < target_m and rejections <= budget:
        tri = tuple(next(stream))
        pairs = [(tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])]
        if any(pr in used_pairs for pr in pairs):
            rejections += 1
            continue
        used_pairs.update(pairs)
        edges.append(tri)
    return Hypergraph.from_edges(3, n, edges), len(edges) < target_m


def affine_lines(d):
    """AG(d, 3), a Steiner triple system: the points of F_3^d, point i with
    the base-3 digits of i as its coordinates, and the 3^(d-1) (3^d - 1) / 2
    lines {a, a + v, a + 2v}, the triples of distinct points that sum to 0.
    Each pair a < b lies on one line, whose third point is -(a + b); the
    line is kept from its pair of two lowest points."""
    place = 3 ** np.arange(d)
    points = np.arange(3**d)[:, None] // place % 3
    a, b = np.triu_indices(3**d, 1)
    c = -(points[a] + points[b]) % 3 @ place
    low = b < c
    return Hypergraph(3, 3**d, np.column_stack([a, b, c])[low], np.ones(low.sum(), dtype=np.int64))
