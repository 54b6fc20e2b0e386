"""3-cut and k-cut solvers built on vertex sampling and spectral 2-cut rounding.

The 3-cut samples a vertex set X (probability 1/3 per vertex), collapses
every hyperedge with exactly one sampled vertex onto its remaining pair,
finds a large 2-cut (Y, Z) of the resulting multigraph, and reports the
3-partition (X, Y, Z), of H and of its heavy-pair-stripped core.  For an
r-graph, cuts travel along the chain of underlying multigraphs down to
uniformity 3 and are lifted back up one part at a time by random
part-splitting.  Stages hand on (n,) intp assignments; solve_kcut alone
builds a KCut.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, InputError, NumericError, integer
from .hypergraph import (
    MAX_EDGES,
    MAX_IDS,
    Hypergraph,
    KCut,
    chunk_rows,
    cut_values,
    degree_profile,
    induced_sub,
    part_ids,
    underlying_multigraph,
    vertex_ids,
)
from .rounding import best_bipartition, bipartition_starts, local_search_1flip_groups
from .spectral import SymmetricMatrix, adjacency

# Largest vertex count solve_kcut accepts: each collapsed pair graph becomes a
# dense n x n float64 matrix, 800 MB at this bound.
MAX_VERTICES = 10_000
# Largest sampling budget: solve_3cut spawns one seed per trial up front.
MAX_TRIALS = 10_000
SAMPLE_P = 1.0 / 3.0  # probability that a vertex joins the sampled set X
# Start rows x padded width at which a 3-cut's pending trials are searched
# as one 1-flip lockstep.  Below it a round costs numpy call overhead, not
# cells, so stacking trials saves rounds; past it the stack outgrows the
# cache and a solve runs slower.  2^15 was fastest on a 2-core x86 host with
# numpy 2.4 and one BLAS thread.  A pair graph of more than about 240
# vertices reaches it alone, and is searched alone.
_LOCKSTEP_CELLS = 1 << 15
# Largest k^r * r for which k-way search places an edge's terms by looking
# its part-pattern code up in one (k^r, r) table; past it, by part counts.
_PATTERN_CELLS = 1 << 16
_BASELINE_NOTE = "baseline-only: k outside the guaranteed range {r-1, r}"


@dataclass(frozen=True)
class SamplePlan:
    """A solve's sampling budget: trials in [1, MAX_TRIALS] and a seed >= 0,
    each read by ``errors.integer`` and stored as a Python int."""

    trials: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "trials", integer("trials", self.trials, 1, MAX_TRIALS))
        object.__setattr__(self, "seed", integer("seed", self.seed))


@dataclass(frozen=True, eq=False)
class ReducedInstance:
    """Result of collapsing hyperedges with one sampled vertex onto pairs."""

    rest: np.ndarray  # (n',) intp unsampled vertices, ascending; index = dense id
    pairs: np.ndarray  # (d, 2) collapsed pairs on dense ids over rest, unmerged
    weights: np.ndarray  # (d,) multiplicity of each pair

    @functools.cached_property
    def pair_graph(self) -> Hypergraph:
        """The pairs as a 2-uniform multigraph, equal pairs merged."""
        return Hypergraph(2, len(self.rest), self.pairs, self.weights)


def child_seeds(entropy, count: int, spawn_key: tuple[int, ...] = ()) -> list[int]:
    """The first ``count`` 64-bit state words of SeedSequence(entropy, spawn_key),
    top bit cleared.  A word does not depend on ``count``, an int entropy s gives
    the words of [s], and SeedSequence(s).spawn's i-th child has spawn key (i,)."""
    ss = np.random.SeedSequence(entropy, spawn_key=spawn_key)
    return [int(word) for word in ss.generate_state(count, np.uint64) & (2**63 - 1)]


class _CutEvaluator:
    """Vectorized cut evaluation and k-way local search for one hypergraph."""

    def __init__(self, h: Hypergraph, k: int) -> None:
        self.h = h
        self.k = k

    def value(self, assign: np.ndarray) -> np.ndarray:
        """Cut size of an (n,) assignment, or of each row of a (c, n) stack."""
        return cut_values(self.h, assign, self.k)

    def best(self, rows: Iterable) -> np.ndarray:
        """The row with the largest cut, ties to the lexicographically
        smallest, so the pick does not depend on the rows' order.  ``rows`` is
        a (c, n) array or any iterable of (n,) rows, scored a chunk at a time:
        each row gathers r cells per edge."""
        chunk = chunk_rows(max(self.h.edges.size, self.h.n))
        rows, top, win = iter(rows), -1, []
        while len(block := np.array(list(itertools.islice(rows, chunk)), dtype=np.intp)):
            vals = self.value(block)
            if vals.max() > top:
                top, win = vals.max(), []
            win = [min(win + block[vals == top].tolist())]  # lists compare lexicographically
        return np.array(win[0], dtype=np.intp)

    def expectation_cut(self) -> np.ndarray:
        """A k-cut at least as large as a uniformly random one's expectation,
        by the method of conditional expectations: each vertex in turn goes
        to the part (the lowest on ties) that maximises the expected cut when
        the later vertices are drawn uniformly.  Its surplus is >= 0, so
        solve_kcut offers it, polished, on every solve with 2 <= k <= r.

        Placing v changes the expectation of v's edges only.  Take one whose
        placed vertices meet s parts, with f vertices still free after v.  If
        it misses v's part, placing v there gains the chance that the f draws
        hit the other w = k - s - 1 missing parts but never v's part:
        sum_j (-1)^j C(w, j) (k-1-j)^f over k^f, by inclusion-exclusion.
        Scaled by k^(r-1), these gains are exact integers, so ties are exact.
        The gain of an edge depends on its key s * r + f alone.  A gain is at
        most k^(r-1), so every score, a sum of gain x multiplicity over the
        edges that miss the part, fits int64 when k^(r-1) * m < 2^63.  Then
        r <= 63 and (k+1) * r <= 4,032 (k <= r): one int64 table holds the
        gain of every key, and each edge looks its gain up, with no grouping.
        Otherwise gains are Python ints, computed only at the keys that occur
        (there may be a million keys, and one gain takes up to k big-int
        powers), and v's edges are grouped by key, so that each of v's
        distinct keys costs k big-int products.
        """
        h, k = self.h, self.k

        @functools.cache
        def gain(key: int) -> int:
            s, f = divmod(key, h.r)
            w = k - s - 1  # the other missing parts
            if w < 0 or w > f:  # nothing missing, or out of reach
                return 0
            hits, c = 0, 1  # c = (-1)^j C(w, j)
            for j in range(w + 1):
                hits += c * (k - 1 - j) ** f
                c = -c * (w - j) // (j + 1)
            return k ** (h.r - 1 - f) * hits

        exact = k ** (h.r - 1) * h.m < 2**63
        table = np.array([gain(key) for key in range((k + 1) * h.r)] if exact else [], np.int64)
        met = np.zeros((k, len(h.mult)), dtype=bool)  # part x edge: a placed vertex in it
        free = np.full(len(h.mult), h.r)  # edge x unplaced vertices
        assign = np.zeros(h.n, dtype=np.intp)
        for v, edges in enumerate(h.incidence):
            f = np.take(free, edges) - 1
            free[edges] = f
            hit = np.take(met, edges, axis=1)
            key, weight = hit.sum(axis=0) * h.r + f, np.take(h.mult, edges)
            if exact:  # score[b]: gain x multiplicity summed over v's edges that miss b
                score = ~hit @ (np.take(table, key) * weight)
            else:  # the same sum, over v's distinct keys of each key's weight missing b
                keys, group = np.unique(key, return_inverse=True)
                cells = group + len(keys) * np.arange(k)[:, None]
                # float64 sums of at most m <= 2^53: exact
                missed = np.bincount(cells.ravel(), (~hit * weight).ravel(), k * len(keys))
                missed = missed.reshape(k, -1)
                gains = np.array([gain(x) for x in keys.tolist()], dtype=object)
                score = missed.astype(np.int64).astype(object) @ gains
            assign[v] = b = int(np.argmax(score))  # the first maximum
            met[b, edges] = True
        return assign

    def local_search(self, assign: Sequence[int]) -> np.ndarray:
        """First-improvement moves over (vertex, target part): the next move is
        the first vertex at or after the last one moved (cyclically) that has
        an improving part, to the lowest such part; stops at a local optimum.

        Moving v to part b gains win[v, b] - loss[v]: loss[v] weighs the cut
        edges in which v is alone in its part, win[v, b] the edges that miss
        only part b and in which v is not alone.  One (k+2, n) gain table
        holds win in rows 0..k-1, loss in row k and dead terms in row k+1,
        which is never read.  A (d, r) cache holds each (edge, slot)'s cell.
        A move puts v in its part and moves the weights of v's edges from
        their cached cells to the ones ``_term_cells`` places them in now: it
        costs O(r * deg v) beside the O(nk) search for the next movable
        vertex.  The int64 table is exact: each cell sums weights of one
        vertex's edges, at most m <= 2^53."""
        a = np.array(assign, dtype=np.intp)
        h, k = self.h, self.k
        if len(h.mult) == 0 or k > h.r:
            return a
        term_cells = _term_cells(h, k, a)
        cells = term_cells(h.edges)  # edge x slot
        table = np.zeros((k + 2) * h.n, dtype=np.int64)
        np.add.at(table, cells.ravel(), np.repeat(h.mult, h.r))
        gains, cursor = table.reshape(k + 2, h.n), 0
        while True:
            movable = np.flatnonzero(gains[:k].max(axis=0) > gains[k])
            if len(movable) == 0:
                return a
            v = movable[np.searchsorted(movable, cursor) % len(movable)]
            a[v] = np.argmax(gains[:k, v] > gains[k, v])
            edges = h.incidence[v]
            new = term_cells(np.take(h.edges, edges, axis=0))
            w = np.repeat(np.take(h.mult, edges), h.r)
            old = np.take(cells, edges, axis=0)
            # 1-D indices: ufunc.at has a fast path for them
            np.add.at(table, np.concatenate([old.ravel(), new.ravel()]), np.concatenate([-w, w]))
            cells[edges] = new
            cursor = v + 1


def _term_cells(h: Hypergraph, k: int, a: np.ndarray):
    """The map from (e, r) vertex rows of h's edges to their terms' cells
    under ``a`` as it stands: while k^r * r <= _PATTERN_CELLS, each row's
    part-pattern code sum_s part(slot s) * k^s looks its r rows up in
    ``_pattern_rows``; past it, ``_slot_terms`` counts each row's parts."""
    if k**h.r * h.r > _PATTERN_CELLS:
        return lambda verts: _slot_terms(verts, np.take(a, verts), k, h.n)
    place, cell_rows = k ** np.arange(h.r), _pattern_rows(k, h.r) * h.n
    return lambda verts: np.take(cell_rows, np.take(a, verts) @ place, axis=0) + verts


@functools.cache
def _pattern_rows(k: int, r: int) -> np.ndarray:
    """The read-only (k^r, r) gain-table row (``_slot_terms``'s rule) of each
    slot's term in an edge whose part-pattern code is sum_s part(slot s) * k^s."""
    parts = np.arange(k**r)[:, None] // k ** np.arange(r) % k  # code x slot
    # with n = 1 and every vertex 0, a term's cell is its row
    rows = _slot_terms(np.zeros_like(parts), parts, k, 1)
    rows.setflags(write=False)
    return rows


def _slot_terms(verts: np.ndarray, parts: np.ndarray, k: int, n: int) -> np.ndarray:
    """The int32 gain-table cell (row * n + vertex) of each (edge, slot) of
    the (e, r) vertex ids ``verts`` with parts ``parts``.  A vertex alone in
    its part has a loss term, row k, live when the edge is cut.  Any other
    has a win term in the edge's missing part, live when exactly one part is
    missing.  A dead term sits in row k + 1.  Cells fit int32: (k+2) * n <
    2^31 within solve_kcut's capacity (n <= 10^4, k <= 1000).  Each choice is
    arithmetic on 0/1 masks: a select on a data-dependent mask branches per
    cell and costs several times as much."""
    at = parts + k * np.arange(len(verts))[:, None]  # flat (edge, part) of each term
    c = np.bincount(at.ravel(), minlength=k * len(verts)).reshape(-1, k)
    alone = np.take(c, at) == 1
    missed = c == 0
    # the one missing part, where only one is: the sum of missing part ids
    one = (missed @ np.arange(k))[:, None]
    live = missed.sum(axis=1, keepdims=True) == 1 - alone  # none missing if alone, else one
    row = (one + alone * (k - one) - (k + 1)) * live + (k + 1)
    return (row * n + verts).astype(np.int32)


def sample_and_reduce(h: Hypergraph, x: Iterable[int]) -> ReducedInstance:
    """Collapse hyperedges with exactly one vertex in X onto their free pair,
    so that e_H(X, Y, Z) = e_{G*}(Y, Z) for every bipartition (Y, Z) of the rest."""
    if h.r != 3:
        raise InputError(f"sampling reduction needs r=3, got r={h.r}")
    sampled = np.zeros(h.n, dtype=bool)
    sampled[vertex_ids(h, x)] = True
    rest = np.flatnonzero(~sampled)
    relabel = np.cumsum(~sampled) - 1
    hit = np.take(sampled, h.columns)  # (3, d): whether each slot's vertex is sampled
    one = np.flatnonzero(hit.sum(axis=0, dtype=np.uint8) == 1)  # rows with one sampled vertex
    cols = np.take(h.columns, one, axis=1)
    # the free pair: (v, w) if u is sampled, (u, w) if v is, (u, v) if w is
    pairs = np.where(np.take(hit[::2], one, axis=1), cols[1], cols[::2]).T
    return ReducedInstance(rest=rest, pairs=np.take(relabel, pairs), weights=np.take(h.mult, one))


def _sampled_cuts(h: Hypergraph, plan: SamplePlan) -> Iterator[np.ndarray]:
    """Each trial of _direct_3cut: X = the sampled vertices, and the rounded
    2-cut (Y, Z) of the pair graph that X collapses the rest onto.  Each
    trial samples X and draws its Gaussians from its own generator, in trial
    order, and its 1-flip search waits: the pending trials' searches run as
    one lockstep once their start rows x padded width reach _LOCKSTEP_CELLS,
    and after the last trial.  So the cuts leave out of trial order, and a
    trial whose X collapses no edge leaves at once, unrounded."""
    pending: list[tuple[np.ndarray, np.ndarray, SymmetricMatrix, np.ndarray]] = []
    rows = width = 0
    for seq in np.random.SeedSequence(plan.seed).spawn(plan.trials):
        rng = np.random.default_rng(seq)  # one stream per trial: X, then its Gaussians
        sampled = np.flatnonzero(rng.random(h.n) < SAMPLE_P)
        red = sample_and_reduce(h, sampled)
        assign = np.full(h.n, 1, dtype=np.intp)
        assign[sampled] = 0
        if not len(red.weights):
            yield assign
            continue
        a = SymmetricMatrix(adjacency(len(red.rest), red.pairs, red.weights))
        starts = bipartition_starts(a, seed=rng)
        pending.append((assign, red.rest, a, starts))
        rows, width = rows + len(starts), max(width, a.n)
        if rows * width >= _LOCKSTEP_CELLS:
            yield from _round_pending(pending)
            pending, rows, width = [], 0, 0
    yield from _round_pending(pending)


def _round_pending(pending) -> Iterator[np.ndarray]:
    """Each pending trial's assignment, with the rest's negative side of its
    searched 2-cut moved to part 2."""
    results = local_search_1flip_groups([(a, starts) for _, _, a, starts in pending])
    for (assign, rest, _, _), bp in zip(pending, results):
        assign[rest[np.asarray(bp.x) < 0]] = 2
        yield assign


def _direct_3cut(h: Hypergraph, plan: SamplePlan) -> np.ndarray:
    """The best of ``plan.trials`` sampled cuts of a 3-graph with edges,
    after k-way search.  The pick does not depend on the order in which the
    trials' cuts arrive."""
    ev = _CutEvaluator(h, 3)
    return ev.local_search(ev.best(_sampled_cuts(h, plan)))


def _ceil_root5(x: int) -> int:
    """The least D >= 1 with D^5 >= x, exactly: 3125 ** 0.2 is 5.000000000000001."""
    d = max(1, round(x**0.2))  # the true root's floor or ceiling
    return d + (d**5 < x)


def preprocess_heavy(h: Hypergraph) -> tuple[np.ndarray, Hypergraph, dict]:
    """Strip a maximal matching of heavy pairs and all high-degree vertices:
    the kept vertices w (ascending intp), the core they induce (vertex i is w[i]), a report.

    A pair is heavy when its weight in the underlying multigraph is at least
    d = ceil(m^(1/5)); a vertex is high-degree when its weighted pair degree
    exceeds delta = ceil(m^(3/5)).  Both are at least 1, also for m = 0.
    """
    if h.r != 3:
        raise InputError(f"heavy-pair preprocessing needs r=3, got r={h.r}")
    d, delta = _ceil_root5(h.m), _ceil_root5(h.m**3)
    pairs = underlying_multigraph(h, 2)
    deg = np.zeros(h.n, dtype=np.int64)
    np.add.at(deg, pairs.edges, pairs.mult[:, None])
    matched: set[int] = set()
    for u, v in pairs.edges[pairs.mult >= d].tolist():  # lexicographic -> deterministic
        if u not in matched and v not in matched:
            matched.update((u, v))
    keep = deg <= delta
    keep[list(matched)] = False
    w = np.flatnonzero(keep)
    sub, _ = induced_sub(h, w)
    report = {
        "d": d,
        "delta": delta,
        "matching_vertices": len(matched),
        "high_degree_vertices": int((deg > delta).sum()),
        "kept_vertices": len(w),
        "kept_edges": sub.m,
        "kept_profile": degree_profile(sub),
    }
    return w, sub, report


def solve_3cut(h: Hypergraph, plan: SamplePlan) -> np.ndarray:
    """Sampling + spectral rounding for the max 3-cut of a 3-graph: the larger
    of the direct cut and the one that re-solves H's heavy-pair-stripped
    core, with the direct parts elsewhere; k-way search cannot improve it."""
    if h.r != 3:
        raise InputError(f"solve_3cut needs r=3, got r={h.r}")
    if h.m == 0:
        return np.zeros(h.n, dtype=np.intp)
    direct = _direct_3cut(h, plan)
    w, core, _report = preprocess_heavy(h)
    if len(w) == h.n or core.m == 0:
        return direct
    seed = child_seeds([plan.seed, 1], 1)[0]
    assign = direct.copy()
    assign[w] = _direct_3cut(core, SamplePlan(trials=plan.trials, seed=seed))
    ev = _CutEvaluator(h, 3)
    return ev.best([direct, ev.local_search(assign)])


def reduce_cut_up(h: Hypergraph, assign: Sequence[int], plan: SamplePlan) -> np.ndarray:
    """Lift an (r-1)-cut assignment to an r-cut one by carving a random new
    part (each vertex moved with probability 1/r); best of ``plan.trials``
    draws from ``plan.seed``."""
    r = h.r
    base = part_ids(h, assign, r - 1)
    ev = _CutEvaluator(h, r)
    rng = np.random.default_rng(plan.seed)
    draws = (np.where(rng.random(h.n) < 1.0 / r, r - 1, base) for _ in range(plan.trials))
    return ev.best(draws)


def _check_chain(h: Hypergraph) -> None:
    """Refuse a chain of underlying multigraphs too large to build, down to
    the pair graph that solving level 3 builds.  Level j gathers the j+1
    j-subsets of each of its parent's distinct rows, of which there are at
    most min(C(n, j+1), C(r, j+1) * d) for d distinct edges, and holds j+1
    times as many edges as its parent."""
    cells, m = 0, h.m
    for j in range(h.r - 1, 1, -1):
        rows = min(math.comb(h.n, j + 1), math.comb(h.r, j + 1) * len(h.mult))
        cells, m = cells + rows * (j + 1) * j, m * (j + 1)
        if cells > MAX_IDS or m > MAX_EDGES:
            raise CapacityError(
                f"the chain from r={h.r} down to 2 needs more than {MAX_IDS} "
                f"vertex ids or {MAX_EDGES} edges"
            )


def solve_kcut(h: Hypergraph, k: int, plan: SamplePlan) -> KCut:
    """k-cuts of r-graphs: the best of the k-way-polished
    conditional-expectation cut and, where the paper gives one, the spectral
    candidate.

    That candidate is the rounded pair-graph 2-cut for k = 2 on graphs and
    3-graphs (where the 2-cut of a 3-graph halves the underlying multigraph's
    cut exactly), and for k in {r-1, r} the 3-cut of the underlying-multigraph
    chain's level 3, lifted back up to k.  Other k get the expectation cut
    alone and are flagged in notes.  For every 2 <= k <= r the result is
    checked to have a nonnegative surplus.  For k > r every cut is 0, and the
    all-zero assignment comes back flagged.
    """
    k = integer("k", k, 2)
    if h.r == 2 and k != 2:
        raise InputError(f"solve_kcut needs r >= 3 unless k = 2, got r=2, k={k}")
    if h.n > MAX_VERTICES:
        raise CapacityError(
            f"{h.n} vertices exceed the solver's capacity {MAX_VERTICES}"
        )
    if h.m == 0 or k > h.r:  # every cut is 0: the oracle's first maximiser
        notes = (_BASELINE_NOTE,) if h.m else ()
        return KCut.from_assignment(h, np.zeros(h.n, dtype=np.intp), k, notes=notes)
    if k in (h.r - 1, h.r):  # every such path builds the pair graph
        _check_chain(h)
    ev = _CutEvaluator(h, k)
    candidates = [ev.local_search(ev.expectation_cut())]
    notes: tuple[str, ...] = ()
    if k == 2 and h.r <= 3:
        bp = best_bipartition(SymmetricMatrix.from_pair_graph(h), seed=plan.seed)
        # a 1-flip optimum is k-way optimal: the pair-graph cut is r - 1 times h's
        candidates.append(np.where(np.asarray(bp.x) > 0, 0, 1))
    elif k in (h.r - 1, h.r):
        chain: dict[int, Hypergraph] = {h.r: h}
        for j in range(h.r - 1, 2, -1):
            chain[j] = underlying_multigraph(chain[j + 1], j)
        cur = solve_3cut(chain[3], plan)
        for j in range(4, k + 1):
            seed = child_seeds([plan.seed, 10 + j], 1)[0]
            cur = reduce_cut_up(chain[j], cur, SamplePlan(plan.trials, seed))
        candidates.append(cur if h.r == 3 else ev.local_search(cur))
    else:
        notes = (_BASELINE_NOTE,)
    cut = KCut.from_assignment(h, ev.best(candidates), k, notes=notes)
    if cut.surplus < 0:  # the expectation cut makes surplus >= 0 a theorem
        raise NumericError(f"{k}-cut {cut.cut_value} has surplus {cut.surplus} < 0")
    return cut
