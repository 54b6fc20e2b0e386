"""3-cut and k-cut solvers built on vertex sampling and spectral 2-cut rounding.

The core routine samples a vertex set X (probability 1/3 per vertex),
collapses every hyperedge with exactly one sampled vertex onto its remaining
pair, finds a large 2-cut (Y, Z) of the resulting multigraph, and reports the
3-partition (X, Y, Z).  For an r-graph, cuts travel along the chain of
underlying multigraphs down to uniformity 3 and are lifted back up one part
at a time by random part-splitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, InputError
from .hypergraph import (
    Hypergraph,
    KCut,
    cut_values,
    degree_profile,
    induced_sub,
    underlying_multigraph,
)
from .rounding import best_bipartition
from .spectral import SymmetricMatrix

# Largest vertex count solve_kcut accepts: each collapsed pair graph becomes a
# dense n x n float64 matrix, 800 MB at this bound.
MAX_VERTICES = 10_000


@dataclass(frozen=True)
class SamplePlan:
    p: float = 1.0 / 3.0
    trials: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.p < 1.0):
            raise InputError(f"sampling probability must be in (0,1), got {self.p}")
        if self.trials < 1:
            raise InputError(f"trials must be >= 1, got {self.trials}")


@dataclass(frozen=True)
class ReducedInstance:
    """Result of collapsing hyperedges with one sampled vertex onto pairs."""

    rest: tuple[int, ...]  # unsampled vertices, ascending; index = dense id
    pair_graph: Hypergraph  # 2-uniform, on dense ids over rest


def _subseed(seed: int, tag: int) -> int:
    ss = np.random.SeedSequence([int(seed) & (2**63 - 1), tag])
    return int(ss.generate_state(2, dtype=np.uint64)[0] & (2**63 - 1))


class _CutEvaluator:
    """Vectorized cut evaluation and k-way local search for one hypergraph."""

    def __init__(self, h: Hypergraph, k: int) -> None:
        self.h = h
        self.k = k
        # inc[v]: ascending indices of the edges that contain v
        by_vertex = np.argsort(h.edges.ravel(), kind="stable") // h.r
        ends = np.cumsum(np.bincount(h.edges.ravel(), minlength=h.n))
        self.inc = np.split(by_vertex, ends[:-1])

    def value(self, assign: np.ndarray) -> int:
        return int(cut_values(self.h, assign, self.k))

    def local_search(self, assign: Sequence[int]) -> np.ndarray:
        """First-improvement moves over (vertex, target part), cyclic order."""
        a = np.array(assign, dtype=np.intp)
        w = self.h.mult
        if len(w) == 0 or self.k > self.h.r:
            return a
        counts = np.zeros((len(w), self.k), dtype=np.int64)  # edge x part
        np.add.at(counts, (np.arange(len(w))[:, None], a[self.h.edges]), 1)
        flags = (counts > 0).all(axis=1)
        improved = True
        while improved:
            improved = False
            for v in range(self.h.n):
                edges = self.inc[v]
                if len(edges) == 0:
                    continue
                cur = a[v]
                for b in range(self.k):
                    if b == cur:
                        continue
                    sub = counts[edges].copy()
                    sub[:, cur] -= 1
                    sub[:, b] += 1
                    after = (sub > 0).all(axis=1)
                    delta = int(w[edges] @ (after.astype(np.int64) - flags[edges]))
                    if delta > 0:
                        counts[edges] = sub
                        flags[edges] = after
                        a[v] = b
                        improved = True
                        break
        return a


def kway_local_search(h: Hypergraph, assignment: Sequence[int], k: int) -> tuple[int, ...]:
    return tuple(int(x) for x in _CutEvaluator(h, k).local_search(assignment))


class _Best:
    """Maximum by value, ties broken by lexicographically smallest assignment."""

    def __init__(self) -> None:
        self.value: int | None = None
        self.assignment: tuple[int, ...] | None = None

    def offer(self, value: int, assignment) -> None:
        tup = tuple(int(x) for x in assignment)
        if (
            self.value is None
            or value > self.value
            or (value == self.value and tup < self.assignment)
        ):
            self.value = value
            self.assignment = tup


def sample_and_reduce(h: Hypergraph, x: Iterable[int]) -> ReducedInstance:
    """Collapse hyperedges with exactly one vertex in X onto their free pair,
    so that e_H(X, Y, Z) = e_{G*}(Y, Z) for every bipartition (Y, Z) of the rest."""
    if h.r != 3:
        raise InputError(f"sampling reduction needs r=3, got r={h.r}")
    xs = np.fromiter(x, dtype=np.int64)
    if len(xs) and (xs.min() < 0 or xs.max() >= h.n):
        raise InputError(f"sampled set leaves the vertex range [0, {h.n})")
    sampled = np.zeros(h.n, dtype=bool)
    sampled[xs] = True
    rest = np.flatnonzero(~sampled)
    relabel = np.cumsum(~sampled) - 1
    inside = sampled[h.edges]
    one = inside.sum(axis=1) == 1
    pairs = relabel[h.edges[one][~inside[one]]].reshape(-1, 2)
    return ReducedInstance(
        rest=tuple(rest.tolist()),
        pair_graph=Hypergraph(2, len(rest), pairs, h.mult[one]),
    )


def _trivial_cut(h: Hypergraph, k: int, notes: tuple[str, ...] = ()) -> KCut:
    return KCut.from_assignment(h, [0] * h.n, k, notes=notes)


def solve_3cut(h: Hypergraph, plan: SamplePlan) -> KCut:
    """Sampling + spectral rounding for the max 3-cut of a 3-graph.

    Every run also scores ceil(trials/4) uniformly random tripartitions and a
    locally optimized one, so the result never trails the random baseline.
    """
    if h.r != 3:
        raise InputError(f"solve_3cut needs r=3, got r={h.r}")
    if h.n == 0 or h.m == 0:
        return _trivial_cut(h, 3)
    ev = _CutEvaluator(h, 3)
    best = _Best()
    n_base = max(1, math.ceil(plan.trials / 4))
    children = np.random.SeedSequence(plan.seed).spawn(plan.trials + n_base + 1)
    for t in range(plan.trials):
        rng = np.random.default_rng(children[t])
        sampled = np.flatnonzero(rng.random(h.n) < plan.p)
        red = sample_and_reduce(h, sampled)
        assign = np.full(h.n, 1, dtype=np.intp)
        assign[sampled] = 0
        if red.pair_graph.m > 0:
            a = SymmetricMatrix.from_pair_graph(red.pair_graph)
            bp = best_bipartition(a, seed=int(rng.integers(0, 2**63)))
            signs = np.asarray(bp.x)
            rest = np.asarray(red.rest, dtype=np.intp)
            assign[rest[signs < 0]] = 2
        best.offer(ev.value(assign), assign)
    best_random = _Best()
    for j in range(n_base):
        rng = np.random.default_rng(children[plan.trials + j])
        assign = rng.integers(0, 3, size=h.n).astype(np.intp)
        val = ev.value(assign)
        best.offer(val, assign)
        best_random.offer(val, assign)
    polished = ev.local_search(best_random.assignment)
    best.offer(ev.value(polished), polished)
    final = ev.local_search(best.assignment)
    best.offer(ev.value(final), final)
    return KCut.from_assignment(h, best.assignment, 3)


def preprocess_heavy(
    h: Hypergraph, d: int | None = None, delta: int | None = None
) -> tuple[tuple[int, ...], dict]:
    """Strip a maximal matching of heavy pairs and all high-degree vertices.

    A pair is heavy when its weight in the underlying multigraph is at least
    ``d``; a vertex is high-degree when its weighted pair degree exceeds
    ``delta``.  Defaults are d = ceil(m^(1/5)) and delta = ceil(m^(3/5)).
    """
    if h.r != 3:
        raise InputError(f"heavy-pair preprocessing needs r=3, got r={h.r}")
    m = h.m
    if d is None:
        d = max(1, math.ceil(m ** 0.2)) if m else 1
    if delta is None:
        delta = max(1, math.ceil(m ** 0.6)) if m else 1
    if d < 1 or delta < 1:
        raise InputError("thresholds must be >= 1")
    pairs = underlying_multigraph(h, 2)
    deg = np.zeros(h.n, dtype=np.int64)
    np.add.at(deg, pairs.edges, pairs.mult[:, None])
    matched: set[int] = set()
    for u, v in pairs.edges[pairs.mult >= d].tolist():  # lexicographic -> deterministic
        if u not in matched and v not in matched:
            matched.update((u, v))
    keep = deg <= delta
    keep[list(matched)] = False
    w = tuple(np.flatnonzero(keep).tolist())
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
    return w, report


def solve_3cut_auto(h: Hypergraph, plan: SamplePlan) -> KCut:
    """solve_3cut on H and on its heavy-pair-stripped core, best of the two."""
    if h.r != 3:
        raise InputError(f"solve_3cut_auto needs r=3, got r={h.r}")
    direct = solve_3cut(h, plan)
    w, _report = preprocess_heavy(h)
    if len(w) == h.n or h.m == 0:
        return direct
    sub, ids = induced_sub(h, w)
    best = _Best()
    best.offer(direct.cut_value, direct.assignment)
    if sub.m > 0:
        sub_plan = SamplePlan(
            p=plan.p, trials=plan.trials, seed=_subseed(plan.seed, 1)
        )
        part = solve_3cut(sub, sub_plan)
        rng = np.random.default_rng(_subseed(plan.seed, 2))
        assign = rng.integers(0, 3, size=h.n).astype(np.intp)
        assign[list(ids)] = part.assignment
        ev = _CutEvaluator(h, 3)
        assign = ev.local_search(assign)
        best.offer(ev.value(assign), assign)
    return KCut.from_assignment(h, best.assignment, 3)


def reduce_cut_up(h: Hypergraph, cut: KCut, trials: int, seed: int) -> KCut:
    """Lift an (r-1)-cut to an r-cut by carving a random new part
    (each vertex moved with probability 1/r); best of ``trials`` draws."""
    r = h.r
    if cut.k != r - 1:
        raise InputError(f"expected a {r - 1}-cut, got k={cut.k}")
    if len(cut.assignment) != h.n:
        raise InputError("cut does not match the hypergraph's vertex count")
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    ev = _CutEvaluator(h, r)
    base = np.asarray(cut.assignment, dtype=np.intp)
    rng = np.random.default_rng(seed)
    best = _Best()
    for _ in range(trials):
        mask = rng.random(h.n) < 1.0 / r
        assign = np.where(mask, r - 1, base)
        best.offer(ev.value(assign), assign)
    return KCut.from_assignment(h, best.assignment, r)


def _baseline_kcut(h: Hypergraph, k: int, trials: int, seed: int) -> _Best:
    ev = _CutEvaluator(h, k)
    rng = np.random.default_rng(seed)
    best = _Best()
    best_random = _Best()
    for _ in range(max(1, math.ceil(trials / 4))):
        assign = rng.integers(0, k, size=h.n).astype(np.intp)
        val = ev.value(assign)
        best.offer(val, assign)
        best_random.offer(val, assign)
    polished = ev.local_search(best_random.assignment)
    best.offer(ev.value(polished), polished)
    return best


def solve_kcut(h: Hypergraph, k: int, plan: SamplePlan) -> KCut:
    """k-cuts of r-graphs via the underlying-multigraph chain down to 3-cuts.

    Guarantees follow the chain only for k in {r-1, r} (and k=2 for graphs
    and 3-graphs, where the 2-cut of a 3-graph halves the underlying
    multigraph's cut exactly); other k fall back to the random + local-search
    baseline and are flagged in notes.
    """
    if k < 2:
        raise InputError(f"need k >= 2, got k={k}")
    if h.r == 2 and k != 2:
        raise InputError(f"solve_kcut needs r >= 3 unless k = 2, got r=2, k={k}")
    if h.n > MAX_VERTICES:
        raise CapacityError(
            f"{h.n} vertices exceed the solver's capacity {MAX_VERTICES}"
        )
    if h.n == 0 or h.m == 0:
        return _trivial_cut(h, k)
    if h.r == 3 and k == 3:
        return solve_3cut_auto(h, plan)
    notes: tuple[str, ...] = ()
    best = _Best()
    if k == 2 and h.r <= 3:
        pairs = h if h.r == 2 else underlying_multigraph(h, 2)
        a = SymmetricMatrix.from_pair_graph(pairs)
        bp = best_bipartition(a, seed=_subseed(plan.seed, 3))
        ev = _CutEvaluator(h, 2)
        assign = ev.local_search(np.where(np.asarray(bp.x) > 0, 0, 1))
        best.offer(ev.value(assign), assign)
    elif k in (h.r - 1, h.r):
        chain: dict[int, Hypergraph] = {h.r: h}
        for j in range(h.r - 1, 2, -1):
            chain[j] = underlying_multigraph(chain[j + 1], j)
        part = solve_3cut_auto(
            chain[3], SamplePlan(p=plan.p, trials=plan.trials, seed=_subseed(plan.seed, 4))
        )
        cur = part
        for j in range(4, k + 1):
            as_jcut = KCut.from_assignment(chain[j], cur.assignment, j - 1)
            cur = reduce_cut_up(
                chain[j], as_jcut, trials=plan.trials, seed=_subseed(plan.seed, 10 + j)
            )
        ev = _CutEvaluator(h, k)
        assign = ev.local_search(cur.assignment)
        best.offer(ev.value(assign), assign)
    else:
        notes = ("baseline-only: k outside the guaranteed range {r-1, r}",)
    baseline = _baseline_kcut(h, k, plan.trials, _subseed(plan.seed, 5))
    best.offer(baseline.value, baseline.assignment)
    return KCut.from_assignment(h, best.assignment, k, notes=notes)
