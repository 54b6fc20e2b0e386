"""r-uniform multi-hypergraphs, k-cuts, and surplus accounting.

Conventions
- Vertex ids are dense integers in [0, n).
- An edge is a sorted tuple of r *distinct* vertices (no loops); repeated
  edges are stored once with an integer multiplicity.
- A k-cut is an assignment vector of length n with values in [0, k); its
  size counts edges (with multiplicity) that meet all k parts.
- Surpluses are exact ``Fraction`` values: cut size minus the random-cut
  expectation ``S(r,k) * k! / k^r * m``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputError

Edge = tuple[int, ...]


def stirling2(r: int, k: int) -> int:
    """Number of partitions of an r-set into k nonempty unlabeled parts."""
    if k < 0 or r < 0:
        raise InputError("stirling2 needs nonnegative arguments")
    if k == 0:
        return 1 if r == 0 else 0
    # S(r,k) = (1/k!) * sum_j (-1)^j C(k,j) (k-j)^r
    total = sum((-1) ** j * math.comb(k, j) * (k - j) ** r for j in range(k + 1))
    return total // math.factorial(k)


def random_cut_coefficient(r: int, k: int) -> Fraction:
    """Expected cut fraction of a uniformly random k-partition: S(r,k)*k!/k^r."""
    if not (2 <= k <= r):
        raise InputError(f"need 2 <= k <= r, got k={k}, r={r}")
    return Fraction(stirling2(r, k) * math.factorial(k), k**r)


def _canonical_edges(
    r: int, n: int, edges: Iterable
) -> tuple[tuple[Edge, int], ...]:
    merged: dict[Edge, int] = {}
    for item in edges:
        if len(item) == 2 and isinstance(item[0], (tuple, list)):
            verts, mult = item
            mult = int(mult)
        else:
            verts, mult = item, 1
        if mult < 1:
            raise InputError(f"multiplicity must be >= 1, got {mult}")
        tup = tuple(sorted(int(v) for v in verts))
        if len(tup) != r:
            raise InputError(f"edge {tup} does not have {r} vertices")
        if len(set(tup)) != r:
            raise InputError(f"edge {tup} repeats a vertex")
        if tup[0] < 0 or tup[-1] >= n:
            raise InputError(f"edge {tup} leaves the vertex range [0, {n})")
        merged[tup] = merged.get(tup, 0) + mult
    return tuple(sorted(merged.items()))


@dataclass(frozen=True)
class Hypergraph:
    """Immutable r-uniform multi-hypergraph on vertex set [0, n)."""

    r: int
    n: int
    edges: tuple[tuple[Edge, int], ...]

    @classmethod
    def from_edges(cls, r: int, n: int, edges: Iterable) -> "Hypergraph":
        """Build from an iterable of vertex tuples or (vertex-tuple, mult) pairs.

        Equal tuples merge into a single entry with summed multiplicity.
        """
        if r < 2:
            raise InputError(f"uniformity must be >= 2, got {r}")
        if n < 0:
            raise InputError(f"vertex count must be >= 0, got {n}")
        return cls(r=r, n=n, edges=_canonical_edges(r, n, edges))

    @property
    def m(self) -> int:
        """Total edge count, multiplicities included."""
        return sum(mult for _, mult in self.edges)


@dataclass(frozen=True)
class ColoredMultigraph:
    """Pair-multigraph whose edges carry a color (a vertex id).

    Edges are stored as (u, v, color, multiplicity) with u < v.
    """

    n: int
    edges: tuple[tuple[int, int, int, int], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable) -> "ColoredMultigraph":
        merged: dict[tuple[int, int, int], int] = {}
        for item in edges:
            if len(item) == 4:
                u, v, color, mult = item
            else:
                (u, v, color), mult = item, 1
            if u == v:
                raise InputError(f"colored edge ({u},{v}) is a loop")
            if mult < 1:
                raise InputError(f"multiplicity must be >= 1, got {mult}")
            if u > v:
                u, v = v, u
            if min(u, v) < 0 or max(u, v) >= n:
                raise InputError(f"edge ({u},{v}) leaves the vertex range")
            merged[(u, v, color)] = merged.get((u, v, color), 0) + mult
        return cls(n=n, edges=tuple(sorted((k + (m,) for k, m in merged.items()))))

    @property
    def m(self) -> int:
        return sum(mult for *_, mult in self.edges)

    def colors(self) -> tuple[int, ...]:
        return tuple(sorted({c for _, _, c, _ in self.edges}))

    def max_degree(self) -> int:
        deg: dict[int, int] = {}
        for u, v, _, mult in self.edges:
            deg[u] = deg.get(u, 0) + mult
            deg[v] = deg.get(v, 0) + mult
        return max(deg.values(), default=0)

    def max_color_degree(self) -> int:
        """Largest count of same-colored edge endpoints at a single vertex."""
        deg: dict[tuple[int, int], int] = {}
        for u, v, c, mult in self.edges:
            deg[(u, c)] = deg.get((u, c), 0) + mult
            deg[(v, c)] = deg.get((v, c), 0) + mult
        return max(deg.values(), default=0)


@dataclass(frozen=True)
class DegreeProfile:
    max_degree: int
    max_codegree: int
    m: int
    n: int


@dataclass(frozen=True)
class KCut:
    """A k-partition of the vertices with its cut size and exact surplus."""

    k: int
    assignment: tuple[int, ...]
    cut_value: int
    surplus: Fraction
    notes: tuple[str, ...] = field(default=())

    @classmethod
    def from_assignment(
        cls, h: Hypergraph, assignment: Sequence[int], k: int, notes: tuple[str, ...] = ()
    ) -> "KCut":
        value = cut_size(h, assignment, k)
        coeff = random_cut_coefficient(h.r, k) if 2 <= k <= h.r else Fraction(0)
        return cls(
            k=k,
            assignment=tuple(int(a) for a in assignment),
            cut_value=value,
            surplus=Fraction(value) - coeff * h.m,
            notes=notes,
        )


def cut_size(h: Hypergraph, assignment: Sequence[int], k: int) -> int:
    """Number of edges (with multiplicity) meeting all k parts."""
    if len(assignment) != h.n:
        raise InputError(
            f"assignment length {len(assignment)} != vertex count {h.n}"
        )
    for a in assignment:
        if not (0 <= a < k):
            raise InputError(f"part id {a} out of range [0, {k})")
    total = 0
    for verts, mult in h.edges:
        if len({assignment[v] for v in verts}) == k:
            total += mult
    return total


def surplus_of_cut(h: Hypergraph, cut: KCut) -> Fraction:
    """Exact surplus of a cut; recomputes and cross-checks the stored value."""
    value = cut_size(h, cut.assignment, cut.k)
    if value != cut.cut_value:
        raise InputError(
            f"cut is inconsistent with the hypergraph: stored value "
            f"{cut.cut_value}, recomputed {value}"
        )
    coeff = random_cut_coefficient(h.r, cut.k) if 2 <= cut.k <= h.r else Fraction(0)
    return Fraction(value) - coeff * h.m


def underlying_multigraph(h: Hypergraph, q: int) -> Hypergraph:
    """q-uniform multigraph: each q-subset inherits the multiplicity of every
    edge containing it, so the total edge count is C(r, q) * m."""
    if not (2 <= q < h.r):
        raise InputError(f"need 2 <= q < r, got q={q}, r={h.r}")
    merged: dict[Edge, int] = {}
    for verts, mult in h.edges:
        for sub in itertools.combinations(verts, q):
            merged[sub] = merged.get(sub, 0) + mult
    return Hypergraph(r=q, n=h.n, edges=tuple(sorted(merged.items())))


def colored_pair_graph(h: Hypergraph) -> ColoredMultigraph:
    """View a 3-graph as a pair-multigraph, coloring each pair by the removed
    third vertex of the originating edge."""
    if h.r != 3:
        raise InputError(f"colored pair graph needs r=3, got r={h.r}")
    out = []
    for (a, b, c), mult in h.edges:
        out.append((a, b, c, mult))
        out.append((a, c, b, mult))
        out.append((b, c, a, mult))
    return ColoredMultigraph.from_edges(h.n, out)


def degree_profile(h: Hypergraph) -> DegreeProfile:
    """Maximum degree and maximum co-degree (over (r-1)-subsets)."""
    deg: dict[int, int] = {}
    codeg: dict[Edge, int] = {}
    for verts, mult in h.edges:
        for v in verts:
            deg[v] = deg.get(v, 0) + mult
        for sub in itertools.combinations(verts, h.r - 1):
            codeg[sub] = codeg.get(sub, 0) + mult
    return DegreeProfile(
        max_degree=max(deg.values(), default=0),
        max_codegree=max(codeg.values(), default=0),
        m=h.m,
        n=h.n,
    )


def induced_sub(
    h: Hypergraph, vertex_set: Iterable[int]
) -> tuple[Hypergraph, tuple[int, ...]]:
    """Induced subhypergraph on ``vertex_set``, relabeled to dense ids.

    Returns (subgraph, original_ids) where original_ids[i] is the vertex of h
    that became vertex i of the subgraph.
    """
    keep = sorted(set(int(v) for v in vertex_set))
    if keep and (keep[0] < 0 or keep[-1] >= h.n):
        raise InputError(f"vertex set leaves the range [0, {h.n})")
    relabel = {v: i for i, v in enumerate(keep)}
    keep_set = set(keep)
    edges = []
    for verts, mult in h.edges:
        if all(v in keep_set for v in verts):
            edges.append((tuple(relabel[v] for v in verts), mult))
    return (
        Hypergraph(r=h.r, n=len(keep), edges=tuple(sorted(edges))),
        tuple(keep),
    )


# ---------------------------------------------------------------------------
# Text format: first non-comment line "r n", then one edge per line
# "v1 ... vr [mult]"; '#' starts a comment.
# ---------------------------------------------------------------------------


def format_hypergraph(h: Hypergraph) -> str:
    lines = [f"{h.r} {h.n}"]
    for verts, mult in h.edges:
        body = " ".join(str(v) for v in verts)
        lines.append(body if mult == 1 else f"{body} {mult}")
    return "\n".join(lines) + "\n"


def parse_hypergraph(text: str) -> Hypergraph:
    header: tuple[int, int] | None = None
    edges: list[tuple[Edge, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            nums = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise InputError(f"line {lineno}: not an integer list: {raw!r}") from exc
        if header is None:
            if len(nums) != 2:
                raise InputError(f"line {lineno}: header must be 'r n'")
            header = (nums[0], nums[1])
            continue
        r = header[0]
        if len(nums) == r:
            edges.append((tuple(nums), 1))
        elif len(nums) == r + 1:
            edges.append((tuple(nums[:r]), nums[r]))
        else:
            raise InputError(
                f"line {lineno}: expected {r} vertices with optional "
                f"multiplicity, got {len(nums)} fields"
            )
    if header is None:
        raise InputError("empty input: missing 'r n' header line")
    try:
        return Hypergraph.from_edges(header[0], header[1], edges)
    except InputError as exc:
        raise InputError(str(exc)) from exc


def load_hypergraph(path) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hypergraph(fh.read())


def dump_hypergraph(h: Hypergraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_hypergraph(h))
