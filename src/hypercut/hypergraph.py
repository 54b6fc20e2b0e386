"""r-uniform multi-hypergraphs, k-cuts, and surplus accounting.

Conventions
- Vertex ids are dense integers in [0, n).
- A hypergraph holds two read-only arrays: ``edges``, one row per distinct
  edge of r *distinct* vertices (each row ascending, rows in lexicographic
  order), and ``mult``, the int64 multiplicity of each row.  The total edge
  count m may not exceed 2^53, where float64 stops holding every integer.
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

import numpy as np

from .errors import InputError

MAX_EDGES = 2**53


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


def _merge(rows: np.ndarray, mult: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The canonicaliser: rows in lexicographic order, equal rows merged into
    one with their multiplicities summed.  Both results are read-only."""
    if len(rows):
        order = np.lexsort(rows.T[::-1])
        rows, mult = rows[order], mult[order]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        starts = np.flatnonzero(first)
        rows, mult = rows[starts], np.add.reduceat(mult, starts)
    rows.setflags(write=False)
    mult.setflags(write=False)
    return rows, mult


def _canonicalise(g, cols: int, width: int) -> None:
    """Validate ``g.edges`` ((d, cols) rows whose first ``width`` columns are
    distinct vertices) and ``g.mult``, then store them sorted and merged."""
    try:
        rows, mult = np.asarray(g.edges, dtype=np.int64), np.asarray(g.mult, dtype=np.int64)
    except (OverflowError, ValueError, TypeError) as exc:
        raise InputError(f"edges and multiplicities must be int64 values: {exc}") from None
    rows = rows.reshape(0, cols) if rows.size == 0 else rows
    if rows.ndim != 2 or rows.shape[1] != cols or mult.shape != (len(rows),):
        raise InputError(f"edges must be rows of {width} vertices, one multiplicity each")
    verts = rows[:, :width]
    if not (verts[:, 1:] > verts[:, :-1]).all():  # sort only rows that need it
        verts = np.sort(verts, axis=1)
        if (verts[:, 1:] == verts[:, :-1]).any():
            bad = rows[(verts[:, 1:] == verts[:, :-1]).any(axis=1)][0]
            raise InputError(f"edge {tuple(bad.tolist())} repeats a vertex")
    if len(rows) and (verts[:, 0].min() < 0 or verts[:, -1].max() >= g.n):
        raise InputError(f"an edge leaves the vertex range [0, {g.n})")
    if len(mult) and mult.min() < 1:
        raise InputError(f"multiplicity must be >= 1, got {mult.min()}")
    # The float sum screens out totals that would wrap the exact int64 sum.
    if mult.sum(dtype=np.float64) > 2 * MAX_EDGES or int(mult.sum()) > MAX_EDGES:
        raise InputError(f"total multiplicity exceeds 2^53 = {MAX_EDGES}")
    if cols > width:
        verts = np.concatenate([verts, rows[:, width:]], axis=1)
    rows, mult = _merge(verts, mult)
    object.__setattr__(g, "edges", rows)
    object.__setattr__(g, "mult", mult)


@dataclass(frozen=True, eq=False)
class Hypergraph:
    """Immutable r-uniform multi-hypergraph on vertex set [0, n).

    The constructor takes any (d, r) integer rows and d multiplicities,
    sorts and merges them, and rejects bad input with ``InputError``.
    """

    r: int
    n: int
    edges: np.ndarray  # (d, r) intp, distinct ascending rows, lexicographic
    mult: np.ndarray  # (d,) int64, each >= 1

    def __post_init__(self) -> None:
        if self.r < 2:
            raise InputError(f"uniformity must be >= 2, got {self.r}")
        if self.n < 0:
            raise InputError(f"vertex count must be >= 0, got {self.n}")
        _canonicalise(self, self.r, self.r)

    @classmethod
    def from_edges(cls, r: int, n: int, edges: Iterable) -> "Hypergraph":
        """Build from an iterable of vertex tuples or (vertex-tuple, mult) pairs.

        Equal tuples merge into a single entry with summed multiplicity.
        """
        rows, mult = [], []
        for item in edges:
            pair = len(item) == 2 and isinstance(item[0], (tuple, list))
            rows.append(tuple(item[0]) if pair else tuple(item))
            mult.append(item[1] if pair else 1)
        return cls(r, n, rows, mult)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.r, self.n) == (other.r, other.n) and np.array_equal(
            self.edges, other.edges) and np.array_equal(self.mult, other.mult)

    @property
    def m(self) -> int:
        """Total edge count, multiplicities included."""
        return int(self.mult.sum())


@dataclass(frozen=True, eq=False)
class ColoredMultigraph:
    """Pair-multigraph whose edges carry a color (a vertex id).

    ``edges`` rows are (u, v, color) with u < v, distinct and in
    lexicographic order; ``mult`` holds their multiplicities.
    """

    n: int
    edges: np.ndarray  # (d, 3) intp
    mult: np.ndarray  # (d,) int64

    def __post_init__(self) -> None:
        _canonicalise(self, 3, 2)

    @property
    def m(self) -> int:
        return int(self.mult.sum())

    def max_degree(self) -> int:
        return _max_merged(self.edges[:, [[0], [1]]], self.mult)

    def max_color_degree(self) -> int:
        """Largest count of same-colored edge endpoints at a single vertex."""
        return _max_merged(self.edges[:, [[0, 2], [1, 2]]], self.mult)


def _max_merged(rows: np.ndarray, mult: np.ndarray) -> int:
    """Largest merged multiplicity of ``rows`` (shape (d, j, w)), where each
    of the j sub-rows of edge i carries mult[i]."""
    merged = _merge(rows.reshape(-1, rows.shape[2]), np.repeat(mult, rows.shape[1]))[1]
    return int(merged.max(initial=0))


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


def cut_values(h: Hypergraph, assign: np.ndarray, k: int) -> np.ndarray:
    """Cut sizes of an (n,) assignment or of each row of a (b, n) batch:
    edges (with multiplicity) whose vertices meet all k parts.  Part ids
    must lie in [0, k); they are not checked here."""
    assign = np.asarray(assign)
    if k > h.r:
        return np.zeros(assign.shape[:-1], dtype=np.int64)
    if k > 62:  # too many parts for a bit set: count distinct parts instead
        parts = np.sort(assign[..., h.edges], axis=-1)
        met = (parts[..., 1:] != parts[..., :-1]).sum(axis=-1) == k - 1
    else:  # OR the one-hot part bits over each edge's vertices
        bits = np.left_shift(1, assign).astype(np.uint8 if k <= 8 else np.int64)
        seen = bits[..., h.edges[:, 0]]
        for col in h.edges.T[1:]:
            seen |= bits[..., col]
        met = seen == (1 << k) - 1
    return met @ h.mult


def cut_size(h: Hypergraph, assignment: Sequence[int], k: int) -> int:
    """Number of edges (with multiplicity) meeting all k parts."""
    a = np.asarray(assignment, dtype=np.int64)
    if a.shape != (h.n,):
        raise InputError(f"assignment length {len(assignment)} != vertex count {h.n}")
    if h.n and (a.min() < 0 or a.max() >= k):
        raise InputError(f"part ids {a.min()}..{a.max()} leave the range [0, {k})")
    return int(cut_values(h, a, k))


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


def _subsets(h: Hypergraph, q: int) -> np.ndarray:
    """Every q-subset of every edge: shape (d, C(r, q), q), rows ascending."""
    return h.edges[:, list(itertools.combinations(range(h.r), q))]


def underlying_multigraph(h: Hypergraph, q: int) -> Hypergraph:
    """q-uniform multigraph: each q-subset inherits the multiplicity of every
    edge containing it, so the total edge count is C(r, q) * m."""
    if not (2 <= q < h.r):
        raise InputError(f"need 2 <= q < r, got q={q}, r={h.r}")
    subs = _subsets(h, q)
    return Hypergraph(q, h.n, subs.reshape(-1, q), np.repeat(h.mult, subs.shape[1]))


def colored_pair_graph(h: Hypergraph) -> ColoredMultigraph:
    """View a 3-graph as a pair-multigraph, coloring each pair by the removed
    third vertex of the originating edge."""
    if h.r != 3:
        raise InputError(f"colored pair graph needs r=3, got r={h.r}")
    rows = h.edges[:, [[0, 1, 2], [0, 2, 1], [1, 2, 0]]].reshape(-1, 3)
    return ColoredMultigraph(h.n, rows, np.repeat(h.mult, 3))


def degree_profile(h: Hypergraph) -> DegreeProfile:
    """Maximum degree and maximum co-degree (over (r-1)-subsets)."""
    return DegreeProfile(
        max_degree=_max_merged(_subsets(h, 1), h.mult),
        max_codegree=_max_merged(_subsets(h, h.r - 1), h.mult),
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
    keep = np.unique(np.fromiter(vertex_set, dtype=np.int64))
    if len(keep) and (keep[0] < 0 or keep[-1] >= h.n):
        raise InputError(f"vertex set leaves the range [0, {h.n})")
    relabel = np.full(h.n, -1, dtype=np.int64)
    relabel[keep] = np.arange(len(keep))
    rows = relabel[h.edges]
    inside = (rows >= 0).all(axis=1)
    return Hypergraph(h.r, len(keep), rows[inside], h.mult[inside]), tuple(keep.tolist())


# ---------------------------------------------------------------------------
# Text format: first non-comment line "r n", then one edge per line
# "v1 ... vr [mult]"; '#' starts a comment.
# ---------------------------------------------------------------------------


def format_hypergraph(h: Hypergraph) -> str:
    lines = [f"{h.r} {h.n}"]
    for verts, mult in zip(h.edges.tolist(), h.mult.tolist()):
        body = " ".join(map(str, verts))
        lines.append(body if mult == 1 else f"{body} {mult}")
    return "\n".join(lines) + "\n"


def parse_hypergraph(text: str) -> Hypergraph:
    header: tuple[int, int] | None = None
    rows: list[list[int]] = []
    mult: list[int] = []
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


def load_hypergraph(path) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hypergraph(fh.read())


def dump_hypergraph(h: Hypergraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_hypergraph(h))
