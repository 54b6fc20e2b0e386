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

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, InputError

MAX_EDGES = 2**53
# Largest uniformity accepted.  A surplus is exact, with a denominator that
# divides k^r for some k <= r, and Python prints at most 4,300 digits of an
# int; 1000^1000 has 3,001.  Past r it is only r-sized work (k^r, (d, r)
# arrays) on a graph that still needs r distinct vertices to hold an edge.
MAX_UNIFORMITY = 1_000


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
    one with their multiplicities summed.  Both results are read-only.

    Rows of w ids below b, with b^w < 2^63, are compared by one int64 key
    each, their ids as its base-b digits; wider rows by ``np.unique``."""
    if len(rows):
        base = int(rows.max()) + 1
        if base ** rows.shape[1] < 2**63:
            key = rows[:, 0]
            for col in rows.T[1:]:
                key = key * base + col
            if (np.diff(key) < 0).any():  # sorting ordered rows would not move them
                order = np.argsort(key)
                rows, mult, key = (np.take(x, order, axis=0) for x in (rows, mult, key))
            starts = np.flatnonzero(np.diff(key, prepend=-1) != 0)
            rows, mult = np.take(rows, starts, axis=0), np.add.reduceat(mult, starts)
        else:
            rows, inverse = np.unique(rows, axis=0, return_inverse=True)
            summed = np.zeros(len(rows), dtype=np.int64)
            np.add.at(summed, inverse.reshape(-1), mult)
            mult = summed
    rows.setflags(write=False)
    mult.setflags(write=False)
    return rows, mult


def _canonicalise(h) -> None:
    """Validate ``h.edges`` ((d, r) rows of distinct vertices) and ``h.mult``,
    then store them sorted and merged."""
    try:
        rows, mult = np.asarray(h.edges, dtype=np.int64), np.asarray(h.mult, dtype=np.int64)
    except (OverflowError, ValueError, TypeError) as exc:
        raise InputError(f"edges and multiplicities must be int64 values: {exc}") from None
    rows = rows.reshape(0, h.r) if rows.size == 0 else rows
    if rows.ndim != 2 or rows.shape[1] != h.r or mult.shape != (len(rows),):
        raise InputError(f"edges must be rows of {h.r} vertices, one multiplicity each")
    verts = rows
    if not (verts[:, 1:] > verts[:, :-1]).all():  # sort only rows that need it
        verts = np.sort(verts, axis=1)
        if (verts[:, 1:] == verts[:, :-1]).any():
            bad = rows[(verts[:, 1:] == verts[:, :-1]).any(axis=1)][0]
            raise InputError(f"edge {tuple(bad.tolist())} repeats a vertex")
    if len(rows) and (verts[:, 0].min() < 0 or verts[:, -1].max() >= h.n):
        raise InputError(f"an edge leaves the vertex range [0, {h.n})")
    if len(mult) and mult.min() < 1:
        raise InputError(f"multiplicity must be >= 1, got {mult.min()}")
    # The float sum screens out totals that would wrap the exact int64 sum.
    if mult.sum(dtype=np.float64) > 2 * MAX_EDGES or int(mult.sum()) > MAX_EDGES:
        raise InputError(f"total multiplicity exceeds 2^53 = {MAX_EDGES}")
    rows, mult = _merge(verts, mult)
    object.__setattr__(h, "edges", rows)
    object.__setattr__(h, "mult", mult)


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
        if self.r > MAX_UNIFORMITY:
            raise CapacityError(
                f"uniformity {self.r} exceeds the capacity {MAX_UNIFORMITY}"
            )
        if self.n < 0:
            raise InputError(f"vertex count must be >= 0, got {self.n}")
        _canonicalise(self)

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

    @functools.cached_property
    def incidence(self) -> list[np.ndarray]:
        """incidence[v]: ascending indices of the edges that contain v."""
        by_vertex = np.argsort(self.edges.ravel(), kind="stable") // self.r
        ends = np.cumsum(np.bincount(self.edges.ravel(), minlength=self.n))
        return np.split(by_vertex, ends[:-1])


def _max_merged(rows: np.ndarray, mult: np.ndarray) -> int:
    """Largest merged multiplicity of ``rows`` (shape (d, j, w)), where each
    of the j sub-rows of edge i carries mult[i]."""
    merged = _merge(rows.reshape(-1, rows.shape[2]), np.repeat(mult, rows.shape[1]))[1]
    return int(merged.max(initial=0))


@dataclass(frozen=True)
class DegreeProfile:
    max_degree: int
    max_codegree: int


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


MAX_IDS = 10**8  # most vertex ids (r per edge) a generator or the solver's chain holds
# Cells one scoring step holds (rows x cells per row): bounds its memory.
_CELLS = 1 << 19


def chunk_rows(width: int) -> int:
    """Rows of ``width`` cells each that one scoring step holds within _CELLS."""
    return max(1, _CELLS // max(width, 1))


def part_masks(bits: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """OR of bits[..., c] over the r columns c of each (d, r) row of ``cols``:
    per edge, the set of parts its vertices meet, from one-hot part bits."""
    seen = bits[..., cols[:, 0]]
    for col in cols.T[1:]:
        seen |= bits[..., col]
    return seen


def cut_counts(h: Hypergraph, seen: np.ndarray, full: int) -> np.ndarray:
    """Cut sizes from ``seen`` (..., d), one entry per edge of h.edges: an
    edge is cut when its entry is ``full``, and each cut edge counts h.mult
    times.  One int64 sum, exact: every total is at most m <= 2^53 < 2^63."""
    return np.einsum("...d,d->...", seen == full, h.mult, dtype=np.int64)


def cut_values(h: Hypergraph, assign: np.ndarray, k: int) -> np.ndarray:
    """Cut sizes of an (n,) assignment or of each row of a (b, n) batch:
    edges (with multiplicity) whose vertices meet all k parts.  Part ids
    must lie in [0, k); they are not checked here."""
    assign = np.asarray(assign)
    if k > h.r:
        return np.zeros(assign.shape[:-1], dtype=np.int64)
    if k > 62:  # too many parts for a bit set: count part changes instead
        parts = np.sort(assign[..., h.edges], axis=-1)
        return cut_counts(h, (parts[..., 1:] != parts[..., :-1]).sum(axis=-1), k - 1)
    bits = np.left_shift(1, assign).astype(np.uint8 if k <= 8 else np.int64)
    return cut_counts(h, part_masks(bits, h.edges), (1 << k) - 1)


def cut_size(h: Hypergraph, assignment: Sequence[int], k: int) -> int:
    """Number of edges (with multiplicity) meeting all k parts."""
    a = np.asarray(assignment, dtype=np.int64)
    if a.shape != (h.n,):
        raise InputError(f"assignment length {len(assignment)} != vertex count {h.n}")
    if h.n and (a.min() < 0 or a.max() >= k):
        raise InputError(f"part ids {a.min()}..{a.max()} leave the range [0, {k})")
    return int(cut_values(h, a, k))


def edge_subsets(h: Hypergraph, q: int) -> np.ndarray:
    """Every q-subset of every edge: shape (d, C(r, q), q), rows ascending."""
    return h.edges[:, list(itertools.combinations(range(h.r), q))]


def underlying_multigraph(h: Hypergraph, q: int) -> Hypergraph:
    """q-uniform multigraph: each q-subset inherits the multiplicity of every
    edge containing it, so the total edge count is C(r, q) * m."""
    if not (2 <= q < h.r):
        raise InputError(f"need 2 <= q < r, got q={q}, r={h.r}")
    subs = edge_subsets(h, q)
    return Hypergraph(q, h.n, subs.reshape(-1, q), np.repeat(h.mult, subs.shape[1]))


def degree_profile(h: Hypergraph) -> DegreeProfile:
    """Maximum degree and maximum co-degree (over (r-1)-subsets)."""
    return DegreeProfile(
        max_degree=_max_merged(edge_subsets(h, 1), h.mult),
        max_codegree=_max_merged(edge_subsets(h, h.r - 1), h.mult),
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
    """The text format, filled by one ``%`` over a template of one
    "%d ... %d\\n" line per edge, with one more field where mult != 1."""
    single = h.mult == 1
    body = " ".join(["%d"] * h.r)
    template = "".join(np.where(single, body + "\n", body + " %d\n").tolist())
    fields = np.ones((len(single), h.r + 1), dtype=bool)
    fields[:, h.r] = ~single
    values = np.column_stack([h.edges, h.mult])[fields]
    return f"{h.r} {h.n}\n" + template % tuple(values.tolist())


# Place values of a token's digits: the byte scan reads tokens of at most 18
# digits, whose values stay below 10^18 < 2^63.
_POW10 = 10 ** np.arange(18, dtype=np.int64)


def _scan(text: str):
    """(r, n, rows, mult) of ``text`` read in one pass over its bytes, or None
    unless the text is plain: outside '#' comments only ASCII digits, spaces,
    tabs and "\n" or "\r\n" line breaks, comments of printable ASCII, tokens
    of at most 18 digits, a header of two fields with 2 <= r <= MAX_UNIFORMITY,
    and r or r + 1 fields on every later line that has any."""
    try:
        b = np.frombuffer(text.encode("ascii") + b"\n", dtype=np.uint8)
    except UnicodeEncodeError:
        return None
    ends = np.flatnonzero(b == ord("\n"))  # line i ends at byte ends[i]
    # A comment runs from the first '#' of a line up to the line's end.
    hashes = np.flatnonzero(b == ord("#"))
    stop = ends[np.searchsorted(ends, hashes)]
    first = np.diff(stop, prepend=-1) != 0
    bounds = np.column_stack([hashes[first], stop[first]]).ravel()
    inside = np.arange(len(bounds) + 1) % 2 == 1
    comment = np.repeat(inside, np.diff(bounds, prepend=0, append=len(b)))
    digit = (b >= ord("0")) & (b <= ord("9")) & ~comment
    blank = (b == ord(" ")) | (b == ord("\t")) | (b == ord("\n"))
    blank[:-1] |= (b[:-1] == ord("\r")) & (b[1:] == ord("\n"))
    if not (digit | blank | (comment & (b >= ord(" ")) & (b <= ord("~")))).all():
        return None
    edge = np.flatnonzero(np.diff(digit, prepend=False))  # tokens open and close
    starts, stops = edge[::2], edge[1::2]
    size = stops - starts
    if len(size) == 0 or size.max() > len(_POW10):
        return None
    vals = (b[stops - 1] - ord("0")).astype(np.int64)
    for j in range(1, size.max()):  # the digit j places left of each token's last
        digits = (b[stops - 1 - j] - ord("0")) * _POW10[j]
        digits[size <= j] = 0
        vals += digits
    before = np.searchsorted(starts, ends)  # tokens before each line's end
    fields = np.diff(before, prepend=0)
    lines = np.flatnonzero(fields)
    if fields[lines[0]] != 2:
        return None
    r, n, count = int(vals[0]), int(vals[1]), fields[lines[1:]]
    if not 2 <= r <= MAX_UNIFORMITY or not ((count == r) | (count == r + 1)).all():
        return None
    head = (before - fields)[lines[1:]]  # each edge line's first token
    mult = np.ones(len(head), dtype=np.int64)
    mult[count > r] = vals[head[count > r] + r]
    return r, n, np.stack([vals[head + j] for j in range(r)], axis=1), mult


def parse_hypergraph(text: str) -> Hypergraph:
    """Read the text format: a plain text (see ``_scan``) in one pass over its
    bytes, any other one line by line, so that an error names its line."""
    if (scanned := _scan(text)) is not None:
        return Hypergraph(*scanned)
    header, rows, mult = None, [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        try:
            nums = list(map(int, tokens))
        except ValueError as exc:
            raise InputError(f"line {lineno}: not an integer list: {raw!r}") from exc
        if header is None:
            if len(nums) != 2:
                raise InputError(f"line {lineno}: header must be 'r n'")
            header = nums
        elif len(nums) - header[0] in (0, 1):
            rows.append(nums[:header[0]])
            mult.append(nums[header[0]] if len(nums) > header[0] else 1)
        else:
            raise InputError(
                f"line {lineno}: expected {header[0]} vertices with optional "
                f"multiplicity, got {len(nums)} fields"
            )
    if header is None:
        raise InputError("empty input: missing 'r n' header line")
    return Hypergraph(*header, rows, mult)


def load_hypergraph(source) -> Hypergraph:
    """Read the text format from a file path, or from the bytes of a file."""
    if not isinstance(source, bytes):
        with open(source, "rb") as fh:
            source = fh.read()
    try:
        text = source.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"input is not UTF-8 text: {exc}") from None
    return parse_hypergraph(text)


def dump_hypergraph(h: Hypergraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_hypergraph(h))
