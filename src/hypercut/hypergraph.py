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
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, integer

MAX_EDGES = 2**53
# Largest uniformity accepted.  A surplus is exact, with a denominator that
# divides k^r for some k <= r, and Python prints at most 4,300 digits of an
# int; 1000^1000 has 3,001.  Past r it is only r-sized work (k^r, (d, r)
# arrays) on a graph that still needs r distinct vertices to hold an edge.
MAX_UNIFORMITY = 1_000


def stirling2(r: int, k: int) -> int:
    """Number of partitions of an r-set into k nonempty unlabeled parts."""
    r, k = integer("r", r), integer("k", k)
    if k == 0:
        return 1 if r == 0 else 0
    # S(r,k) = (1/k!) * sum_j (-1)^j C(k,j) (k-j)^r
    total = sum((-1) ** j * math.comb(k, j) * (k - j) ** r for j in range(k + 1))
    return total // math.factorial(k)


def random_cut_coefficient(r: int, k: int) -> Fraction:
    """Expected cut fraction of a uniformly random k-partition: S(r,k)*k!/k^r."""
    k = integer("k", k, 2)
    r = integer("r", r, k)
    return Fraction(stirling2(r, k) * math.factorial(k), k**r)


def _merge(rows: np.ndarray, mult: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The canonicaliser: rows in lexicographic order, equal rows merged into
    one with their multiplicities summed.  Both results are read-only.

    Rows of w ids below b, with b^w < 2^63, are read as one int64 key each,
    their ids as its base-b digits, so that key order is row order.  Where
    the key space b^w holds at most 4 keys per row, the rows are counted:
    one int64 ``np.add.at`` sums each key's multiplicity over the key space,
    and its nonzero keys, in order, decode into the merged rows.  Otherwise
    rows out of order are sorted by key and runs of equal keys merged by
    ``np.add.reduceat``.  Wider rows go through ``np.unique``."""
    if len(rows):
        base, width = int(rows.max()) + 1, rows.shape[1]
        if base**width < 2**63:
            key = rows[:, 0]
            for col in rows.T[1:]:
                key = key * base + col
            if base**width <= 4 * len(rows):
                totals = np.zeros(base**width, dtype=np.int64)
                np.add.at(totals, key, mult)
                key = np.flatnonzero(totals)  # every multiplicity is >= 1
                mult, rows = totals[key], np.empty((len(key), width), dtype=np.intp)
                for j in range(width - 1, -1, -1):
                    key, rows[:, j] = np.divmod(key, base)
            else:
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

    The constructor stores r in [2, MAX_UNIFORMITY] and n >= 0 as Python ints
    (``errors.integer``), sorts and merges any (d, r) integer rows and d
    multiplicities, and rejects bad input with ``InputError``.
    """

    r: int
    n: int
    edges: np.ndarray  # (d, r) intp, distinct ascending rows, lexicographic
    mult: np.ndarray  # (d,) int64, each >= 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", integer("r", self.r, 2, MAX_UNIFORMITY))
        object.__setattr__(self, "n", integer("n", self.n))
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
        """incidence[v]: the ascending ids of the edges that contain v, from
        one stable argsort of the ids (whose flat positions e * r + s divide
        by r to edge ids), cast to the smallest unsigned type that holds
        n - 1: numpy radix-sorts ids of at most 16 bits."""
        ids = self.edges.ravel().astype(np.min_scalar_type(self.n - 1))
        by_vertex = np.argsort(ids, kind="stable") // self.r
        ends = np.cumsum(np.bincount(self.edges.ravel(), minlength=self.n))
        return np.split(by_vertex, ends)[:-1]  # n pieces, none at n = 0

    @functools.cached_property
    def columns(self) -> np.ndarray:
        """``edges.T`` as a read-only C-contiguous (r, d) array: row s holds
        every edge's vertex in slot s, so a gather by slot reads contiguous ids."""
        cols = np.ascontiguousarray(self.edges.T)
        cols.setflags(write=False)
        return cols


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
        k = integer("k", k, 1)
        parts = part_ids(h, assignment, k)
        value = cut_size(h, parts, k)
        coeff = random_cut_coefficient(h.r, k) if 2 <= k <= h.r else Fraction(0)
        return cls(
            k=k,
            assignment=tuple(parts.tolist()),
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


def part_masks(bits: np.ndarray, cols: np.ndarray, axis: int = -1) -> np.ndarray:
    """OR over the r slot rows of the (r, d) ``cols`` (``Hypergraph.columns``) of
    ``bits`` gathered on its vertex ``axis``: per edge, the set of parts its vertices
    meet, from one-hot part bits, one contiguous row of vertex ids gathered at a time."""
    seen = np.take(bits, cols[0], axis=axis)
    for row in cols[1:]:
        seen |= np.take(bits, row, axis=axis)
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
    return cut_counts(h, part_masks(bits, h.columns), (1 << k) - 1)


def part_ids(h: Hypergraph, assignment: Sequence[int], k: int) -> np.ndarray:
    """``assignment`` as an (n,) int64 array, refused unless each entry is an
    integer part id in [0, k).  An integer or bool array is cast as a whole;
    anything else goes entry by entry through ``operator.index``, so that a
    float, even an integral one, is refused, not truncated."""
    try:
        a = np.asarray(assignment)
        if a.dtype.kind not in "biu":
            a = np.fromiter(map(operator.index, a.ravel()), np.int64, a.size).reshape(a.shape)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"part ids must be integers in [0, {k}): {exc}") from None
    a = a.astype(np.int64, copy=False)
    if a.shape != (h.n,):
        raise InputError(f"assignment shape {a.shape} != vertex count ({h.n},)")
    if h.n and (a.min() < 0 or a.max() >= k):
        raise InputError(f"part ids {a.min()}..{a.max()} leave the range [0, {k})")
    return a


def cut_size(h: Hypergraph, assignment: Sequence[int], k: int) -> int:
    """Number of edges (with multiplicity) meeting all k parts."""
    k = integer("k", k, 1)
    return int(cut_values(h, part_ids(h, assignment, k), k))


def edge_subsets(h: Hypergraph, q: int) -> np.ndarray:
    """Every q-subset of every edge: shape (d, C(r, q), q), rows ascending,
    C-contiguous (indexing with the subsets would put axis 0 last in memory,
    and every reshape of it would copy)."""
    return np.take(h.edges, list(itertools.combinations(range(h.r), q)), axis=1)


def underlying_multigraph(h: Hypergraph, q: int) -> Hypergraph:
    """q-uniform multigraph: each q-subset inherits the multiplicity of every
    edge containing it, so the total edge count is C(r, q) * m."""
    if not 2 <= (q := integer("q", q)) < h.r:
        raise InputError(f"need 2 <= q < r, got q={q}, r={h.r}")
    subs = edge_subsets(h, q)
    return Hypergraph(q, h.n, subs.reshape(-1, q), np.repeat(h.mult, subs.shape[1]))


def degree_profile(h: Hypergraph) -> DegreeProfile:
    """Maximum degree and maximum co-degree (over (r-1)-subsets)."""
    return DegreeProfile(
        max_degree=_max_merged(edge_subsets(h, 1), h.mult),
        max_codegree=_max_merged(edge_subsets(h, h.r - 1), h.mult),
    )


def vertex_ids(h: Hypergraph, ids: Iterable[int]) -> np.ndarray:
    """``ids`` as an int64 array, refused unless each is an integer vertex of h."""
    try:
        out = np.fromiter(map(operator.index, ids), dtype=np.int64)
    except (TypeError, OverflowError) as exc:
        raise InputError(f"vertex ids must be integers in [0, {h.n}): {exc}") from exc
    if len(out) and (out.min() < 0 or out.max() >= h.n):
        raise InputError(f"vertex ids leave the range [0, {h.n})")
    return out


def induced_sub(
    h: Hypergraph, vertex_set: Iterable[int]
) -> tuple[Hypergraph, tuple[int, ...]]:
    """Induced subhypergraph on ``vertex_set``, relabeled to dense ids.

    Returns (subgraph, original_ids) where original_ids[i] is the vertex of h
    that became vertex i of the subgraph.
    """
    keep = np.unique(vertex_ids(h, vertex_set))
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
# Bytes of whole lines the byte scan reads at a time.  On dense-chain's 588 KB
# dense3 file, 16 KiB parsed slower and 256 KiB peaked at 8.2 MB traced.
_BLOCK = 1 << 16


def _scan(data: str | bytes):
    """(r, n, rows, mult) of ``data`` read a block of whole lines at a time, or
    None unless the text is plain: outside '#' comments only ASCII digits,
    spaces, tabs and "\n" or "\r\n" breaks, comments of printable ASCII, tokens
    of at most 18 digits, a header of two fields with 2 <= r <= MAX_UNIFORMITY,
    and r or r + 1 fields on every later line that has any."""
    if not data.isascii():
        return None
    data = data.encode() if isinstance(data, str) else data
    rows, d, lo = None, 0, 0
    while lo < len(data):
        hi = data.find(b"\n", lo + _BLOCK) + 1 or len(data)
        b, lo = np.frombuffer(data[lo:hi] + b"\n", dtype=np.uint8), hi
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
        if len(size) == 0:  # a block of blank and comment lines
            continue
        if size.max() > len(_POW10):
            return None
        vals = (b[stops - 1] - ord("0")).astype(np.int64)
        for j in range(1, size.max()):  # the digit j places left of each token's last
            digits = (b[stops - 1 - j] - ord("0")) * _POW10[j]
            digits[size <= j] = 0
            vals += digits
        before = np.searchsorted(starts, ends)  # tokens before each line's end
        fields = np.diff(before, prepend=0)
        lines = np.flatnonzero(fields)
        head, count = (before - fields)[lines], fields[lines]  # each line's first token
        if rows is None:
            if count[0] != 2 or not 2 <= vals[0] <= MAX_UNIFORMITY:
                return None
            r, n = int(vals[0]), int(vals[1])
            breaks = (np.frombuffer(data[i:i + _BLOCK], np.uint8) == 10 for i in range(0, len(data), _BLOCK))
            cap = min(sum(map(np.count_nonzero, breaks)), (len(data) + 1) // (2 * r))  # edge lines, 2r bytes each
            rows, mult = np.empty((cap, r), dtype=np.int64), np.empty(cap, dtype=np.int64)
            head, count = head[1:], count[1:]
        if not ((count == r) | (count == r + 1)).all():
            return None
        np.stack([vals[head + j] for j in range(r)], axis=1, out=rows[d:d + len(head)])
        mult[d:d + len(head)] = np.where(count > r, np.take(vals, head + r, mode="clip"), 1)
        d += len(head)
    if rows is None:
        return None
    rows.resize((d, r), refcheck=False)  # in place: frees the rows no edge line filled
    mult.resize(d, refcheck=False)
    return r, n, rows, mult


def parse_hypergraph(text: str | bytes) -> Hypergraph:
    """Read the text format from a str or a file's bytes: a plain text (see
    ``_scan``) by blocks, any other as UTF-8 line by line, so that an error names its line."""
    if (scanned := _scan(text)) is not None:
        return Hypergraph(*scanned)
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"input is not UTF-8 text: {exc}") from None
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
    """Read the text format from a file path or a file's bytes, decoded only if not plain."""
    if not isinstance(source, bytes):
        with open(source, "rb") as fh:
            source = fh.read()
    return parse_hypergraph(source)


def dump_hypergraph(h: Hypergraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_hypergraph(h))
