"""Differential tests: every array layer against the pure-Python reference in
``reference.py``, on random multi-hypergraphs (r in {2, 3, 4}, n <= 8,
multiplicities 1-3), the chunked best-cut pick against a min over tuples,
the lift against one draw per trial, the lockstep 1-flip search against one
sweep loop per start and, over groups of matrices, against each group
alone, the batched 3-cut trials against one trial at a time, the k-way
search's term cells and pattern table against a per-term rule, the k-way search and the
conditional-expectation cut also on seeded graphs of 20-30 vertices and
100-300 edges, the latter
against enumeration of completions and exact per-edge cut chances, the
byte-scan parser against the line-by-line one, the packed-key canonicaliser
on both sides of its int64 bound, the bincount adjacency and the pair-graph
matrix against two ``np.add.at`` passes, the
growth-string oracle against the full scan, the chunked generators against
one draw per candidate, the linear packer against one triple at a time, and
the one-template writer against one f-string per line."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypercut import (
    Hypergraph,
    InputError,
    SamplePlan,
    SymmetricMatrix,
    brute_force_max_kcut,
    colored_sampling_experiment,
    cut_size,
    cut_values,
    degree_profile,
    format_hypergraph,
    gen_complete,
    gen_random_linear_3graph,
    load_hypergraph,
    gen_random_uniform,
    induced_sub,
    local_search_1flip,
    parse_hypergraph,
    random_cut_coefficient,
    reduce_cut_up,
    sample_and_reduce,
    underlying_multigraph,
)
from hypercut import generators, hypergraph, oracle, solver
from hypercut.rounding import local_search_1flip_groups
from hypercut.spectral import adjacency
from hypercut.solver import _CutEvaluator, _slot_terms
from conftest import random_multigraph, random_symmetric
from reference import (
    as_items,
    ref_adjacency,
    ref_best,
    ref_cut,
    ref_direct_3cut,
    ref_expectation_cut,
    ref_expectation_cut_exact,
    ref_format,
    ref_gen_random_uniform,
    ref_linear_packing,
    ref_local_search,
    ref_local_search_1flip,
    ref_merge,
    ref_max_kcut,
    ref_parse,
    ref_reduce_cut_up,
)


# multiplicities 1, small, and up to 2^53, the largest total edge count
BIG_MULT = st.integers(1, 3) | st.integers(4, 2**49) | st.just(2**53)


@st.composite
def raw_items(draw, rs=(2, 3, 4), min_n=None, mult=st.integers(1, 3)):
    """(r, n, items): edge items as drawn, unsorted and possibly repeated;
    n >= r unless ``min_n`` is given."""
    r = draw(st.sampled_from(rs))
    n = draw(st.integers(r if min_n is None else min_n, 8))
    edge = st.lists(st.integers(0, n - 1), min_size=r, max_size=r, unique=True)
    items = st.lists(st.tuples(edge.map(tuple), mult), max_size=12)
    items = draw(items) if n >= r else []
    return r, n, items


def graphs(rs=(2, 3, 4), min_n=None, mult=st.integers(1, 3)):
    """Hypergraphs of raw_items whose total edge count m is at most 2^53."""
    raw = raw_items(rs, min_n, mult).filter(lambda t: sum(m for _, m in t[2]) <= 2**53)
    return raw.map(lambda t: Hypergraph.from_edges(t[0], t[1], t[2]))


def subsets(n):
    return st.sets(st.integers(0, n - 1))


@settings(max_examples=60, deadline=None)
@given(raw_items(), st.randoms(use_true_random=False))
def test_from_edges_is_canonical(raw, rnd):
    r, n, items = raw
    canonical = ref_merge(items)
    h = Hypergraph.from_edges(r, n, items)
    assert as_items(h) == canonical
    # split multiplicities into repeats, permute each edge, shuffle the order
    messy = [(tuple(rnd.sample(v, r)), 1) for v, mult in items for _ in range(mult)]
    rnd.shuffle(messy)
    assert Hypergraph.from_edges(r, n, messy) == h
    # rows already in order, repeats included: the constructor skips its sort
    ordered = sorted((tuple(sorted(v)), 1) for v, mult in items for _ in range(mult))
    assert Hypergraph.from_edges(r, n, ordered) == h
    assert h.edges.dtype == np.intp and h.mult.dtype == np.int64
    assert h.edges.shape == (len(canonical), r)


# Largest id whose rows of w ids still pack into one int64 key, base^w < 2^63
# with base = id + 1: 6,207 for w = 5 and 3,037,000,498 for w = 2.
KEY_TOPS = {5: 6_207, 2: 3_037_000_498}


@settings(max_examples=30, deadline=None)
@pytest.mark.parametrize(
    "r, top", [(r, t + d) for r, t in KEY_TOPS.items() for d in (-1, 0, 1)] + [(2, 2**62), (5, 10**6)]
)
@given(data=st.data())
def test_merge_matches_reference_at_the_key_bound(r, top, data):
    """Rows of r ids from {0, 1} and the five ids up to top, one row holding
    top, so that the packed key is the canonicaliser's choice just below and
    at the bound, and column-wise ``lexsort`` above it, where the keys of
    the highest rows pass 2^63 once top is well past the bound."""
    assert ((top + 1) ** r < 2**63) == (top <= KEY_TOPS[r])
    edge = st.permutations([0, 1, *range(top - 4, top + 1)]).map(lambda p: tuple(p[:r]))
    items = data.draw(st.lists(st.tuples(edge, st.integers(1, 3)), max_size=12))
    items.insert(data.draw(st.integers(0, len(items))), ((top, *range(r - 1)), 1))
    assert as_items(Hypergraph.from_edges(r, top + 1, items)) == ref_merge(items)


# (width w, base b, rows d, counted): the canonicaliser counts rows when the
# key space b^w holds at most 4 keys per row, and sorts them otherwise.
COUNT_BOUND = [
    (2, 6, 9, True),  # b^w = 36 = 4d
    (2, 5, 6, False),  # 25 = 4d + 1
    (3, 4, 16, True),  # 64 = 4d
    (3, 5, 31, False),  # 125 = 4d + 1
    (1, 4, 1, True),  # a single row: 4 = 4d
    (2, 3, 1, False),  # a single row: 9 > 4d
]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", ["spread", "repeated"])
@pytest.mark.parametrize("w, b, d, counted", COUNT_BOUND)
def test_merge_matches_reference_at_the_count_bound(w, b, d, counted, case, seed, monkeypatch):
    """Rows of w ids below b, one of them holding b - 1, drawn at random or
    all equal to one repeated row, on each side of the bound: the counting
    path sorts nothing, and both paths match the reference."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, b, size=(d, w))
    if case == "repeated":
        rows[:] = rows[0]
    rows[0, rng.integers(w)] = b - 1
    mult = rng.integers(1, 2**40, size=d)
    sorts = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: sorts.append(1) or argsort(*a, **kw))
    merged, summed = hypergraph._merge(rows, mult)
    assert list(zip(map(tuple, merged.tolist()), summed.tolist())) == ref_merge(
        zip(map(tuple, rows.tolist()), mult.tolist()), key=tuple)
    assert merged.dtype == np.intp and summed.dtype == np.int64
    assert not merged.flags.writeable and not summed.flags.writeable
    if counted:
        assert not sorts


@pytest.mark.parametrize("n", [0, 1, 256, 257, 65_537])
def test_incidence_matches_a_scan_of_the_edges(n):
    """On each side of the 8- and 16-bit id types, with the ids 254, 255,
    256 (where it is one) and n - 1 in edges, and on n = 0 and 1, which
    hold no edge: one row per vertex, none at n = 0, each holding the ids
    of v's edges, ascending.  The slot-major columns are edges.T, read-only."""
    rng = np.random.default_rng(n)
    rows = [rng.choice(n, size=3, replace=False) for _ in range(200 * (n >= 3))]
    rows += [(0, 254, 255), (1, 2, n - 1)] * (n >= 256) + [(3, 255, 256)] * (n > 256)
    h = Hypergraph(3, n, rows, np.ones(len(rows), dtype=np.int64))
    assert len(h.incidence) == n
    for v, edges in enumerate(h.incidence):
        assert edges.tolist() == np.flatnonzero((h.edges == v).any(axis=1)).tolist()
    assert h.columns.shape == (3, len(h.mult)) and h.columns.flags.c_contiguous
    assert np.array_equal(h.columns, h.edges.T) and not h.columns.flags.writeable


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 9), st.booleans(), st.data())
def test_adjacency_matches_two_add_at_passes(n, floats, data):
    """Bit for bit, on unmerged pairs in either order with repeats, for
    integer weights and for float weights whose sums round."""
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = np.array(data.draw(st.lists(pair, max_size=30) if n else st.just([])),
                     dtype=np.int64).reshape(-1, 2)
    weight = st.floats(-1e6, 1e6) if floats else st.integers(1, 2**40)
    weights = np.array(data.draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs))),
                       dtype=float if floats else np.int64)
    assert adjacency(n, pairs, weights).tobytes() == ref_adjacency(n, pairs, weights).tobytes()


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_pair_graph_matrix_matches_reference(h):
    """From the unmerged pairs of an r-graph of any r, bit for bit the
    reference adjacency of its merged pair multigraph."""
    pairs = h if h.r == 2 else underlying_multigraph(h, 2)
    expected = ref_adjacency(h.n, pairs.edges, pairs.mult)
    assert SymmetricMatrix.from_pair_graph(h).a.tobytes() == expected.tobytes()


@settings(max_examples=20, deadline=None)
@given(graphs())
def test_arrays_are_read_only(h):
    assert not h.edges.flags.writeable and not h.mult.flags.writeable
    with pytest.raises(ValueError):
        h.mult[...] = 1


@settings(max_examples=60, deadline=None)
@given(st.one_of(graphs(), graphs(mult=BIG_MULT)), st.data())
def test_cut_evaluators_match_reference(h, data):
    """Multiplicities 1-3, and up to 2^53, where every count must stay exact."""
    items = as_items(h)
    for k in range(2, h.r + 2):
        batch = data.draw(st.lists(
            st.lists(st.integers(0, k - 1), min_size=h.n, max_size=h.n),
            min_size=1, max_size=4))
        expected = [ref_cut(items, a, k) for a in batch]
        ev = _CutEvaluator(h, k)
        assert [cut_size(h, a, k) for a in batch] == expected
        assert [ev.value(np.array(a)) for a in batch] == expected
        assert cut_values(h, np.array(batch), k).tolist() == expected


@settings(max_examples=300, deadline=None)
@given(graphs(min_n=0), st.data())
def test_best_cut_matches_reference(h, data):
    """The pick from a stack with repeated and tied rows, given as an array
    or as a generator, scored in one chunk or in chunks of 1-3 rows."""
    k = data.draw(st.integers(2, h.r + 1))
    row = st.lists(st.integers(0, k - 1), min_size=h.n, max_size=h.n)
    pool = data.draw(st.lists(row, min_size=1, max_size=6))
    stack = [pool[i] for i in data.draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))]
    expected = ref_best(as_items(h), stack, k)
    ev = _CutEvaluator(h, k)
    rows = data.draw(st.sampled_from([None, 1, 2, 3]), label="chunk rows")
    cells = hypergraph._CELLS if rows is None else rows * max(h.edges.size, h.n, 1)
    with mock.patch.object(hypergraph, "_CELLS", cells):
        for given_as in (np.array(stack, dtype=np.intp), map(np.array, stack)):
            assert tuple(ev.best(given_as).tolist()) == expected


@settings(max_examples=40, deadline=None)
@given(graphs(rs=(3, 4, 5), min_n=0), st.data())
def test_reduce_cut_up_matches_reference(h, data):
    base = data.draw(st.lists(st.integers(0, h.r - 2), min_size=h.n, max_size=h.n))
    trials, seed = data.draw(st.integers(1, 8)), data.draw(st.integers(0, 2**32))
    lifted = reduce_cut_up(h, base, SamplePlan(trials, seed))
    assert tuple(lifted.tolist()) == ref_reduce_cut_up(h, base, trials, seed)


@settings(max_examples=120, deadline=None)
@given(st.one_of(graphs(), graphs(mult=BIG_MULT)), st.data())
def test_kway_local_search_matches_reference(h, data):
    """Multiplicities 1-3, and up to 2^53, where every gain-table entry must
    stay exact."""
    items = as_items(h)
    for k in range(2, h.r + 2):
        start = data.draw(st.lists(st.integers(0, k - 1), min_size=h.n, max_size=h.n))
        found = _CutEvaluator(h, k).local_search(start).tolist()
        assert found == ref_local_search(items, h.n, start, k)
        if k > h.r:  # no edge can meet all k parts: nothing to improve
            assert found == start


def test_kway_local_search_tells_heavy_weights_one_apart():
    """Moving vertex 2 to part 1 wins 2^50 + 1 and loses 2^50: a gain table
    that rounded them to one value would stop at the start."""
    h = Hypergraph.from_edges(
        2, 4, [((0, 2), 2**50 + 1), ((1, 2), 2**50), ((0, 3), 2**51)]
    )
    start = [0, 1, 0, 1]
    found = _CutEvaluator(h, 2).local_search(start).tolist()
    assert found == ref_local_search(as_items(h), h.n, start, 2) == [0, 0, 1, 1]


def seeded_graph(seed, r):
    """A graph on 20-30 vertices with 100-300 drawn edges of uniformity r,
    multiplicities 1-3: larger than the hypothesis graphs, so that searches
    make many moves and vertices see many (placed parts, free) keys."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 31))
    rows = [rng.choice(n, size=r, replace=False) for _ in range(rng.integers(100, 301))]
    return Hypergraph(r, n, rows, rng.integers(1, 4, size=len(rows)))


@pytest.mark.parametrize("r, k", [(r, k) for r in (3, 4, 5) for k in range(2, r + 1)]
                         + [(7, 4), (7, 7), (13, 2), (13, 12), (13, 13)])
def test_kway_local_search_matches_reference_on_larger_graphs(r, k):
    """Half the vertices start in part 0, so that every case up to r = 7,
    k = 2 on 5-graphs included, makes 8-34 moves.  At k >= 12 that start
    leaves every edge two or more parts short, where no move gains, so the
    vertices start spread evenly over the parts.  13-graphs make 1-10 moves.
    On 7-graphs at k = 4 and 7, and on 13-graphs at every k, k^r * r is past
    the pattern table's bound, and ``_slot_terms`` counts each edge's parts."""
    h = seeded_graph(100 * r + k, r)
    rng = np.random.default_rng(k)
    if k < 12:
        start = np.where(rng.random(h.n) < 0.5, 0, rng.integers(0, k, size=h.n)).tolist()
    else:
        start = (rng.permutation(h.n) % k).tolist()
    counted = k**r * r > solver._PATTERN_CELLS
    if not counted:
        solver._pattern_rows(k, r)  # cached: the search itself calls no _slot_terms
    with mock.patch.object(solver, "_slot_terms", wraps=solver._slot_terms) as placed:
        found = _CutEvaluator(h, k).local_search(start).tolist()
    assert placed.called == counted
    assert found == ref_local_search(as_items(h), h.n, start, k)
    assert cut_size(h, found, k) > cut_size(h, start, k)


def term_row(parts, j, k):
    """The gain-table row of slot j's term in an edge with parts ``parts``:
    the loss row k where its vertex is alone in its part and the edge is
    cut, the win row b where it is not alone and b is the edge's one
    missing part, and the dead row k + 1 otherwise."""
    missing = [b for b in range(k) if b not in parts]
    if parts.count(parts[j]) == 1:
        return k if not missing else k + 1
    return missing[0] if len(missing) == 1 else k + 1


@pytest.mark.parametrize("r, k", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 5), (5, 6)])
def test_slot_terms_follow_the_per_term_rule(r, k):
    """Each (edge, slot) cell is row * n + vertex, its row by ``term_row``,
    on edges that miss 0, 1 and 2 parts (1 and 2 at k = r + 1)."""
    rng = np.random.default_rng(10 * r + k)
    n, e = 12, 80
    rows = np.array([rng.choice(n, size=r, replace=False) for _ in range(e)])
    missing_counts = range(max(k - r, 0), min(2, k - 1) + 1)
    parts = np.empty((e, r), dtype=np.intp)
    for i in range(e):
        met = rng.choice(k, size=k - int(rng.choice(missing_counts)), replace=False)
        parts[i] = rng.permutation(np.concatenate([met, rng.choice(met, size=r - len(met))]))
    cells = _slot_terms(rows, parts, k, n)
    assert cells.dtype == np.int32 and cells.shape == (e, r)
    seen = set()
    for i, edge in enumerate(parts.tolist()):
        seen.add(k - len(set(edge)))
        for j in range(r):
            assert cells[i, j] == term_row(edge, j, k) * n + rows[i, j]
    assert seen == set(missing_counts)


PATTERN_CASES = [(r, k) for r in range(2, 13) for k in range(2, r + 2)
                 if k**r * r <= solver._PATTERN_CELLS]


@pytest.mark.parametrize("r, k", PATTERN_CASES)
def test_pattern_rows_follow_the_per_term_rule(r, k):
    """Every part pattern of every (r, k) within the table's bound, k = r + 1
    included: the row of each slot of its code is ``term_row``'s."""
    table = solver._pattern_rows(k, r)
    assert table.shape == (k**r, r) and not table.flags.writeable
    for parts in itertools.product(range(k), repeat=r):
        code = sum(p * k**s for s, p in enumerate(parts))
        assert table[code].tolist() == [term_row(parts, j, k) for j in range(r)]


# m with k^(r-1) * m < 2^63 at r = 6, k = 5: the largest, whose scores fit
# int64, and the next, whose do not.
INT64_M = (2**63 - 1) // 5**5
EXPECTATION_CASES = [(r, k, None) for r in (3, 4, 5, 6) for k in range(2, r + 1)] + [
    (6, 5, INT64_M), (6, 5, INT64_M + 1), (6, 6, 2**53)]


@pytest.mark.parametrize("r, k, m", EXPECTATION_CASES, ids=[
    f"{r}-{k}" if m is None else f"{r}-{k}-m{m}" for r, k, m in EXPECTATION_CASES])
def test_expectation_cut_matches_exact_reference(r, k, m):
    """Past enumeration's reach (k^n <= 5^5): every vertex's part against the
    exact expected cut, summed edge by edge.  Where m is given, one edge
    takes the multiplicity that brings the total to m, on each side of
    k^(r-1) * m < 2^63 and, at 6^5 * 2^53, far past it: there its gain
    times its multiplicity would wrap int64."""
    h = seeded_graph(1000 * r + k, r)
    if m is not None:
        mult = h.mult.copy()
        mult[0] += m - h.m
        h = Hypergraph(r, h.n, h.edges, mult)
        assert h.m == m
    assert _CutEvaluator(h, k).expectation_cut().tolist() == ref_expectation_cut_exact(h, k)


@st.composite
def sign_problems(draw):
    """(matrix, stack): an integer multigraph (multiplicities 1-3) or a
    non-integer zero-diagonal symmetric matrix on 1-40 vertices, and 1-20
    +-1 starts, repeats allowed."""
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        density = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
        a = SymmetricMatrix.from_pair_graph(random_multigraph(n, seed, density))
    else:
        a = random_symmetric(n, seed, zero_diag=True)
    start = st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)
    pool = draw(st.lists(start, min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=20))
    return a, np.array([pool[i] for i in picks])


def close(u):
    """Equality up to rounding, for values of a non-integer matrix."""
    return pytest.approx(u, rel=1e-9, abs=1e-9)


def assert_reference_pick(a, stack, found):
    """``found`` is the reference's best (x, value, flips) over the starts of
    ``stack`` by (-value, x): exactly for an integer matrix.  For a
    non-integer one the values agree up to rounding, so ``found`` may be any
    start whose value ties the best up to rounding (x and -x always tie).
    Returns the reference's per-start results."""
    results = [ref_local_search_1flip(a, x) for x in stack]
    best = min(results, key=lambda r: (-r.value, r.x))
    if np.array_equal(a.a, np.round(a.a)):
        assert found == best
    else:
        assert found.value == close(best.value)
        assert (found.x, found.flips) in {
            (r.x, r.flips) for r in results if r.value == close(best.value)
        }
    return results


@settings(max_examples=150, deadline=None)
@given(sign_problems())
def test_local_search_1flip_matches_reference(problem):
    """The stacked call returns the reference's best start (see
    ``assert_reference_pick``); a single start returns the reference's own
    result, exactly for an integer matrix and up to rounding otherwise."""
    a, stack = problem
    results = assert_reference_pick(a, stack, local_search_1flip(a, stack))
    single = [local_search_1flip(a, stack[-1]), local_search_1flip(a, tuple(stack[0].tolist()))]
    if np.array_equal(a.a, np.round(a.a)):
        assert single == [results[-1], results[0]]
        return
    for got, ref in zip(single, (results[-1], results[0])):
        assert (got.x, got.flips, got.value) == (ref.x, ref.flips, close(ref.value))


@st.composite
def sign_groups(draw):
    """1-5 problems of ``sign_problems``, each drawing its own n, some cut
    to a single start."""
    groups = []
    for _ in range(draw(st.integers(1, 5))):
        a, stack = draw(sign_problems())
        groups.append((a, stack[:1] if draw(st.booleans()) else stack))
    return groups


@settings(max_examples=150, deadline=None)
@given(sign_groups())
def test_grouped_1flip_equals_each_group_alone(groups):
    """One lockstep over zero-padded groups returns, for each group, its
    search alone, bit for bit, also for a non-integer matrix, and so the
    reference's pick over that group's starts."""
    found = local_search_1flip_groups(groups)
    assert found == [local_search_1flip(a, stack) for a, stack in groups]
    for (a, stack), res in zip(groups, found):
        assert_reference_pick(a, stack, res)


def test_local_search_1flip_rejects_bad_stacks():
    a = SymmetricMatrix.from_pair_graph(random_multigraph(4, seed=1))
    for bad in (np.empty((0, 4)), np.ones((2, 5)), np.ones((2, 3)), np.ones((1, 2, 4))):
        with pytest.raises(InputError):
            local_search_1flip(a, bad)


@st.composite
def sampled_3graphs(draw):
    """(h, plan): a 3-graph with edges on 3-12 vertices, 1-8 edge items of
    multiplicity 1-3, and 1-8 trials.  On so few edges many trials sample an
    X that collapses no edge."""
    n = draw(st.integers(3, 12))
    edge = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
    items = draw(st.lists(st.tuples(edge.map(tuple), st.integers(1, 3)), min_size=1, max_size=8))
    plan = SamplePlan(trials=draw(st.integers(1, 8)), seed=draw(st.integers(0, 2**32)))
    return Hypergraph.from_edges(3, n, items), plan


@pytest.mark.parametrize("cells", [solver._LOCKSTEP_CELLS, 0], ids=["bound", "one-trial-batches"])
@settings(max_examples=60, deadline=None)
@given(sampled_3graphs())
def test_direct_3cut_matches_trial_by_trial(cells, instance):
    """Searching the trials in lockstep batches, of any size, gives the cut
    of rounding them one after another."""
    h, plan = instance
    with mock.patch.object(solver, "_LOCKSTEP_CELLS", cells):
        found = solver._direct_3cut(h, plan)
    assert found.tolist() == ref_direct_3cut(h, plan).tolist()


@pytest.mark.parametrize("cells", [solver._LOCKSTEP_CELLS, 1 << 12, 0])
def test_direct_3cut_batches_match_on_seeded_graphs(cells):
    """Pair graphs of up to 40 vertices, 14 trials each: the default bound
    batches them all, 2^12 cells splits them into batches of a few, and a
    bound of 0 searches each alone; some trials of the sparse graph
    collapse no edge."""
    collapsed = []

    def reduce(h, x):
        red = sample_and_reduce(h, x)
        collapsed.append(len(red.weights))
        return red

    for n, p, seed in ((10, 0.03, 5), (30, 0.15, 6), (60, 0.05, 7)):
        h = gen_random_uniform(3, n, p, seed)
        plan = SamplePlan(trials=14, seed=seed)
        with mock.patch.object(solver, "_LOCKSTEP_CELLS", cells), \
                mock.patch.object(solver, "sample_and_reduce", reduce):
            found = solver._direct_3cut(h, plan)
        assert found.tolist() == ref_direct_3cut(h, plan).tolist()
    assert 0 in collapsed and max(collapsed) > 0


@settings(max_examples=60, deadline=None)
@given(raw_items(rs=(2, 3, 4, 5), mult=BIG_MULT), st.data())
def test_expectation_cut_matches_enumeration(raw, data):
    """Each vertex's part maximises the exact expected cut, and the cut is at
    least the uniformly random one's expectation, with multiplicities up to
    2^53."""
    r, n, items = raw
    assume(sum(m for _, m in items) <= 2**53)
    h = Hypergraph.from_edges(r, n, items)
    k = data.draw(st.integers(2, h.r))
    assume(k ** h.n <= 5**5)
    found = _CutEvaluator(h, k).expectation_cut().tolist()
    assert found == ref_expectation_cut(h, k)
    assert cut_size(h, found, k) >= random_cut_coefficient(h.r, k) * h.m


def test_expectation_cut_tells_heavy_weights_one_apart():
    """Vertex 2 gains 2^50 + 1 in part 1 and 2^50 in part 0: float32 sums
    would tie them and send it to part 0."""
    h = Hypergraph.from_edges(2, 3, [((0, 1), 1), ((0, 2), 2**50 + 1), ((1, 2), 2**50)])
    assert _CutEvaluator(h, 2).expectation_cut().tolist() == ref_expectation_cut(h, 2) == [0, 1, 1]


@settings(max_examples=30, deadline=None)
@given(graphs(), st.integers(2, 4))
def test_oracle_matches_reference_maximum(h, k):
    assume(k ** h.n <= 5000)
    items = as_items(h)
    best = max(ref_cut(items, a, k) for a in itertools.product(range(k), repeat=h.n))
    assert brute_force_max_kcut(h, k).cut_value == best


@settings(max_examples=80, deadline=None)
@given(st.one_of(graphs(min_n=0), graphs(min_n=0, mult=BIG_MULT)), st.data(),
       st.sampled_from([hypergraph._CELLS, 64]))
def test_oracle_matches_full_scan(h, data, cells):
    """Same value and assignment as the k^(n-1) scan, for k up to r + 2 (so k
    > n and k > r occur), in one chunk or in chunks of a few rows, with
    multiplicities 1-3 and up to 2^53."""
    k = data.draw(st.integers(2, h.r + 2))
    with mock.patch.object(hypergraph, "_CELLS", cells):
        cut = brute_force_max_kcut(h, k)
    assert (cut.cut_value, cut.assignment) == ref_max_kcut(h, k)


def test_oracle_scan_spans_many_chunks():
    # 29,525 growth strings, at most 2^19 // 165 = 3,177 of them per step
    h = gen_complete(3, 11)
    cut = brute_force_max_kcut(h, 3)
    assert (cut.cut_value, cut.assignment) == ref_max_kcut(h, 3)


def test_oracle_ties_across_chunked_mask_tables():
    """At 64 cells per step and 84 edges, each step scores one (head, tail)
    pair and each tail table is built one row at a time, so the first
    maximizer must win over the ties found in later chunks: multiplicity 1 +
    the edge's vertices among {0, 1} leaves 35 maximal partitions."""
    g = gen_complete(3, 9)
    h = Hypergraph(3, 9, g.edges, 1 + np.isin(g.edges, [0, 1]).sum(axis=1))
    with mock.patch.object(hypergraph, "_CELLS", 64), \
            mock.patch.object(oracle, "_masks", wraps=oracle._masks) as built:
        cut = brute_force_max_kcut(h, 3)
    assert (cut.cut_value, cut.assignment) == ref_max_kcut(h, 3)
    assert {len(call.args[1]) for call in built.call_args_list} == {1}
    assert built.call_count > 2 * 3 * 2  # several tail chunks for each of 3 tops


@pytest.mark.parametrize("r, n, k", [
    (2, 0, 2), (3, 1, 2), (2, 1, 3),  # n in {0, 1}: no edge
    (5, 3, 4), (4, 2, 9),  # k > n, no edge
    (2, 6, 3), (3, 7, 4), (3, 4, 6),  # k > r: nothing is cut
])
def test_oracle_small_and_edgeless_cases(r, n, k):
    h = gen_complete(r, n) if n >= r else Hypergraph(r, n, [], [])
    cut = brute_force_max_kcut(h, k)
    assert (cut.cut_value, cut.assignment) == ref_max_kcut(h, k) == (0, (0,) * n)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
@pytest.mark.parametrize("p", [0.0, 0.01, 0.5, 1.0])
def test_gen_random_uniform_matches_one_draw_per_candidate(r, p):
    for n in (0, r - 1, r, 9, 14):
        for seed in range(3):
            assert gen_random_uniform(r, n, p, seed) == ref_gen_random_uniform(r, n, p, seed)


@pytest.mark.parametrize("p", [0.01, 0.5])
def test_gen_random_uniform_draws_across_chunks(p):
    assert math.comb(100, 3) // 2 > generators._DRAW  # p = 1/2 keeps two chunks' ranks
    assert gen_random_uniform(3, 100, p, 7) == ref_gen_random_uniform(3, 100, p, 7)


@pytest.mark.parametrize("r, n, p", [(3, 30, 0.05), (2, 40, 0.5), (4, 12, 0.9)])
def test_gen_random_uniform_is_the_same_whatever_the_chunk(r, n, p):
    for seed in range(3):
        graphs = []
        for draw in (1, 3, 1 << 16):
            with mock.patch.object(generators, "_DRAW", draw):
                graphs.append(gen_random_uniform(r, n, p, seed))
        assert graphs[0] == graphs[1] == graphs[2] == ref_gen_random_uniform(r, n, p, seed)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_gen_complete_matches_combinations(r):
    for n in range(r, 13):
        assert gen_complete(r, n).edges.tolist() == [
            list(c) for c in itertools.combinations(range(n), r)
        ]


@st.composite
def packing_targets(draw):
    """(n, target_m): n from 3 to 40 and a target up to the pair-packing
    bound n(n-1)/6, half the time within 3 of it, where rejections pile up."""
    n = draw(st.integers(3, 40))
    bound = n * (n - 1) // 6
    return n, draw(st.integers(0, bound) | st.integers(max(0, bound - 3), bound))


@settings(max_examples=60, deadline=None)
@given(packing_targets(), st.integers(0, 2**32))
def test_linear_packing_matches_reference(problem, seed):
    n, target_m = problem
    h, short = gen_random_linear_3graph(n, target_m, seed)
    assert (h, short) == ref_linear_packing(n, target_m, seed)
    assert degree_profile(h).max_codegree <= 1


@pytest.mark.parametrize(
    "n, target_m, seeds",
    [
        (6, 5, range(8)),  # at most 4 triples fit: every run spends the budget
        (7, 7, range(8)),  # the Fano plane, or a budget spent short of it
        (20, 58, [43]),  # a triple is kept right after the last allowed rejection
        (21, 61, [84]),  # likewise
    ],
)
def test_linear_packing_spends_the_rejection_budget(n, target_m, seeds):
    for seed in seeds:
        assert gen_random_linear_3graph(n, target_m, seed) == ref_linear_packing(n, target_m, seed)


@pytest.mark.parametrize("n, target_m", [(5 * 10**9, 3), (2**63 - 1, 2)])
def test_linear_packing_on_huge_vertex_ids(n, target_m):
    """Pair keys stay exact past n = 3.04e9, where u * n + v leaves int64."""
    tracemalloc.start()
    try:
        h, short = gen_random_linear_3graph(n, target_m, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert (h, short) == ref_linear_packing(n, target_m, 5)
    assert h.m == target_m and not short
    assert degree_profile(h).max_codegree == 1


@st.composite
def written_graphs(draw):
    """r from 2 to 5, n from 0, multiplicities 1, small, and up to 2^53."""
    r = draw(st.integers(2, 5))
    n = draw(st.sampled_from([0, r, 9, 2**63 - 1]))
    edge = st.lists(st.integers(0, n - 1), min_size=r, max_size=r, unique=True)
    items = draw(st.lists(st.tuples(edge.map(tuple), BIG_MULT), max_size=12)) if n >= r else []
    assume(sum(m for _, m in items) <= 2**53)
    return Hypergraph.from_edges(r, n, items)


@settings(max_examples=100, deadline=None)
@given(written_graphs())
def test_writer_matches_line_by_line_reference(h):
    assert format_hypergraph(h) == ref_format(h)
    assert parse_hypergraph(format_hypergraph(h)) == h


@settings(max_examples=40, deadline=None)
@given(graphs(rs=(3, 4)))
def test_underlying_multigraph_matches_reference(h):
    for q in range(2, h.r):
        subs = [(s, mult) for v, mult in as_items(h) for s in itertools.combinations(v, q)]
        assert as_items(underlying_multigraph(h, q)) == ref_merge(subs)


@settings(max_examples=40, deadline=None)
@given(graphs(), st.data())
def test_induced_sub_matches_reference(h, data):
    keep = sorted(data.draw(subsets(h.n)))
    relabel = {v: i for i, v in enumerate(keep)}
    expected = ref_merge(
        (tuple(relabel[u] for u in v), mult) for v, mult in as_items(h) if set(v) <= set(keep)
    )
    sub, ids = induced_sub(h, keep)
    assert ids == tuple(keep) and sub.n == len(keep)
    assert as_items(sub) == expected


@settings(max_examples=40, deadline=None)
@given(graphs(rs=(3,)), st.data())
def test_sample_and_reduce_matches_reference(h, data):
    x = data.draw(subsets(h.n))
    rest = [v for v in range(h.n) if v not in x]
    relabel = {v: i for i, v in enumerate(rest)}
    expected = ref_merge(
        (tuple(relabel[u] for u in v if u not in x), mult)
        for v, mult in as_items(h) if len(set(v) & x) == 1
    )
    red = sample_and_reduce(h, x)
    assert red.rest.tolist() == rest
    assert as_items(red.pair_graph) == expected
    # the solver's matrix, straight from the unmerged pairs
    direct = SymmetricMatrix(adjacency(len(rest), red.pairs, red.weights))
    assert direct.a.tobytes() == SymmetricMatrix.from_pair_graph(red.pair_graph).a.tobytes()


@settings(max_examples=40, deadline=None)
@given(graphs(rs=(3,)), st.sampled_from([0.3, 0.7, 1.0]), st.integers(0, 2**16))
def test_colored_sampling_matches_reference(h, p, seed):
    """The colored pair graph's m, degree maxima and sampled deviation: its
    rows are the three (pair, third vertex) rotations of every edge."""
    rows = [(row, m) for (a, b, c), m in as_items(h) for row in ((a, b, c), (a, c, b), (b, c, a))]
    rows = ref_merge(rows, key=tuple)
    ends = [((w,), m) for (u, v, _), m in rows for w in (u, v)]
    colored_ends = [((w, c), m) for (u, v, c), m in rows for w in (u, v)]
    colors = sorted({c for (_, _, c), _ in rows})
    kept = {c for c, u in zip(colors, np.random.default_rng(seed).random(len(colors))) if u < p}
    dev = np.zeros((h.n, h.n))
    for (u, v, c), m in rows:
        dev[[u, v], [v, u]] += p * m - (m if c in kept else 0)
    rec = colored_sampling_experiment(h, p, reps=1, seed=seed)[0]
    assert rec.m == sum(m for _, m in rows)
    assert rec.max_degree == max((m for _, m in ref_merge(ends)), default=0)
    assert rec.color_degree_bound == max((m for _, m in ref_merge(colored_ends, key=tuple)), default=0)
    assert rec.norm_dev == pytest.approx(np.abs(np.linalg.eigvalsh(dev)).max(), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_degree_profile_matches_reference(h):
    items = as_items(h)
    deg = ref_merge(((u,), m) for v, m in items for u in v)
    codeg = ref_merge((s, m) for v, m in items for s in itertools.combinations(v, h.r - 1))
    prof = degree_profile(h)
    assert prof.max_degree == max((m for _, m in deg), default=0)
    assert prof.max_codegree == max((m for _, m in codeg), default=0)


def test_more_parts_than_a_bit_set_holds():
    # k > 62 takes the distinct-count path of cut_values
    h = Hypergraph.from_edges(64, 64, [tuple(range(64))])
    assert cut_size(h, list(range(64)), 64) == 1
    assert cut_size(h, [v % 63 for v in range(64)], 63) == 1
    assert cut_size(h, [v % 62 for v in range(64)], 63) == 0
    # one edge of multiplicity 2^53, scored in a (2, 64) batch
    h = Hypergraph.from_edges(64, 64, [(tuple(range(64)), 2**53)])
    batch = np.array([[v % 62 for v in range(64)], list(range(64))])
    assert cut_values(h, batch, 64).tolist() == [0, 2**53]
    assert cut_values(h, batch % 63, 63).tolist() == [0, 2**53]


def parse_outcome(parse, text):
    """The parsed graph, or the message of the InputError raised."""
    try:
        return parse(text)
    except InputError as exc:
        return str(exc)


# Tokens the parser must read as ``int`` does, or reject on the same line:
# signs, underscores, a value past int64, 19 digits, a non-ASCII digit, words.
TOKENS = ["+3", "1_0", "07", "-1", "9223372036854775808", "0" * 18 + "1", "\u0663", "x", "1.0"]


@st.composite
def texts(draw):
    """Instance texts, mostly well formed, with comments, blank lines, tabs,
    four line breaks ``splitlines`` splits at, odd tokens and field counts."""
    r = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(r, 6))
    edge = st.lists(st.integers(0, n - 1), min_size=r, max_size=r, unique=True)
    good = st.tuples(edge, st.lists(st.integers(1, 3), max_size=1), st.sampled_from(" \t")).map(
        lambda t: t[2].join(map(str, t[0] + t[1])))
    odd = st.lists(st.sampled_from(TOKENS) | st.integers(0, n - 1).map(str), max_size=r + 2).map(
        " ".join)
    line = st.one_of(good, good, good, odd, st.just(""), st.just("# note"))
    line = st.tuples(line, st.sampled_from(["", " # tail", "#"])).map("".join)
    lines = [f"{r} {n}", *draw(st.lists(line, max_size=12))]
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["# header next", "", "  "])))
    breaks = st.sampled_from(["\n", "\n", "\r\n", "\x0c", "\r"])
    return "".join(line + draw(breaks) for line in lines)


@settings(max_examples=150, deadline=None)
@given(texts())
def test_parser_matches_line_by_line_reference(text):
    assert parse_outcome(parse_hypergraph, text) == parse_outcome(ref_parse, text)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32))
def test_parser_scans_long_plain_files_as_the_reference(seed):
    """Thousands of edge lines in the plain form the byte scan reads: blank
    and comment lines, trailing comments, tabs and runs of spaces, "\\r\\n"
    breaks, leading zeros, multiplicities, and no break after the last line."""
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 6))
    n = int(rng.integers(r, 40))
    rows = np.argsort(rng.random((3000, n)), axis=1)[:, :r]
    fill = [" ", "\t", "  ", " \t", "", " # 0 1 2 #", "# comment", "\n"]
    lines = ["# instance", f"{r}\t{n}"]
    for row, mult in zip(rows.tolist(), rng.choice(["", "1", "3", "007"], len(rows))):
        sep = fill[rng.integers(4)]
        lines.append(sep.join(map(str, row + [mult] * (mult != ""))) + fill[rng.integers(3, 8)])
    text = "".join(line + ["\n", "\r\n"][rng.integers(2)] for line in lines).rstrip()
    assert hypergraph._scan(text) is not None
    assert parse_hypergraph(text) == ref_parse(text)


GOOD = "0 1 2\n" * 3000  # plain lines around each trigger, so the texts are long


@pytest.mark.parametrize("line", [
    *(f"{head} {token}\n" for head in ("0 1", "0 1 2") for token in TOKENS if token != "07"),
    "0 1\r2\n", "0 1\x0c2\n", "0 1\x0b2\n", "0 1 2 # \u00e9\n",
])
def test_parser_leaves_each_trigger_to_the_line_loop(line):
    """Each of these lines sends a long text to the line-by-line loop, which
    reads it, or names it in its error, as the reference does."""
    text = "3 5\n" + GOOD + line + GOOD
    assert hypergraph._scan(text) is None
    assert parse_outcome(parse_hypergraph, text) == parse_outcome(ref_parse, text)


SECOND = 4098  # the line after 4,096 good edge lines


@pytest.mark.parametrize(
    "bad, error",
    [
        ("0 1 x", f"line {SECOND}: not an integer list"),
        ("0 1", f"line {SECOND}: expected 3 vertices"),
        ("0 1 2 3 4", f"line {SECOND}: expected 3 vertices"),
    ],
)
@pytest.mark.parametrize("early", ["0 1 2", "0 1 2 99999999999999999999"])
def test_parser_names_the_first_line_of_the_second_chunk(bad, error, early):
    """The first bad line comes after 4,096 edge lines that are well formed or
    hold a value past int64 (reported only after the rest), and before more
    bad ones."""
    lines = ["3 5", early] + ["0 1 3"] * (SECOND - 3) + [bad, "0 x 9"]
    text = "\n".join(lines) + "\n"
    assert parse_outcome(ref_parse, text).startswith(error)
    assert parse_outcome(parse_hypergraph, text) == parse_outcome(ref_parse, text)


def test_parser_reports_a_value_past_int64_after_the_last_chunk():
    text = "3 5\n0 1 2 99999999999999999999\n" + "0 1 3\n" * SECOND
    expected = parse_outcome(ref_parse, text)
    assert expected.startswith("edges and multiplicities must be int64 values")
    assert parse_outcome(parse_hypergraph, text) == expected


def test_parser_reads_blocks_of_a_few_lines_as_the_reference():
    """Both reference checks above again, with blocks of a line or a few:
    block bounds fall between the header and the first edge, inside comment
    lines and just before "\\r\\n" breaks."""
    with mock.patch.object(hypergraph, "_BLOCK", 7):
        test_parser_matches_line_by_line_reference()
    with mock.patch.object(hypergraph, "_BLOCK", 64):
        test_parser_scans_long_plain_files_as_the_reference()


@settings(max_examples=50, deadline=None)
@given(texts(), st.integers(1, 12))
def test_loader_reads_the_bytes_of_a_text_as_the_reference(text, block):
    """From a block of one line (the header alone) to blocks of a few."""
    with mock.patch.object(hypergraph, "_BLOCK", block):
        assert parse_outcome(load_hypergraph, text.encode()) == parse_outcome(ref_parse, text)


LONG = "0 1 2\n" * 12_000  # 72,000 bytes: more than one block of the byte scan


@pytest.mark.parametrize("preamble", ["# note\n", "\n", "  \t\r\n"])
def test_parser_skips_a_preamble_longer_than_a_block(preamble):
    text = preamble * (hypergraph._BLOCK // len(preamble) + 1) + "3 5\n" + LONG
    assert hypergraph._scan(text) is not None
    assert parse_hypergraph(text) == parse_hypergraph(text.encode()) == ref_parse(text)


@pytest.mark.parametrize("line", ["0 1 x\n", "0 1 +3\n", "0 1 2 # \u00e9\n", "0 1\r2\n", "0 1\n"])
def test_parser_leaves_a_text_to_the_line_loop_from_a_later_block(line):
    """The first line that is not plain comes after a block of plain ones."""
    text = "3 5\n" + LONG + line + GOOD
    assert hypergraph._scan(text) is None
    expected = parse_outcome(ref_parse, text)
    assert parse_outcome(parse_hypergraph, text) == parse_outcome(load_hypergraph, text.encode())
    assert parse_outcome(parse_hypergraph, text) == expected


def test_loader_names_bytes_past_a_block_that_are_not_utf8():
    data = ("3 5\n" + LONG).encode() + b"0 1 2 # \xff\n"
    assert parse_outcome(load_hypergraph, data).startswith("input is not UTF-8 text")


def test_scan_holds_about_one_block_beside_the_arrays_it_returns():
    """The traced peak of a scan, less the rows and multiplicities it
    returns, stays under a fixed bound, and a 4x longer file leaves it as it
    is: the scan fills its arrays a block at a time."""
    rows = np.random.default_rng(3).integers(0, 1000, (85_000, 4))
    body = "".join(f"{a} {b} {c}" + (f" {m % 3}" if m % 3 else "") + "\n"
                   for a, b, c, m in rows.tolist())

    def excess(data):
        tracemalloc.start()
        try:
            _, _, rows, mult = hypergraph._scan(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - rows.nbytes - mult.nbytes

    short = excess(("3 1000\n" + body).encode())  # about 1 MB
    assert short < 4 * 2**20
    assert excess(("3 1000\n" + body * 4).encode()) <= short + 2**16


def test_loader_keeps_no_scan_buffer_with_a_graph_of_no_edges():
    """The scan sizes its arrays by the file's line breaks, and trims them to
    the edges read, so comment lines leave nothing behind in the graph."""
    data = ("3 5\n" + "# a comment line\n" * 100_000).encode()
    tracemalloc.start()
    try:
        h = load_hypergraph(data)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert h.m == 0 and kept < 2**16
