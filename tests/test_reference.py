"""Differential tests: every array layer against the pure-Python reference in
``reference.py``, on random multi-hypergraphs (r in {2, 3, 4}, n <= 8,
multiplicities 1-3)."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypercut import (
    Hypergraph,
    brute_force_max_kcut,
    colored_pair_graph,
    cut_size,
    cut_values,
    degree_profile,
    induced_sub,
    sample_and_reduce,
    underlying_multigraph,
)
from hypercut.solver import _CutEvaluator
from reference import as_items, ref_cut, ref_merge


@st.composite
def raw_items(draw, rs=(2, 3, 4)):
    """(r, n, items): edge items as drawn, unsorted and possibly repeated."""
    r = draw(st.sampled_from(rs))
    n = draw(st.integers(r, 8))
    edge = st.lists(st.integers(0, n - 1), min_size=r, max_size=r, unique=True)
    items = draw(st.lists(st.tuples(edge.map(tuple), st.integers(1, 3)), max_size=12))
    return r, n, items


def graphs(rs=(2, 3, 4)):
    return raw_items(rs).map(lambda t: Hypergraph.from_edges(t[0], t[1], t[2]))


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
    assert h.edges.dtype == np.intp and h.mult.dtype == np.int64
    assert h.edges.shape == (len(canonical), r)


@settings(max_examples=20, deadline=None)
@given(graphs())
def test_arrays_are_read_only(h):
    assert not h.edges.flags.writeable and not h.mult.flags.writeable
    with pytest.raises(ValueError):
        h.mult[...] = 1


@settings(max_examples=60, deadline=None)
@given(graphs(), st.data())
def test_cut_evaluators_match_reference(h, data):
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


@settings(max_examples=30, deadline=None)
@given(graphs(), st.integers(2, 4))
def test_oracle_matches_reference_maximum(h, k):
    assume(k ** h.n <= 5000)
    items = as_items(h)
    best = max(ref_cut(items, a, k) for a in itertools.product(range(k), repeat=h.n))
    assert brute_force_max_kcut(h, k).cut_value == best


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
    assert red.rest == tuple(rest)
    assert as_items(red.pair_graph) == expected


@settings(max_examples=40, deadline=None)
@given(graphs(rs=(3,)))
def test_colored_pair_graph_matches_reference(h):
    g = colored_pair_graph(h)
    rows = [(row, m) for (a, b, c), m in as_items(h) for row in ((a, b, c), (a, c, b), (b, c, a))]
    assert as_items(g) == ref_merge(rows, key=tuple)
    ends = [((w,), m) for (u, v, _), m in as_items(g) for w in (u, v)]
    colored_ends = [((w, c), m) for (u, v, c), m in as_items(g) for w in (u, v)]
    assert g.max_degree() == max((m for _, m in ref_merge(ends)), default=0)
    assert g.max_color_degree() == max((m for _, m in ref_merge(colored_ends, key=tuple)), default=0)


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
