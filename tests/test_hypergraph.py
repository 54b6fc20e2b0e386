import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercut import (
    Hypergraph,
    InputError,
    KCut,
    brute_force_max_kcut,
    cut_size,
    degree_profile,
    format_hypergraph,
    gen_complete,
    gen_random_linear_3graph,
    gen_random_uniform,
    induced_sub,
    parse_hypergraph,
    random_cut_coefficient,
    stirling2,
    underlying_multigraph,
)
from conftest import random_multigraph

TRIPLE = Hypergraph.from_edges(3, 3, [(0, 1, 2)])


small_hypergraphs = st.integers(0, 2**30).map(
    lambda seed: gen_random_uniform(3, 6, 0.5, seed)
)


class TestConstruction:
    def test_merges_equal_tuples(self):
        h = Hypergraph.from_edges(3, 4, [(0, 1, 2), (2, 1, 0), ((0, 1, 3), 2)])
        assert h.edges.tolist() == [[0, 1, 2], [0, 1, 3]]
        assert h.mult.tolist() == [2, 2]
        assert h.m == 4

    def test_rejects_repeated_vertex(self):
        with pytest.raises(InputError):
            Hypergraph.from_edges(3, 4, [(0, 0, 1)])

    def test_rejects_wrong_arity(self):
        with pytest.raises(InputError):
            Hypergraph.from_edges(3, 4, [(0, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Hypergraph.from_edges(3, 3, [(0, 1, 3)])

    def test_rejects_bad_multiplicity(self):
        with pytest.raises(InputError):
            Hypergraph.from_edges(3, 3, [((0, 1, 2), 0)])


class TestCoefficient:
    def test_paper_values(self):
        assert random_cut_coefficient(3, 3) == Fraction(2, 9)
        assert random_cut_coefficient(3, 2) == Fraction(3, 4)
        assert random_cut_coefficient(2, 2) == Fraction(1, 2)

    def test_stirling(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        assert stirling2(4, 3) == 6
        assert stirling2(5, 5) == 1

    def test_range_errors(self):
        with pytest.raises(InputError):
            random_cut_coefficient(3, 4)
        with pytest.raises(InputError):
            random_cut_coefficient(3, 1)


class TestCutSize:
    def test_single_edge_all_parts(self):
        assert cut_size(TRIPLE, [0, 1, 2], 3) == 1

    def test_single_edge_uncut(self):
        assert cut_size(TRIPLE, [0, 0, 0], 3) == 0

    def test_k4_bipartition(self):
        k4 = gen_complete(2, 4)
        assert cut_size(k4, [0, 0, 1, 1], 2) == 4

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            cut_size(TRIPLE, [0, 1], 3)

    def test_part_out_of_range(self):
        with pytest.raises(InputError):
            cut_size(TRIPLE, [0, 1, 3], 3)

    def test_mixed_multiplicities(self):
        h = Hypergraph.from_edges(3, 4, [((0, 1, 2), 3), (0, 1, 3), ((0, 2, 3), 2), (1, 2, 3)])
        assert cut_size(h, [0, 1, 2, 0], 3) == 3 + 1  # (0, 1, 2) and (1, 2, 3)

    @settings(max_examples=30, deadline=None)
    @given(small_hypergraphs, st.integers(0, 2**30), st.integers(2, 3))
    def test_bounds(self, h, seed, k):
        import numpy as np

        assignment = np.random.default_rng(seed).integers(0, k, size=h.n)
        assert 0 <= cut_size(h, assignment.tolist(), k) <= h.m


class TestSurplus:
    def test_single_edge_cut(self):
        cut = KCut.from_assignment(TRIPLE, [0, 1, 2], 3)
        assert cut.surplus == Fraction(7, 9)

    def test_empty_hypergraph(self):
        empty = Hypergraph.from_edges(3, 5, [])
        cut = KCut.from_assignment(empty, [0, 1, 2, 0, 1], 3)
        assert cut.surplus == 0

    def test_k5_max_bipartition(self):
        k5 = gen_complete(2, 5)
        best = brute_force_max_kcut(k5, 2)
        assert best.cut_value == 6
        assert KCut.from_assignment(k5, best.assignment, 2).surplus == 1


class TestUnderlyingMultigraph:
    def test_single_edge(self):
        g = underlying_multigraph(TRIPLE, 2)
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert g.mult.tolist() == [1, 1, 1]

    def test_multiplicity_passthrough(self):
        h = Hypergraph.from_edges(3, 3, [((0, 1, 2), 2)])
        g = underlying_multigraph(h, 2)
        assert g.mult.tolist() == [2, 2, 2]

    def test_complete_3graph_on_4(self):
        g = underlying_multigraph(gen_complete(3, 4), 2)
        assert len(g.edges) == 6
        assert (g.mult == 2).all()

    def test_q_out_of_range(self):
        with pytest.raises(InputError):
            underlying_multigraph(TRIPLE, 3)

    @settings(max_examples=25, deadline=None)
    @given(small_hypergraphs)
    def test_edge_count_identity(self, h):
        assert underlying_multigraph(h, 2).m == 3 * h.m


class TestDegreeProfile:
    def test_single_edge(self):
        prof = degree_profile(TRIPLE)
        assert (prof.max_degree, prof.max_codegree) == (1, 1)

    def test_complete_3graph_on_5(self):
        prof = degree_profile(gen_complete(3, 5))
        assert prof.max_degree == 6
        assert prof.max_codegree == 3

    def test_linear_has_codegree_1(self):
        h, _ = gen_random_linear_3graph(9, 8, seed=4)
        if h.m:
            assert degree_profile(h).max_codegree == 1


class TestInducedSub:
    def test_keeps_full_edge(self):
        sub, ids = induced_sub(TRIPLE, {0, 1, 2})
        assert sub == TRIPLE
        assert ids == (0, 1, 2)

    def test_drops_partial_edge(self):
        sub, _ = induced_sub(TRIPLE, {0, 1})
        assert sub.m == 0

    def test_complete_stays_complete(self):
        sub, _ = induced_sub(gen_complete(3, 5), {0, 2, 3, 4})
        assert sub == gen_complete(3, 4)

    def test_out_of_range(self):
        with pytest.raises(InputError):
            induced_sub(TRIPLE, {0, 5})


class TestTextFormat:
    def test_round_trip(self):
        h = Hypergraph.from_edges(3, 5, [((0, 1, 2), 2), (1, 3, 4)])
        assert parse_hypergraph(format_hypergraph(h)) == h

    def test_comments_and_default_mult(self):
        text = "# a comment\n3 4\n0 1 2  # inline\n0 1 3 2\n"
        h = parse_hypergraph(text)
        assert h.edges.tolist() == [[0, 1, 2], [0, 1, 3]]
        assert h.mult.tolist() == [1, 2]

    def test_parse_error_names_line(self):
        with pytest.raises(InputError, match="line 3"):
            parse_hypergraph("3 4\n0 1 2\n0 1\n")

    def test_empty_input(self):
        with pytest.raises(InputError):
            parse_hypergraph("# nothing\n")

    @settings(max_examples=25, deadline=None)
    @given(small_hypergraphs)
    def test_round_trip_random(self, h):
        assert parse_hypergraph(format_hypergraph(h)) == h


class TestAveragingIdentity:
    @pytest.mark.parametrize("r,k", [(3, 2), (3, 3), (2, 2)])
    def test_mean_cut_equals_coefficient(self, r, k):
        h = gen_random_uniform(r, 5, 0.6, seed=r * 10 + k)
        total = sum(
            cut_size(h, assign, k)
            for assign in itertools.product(range(k), repeat=h.n)
        )
        assert Fraction(total, k**h.n) == random_cut_coefficient(r, k) * h.m


class TestSurplusAdditivity:
    def test_disjoint_parts_lower_bound(self):
        # surplus of the whole is at least the sum over disjoint induced parts
        for seed in range(5):
            g = random_multigraph(9, seed=seed)
            whole = brute_force_max_kcut(g, 2).surplus
            parts = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
            total = 0
            for part in parts:
                sub, _ = induced_sub(g, part)
                if sub.m:
                    total += brute_force_max_kcut(sub, 2).surplus
            assert whole >= total


class TestUnderlyingCutIdentity:
    def test_each_cut_edge_has_two_cut_subsets(self):
        # a 4-edge meeting all 3 parts has exactly two cut triples, and uncut
        # edges contribute none, so the underlying count is exactly doubled
        for seed in range(4):
            h = gen_random_uniform(4, 6, 0.4, seed=seed)
            sub = underlying_multigraph(h, 3)
            for assign in itertools.product(range(3), repeat=h.n):
                assert cut_size(sub, assign, 3) == 2 * cut_size(h, assign, 3)
