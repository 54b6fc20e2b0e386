import itertools
from fractions import Fraction

import numpy as np
import pytest

from hypercut import (
    Hypergraph,
    InputError,
    KCut,
    SamplePlan,
    brute_force_max_kcut,
    cut_size,
    gen_complete,
    gen_random_3graph,
    gen_random_linear_3graph,
    gen_random_uniform,
    kway_local_search,
    preprocess_heavy,
    random_cut_coefficient,
    reduce_cut_up,
    sample_and_reduce,
    solve_3cut,
    solve_3cut_auto,
    solve_kcut,
)

TRIPLE = Hypergraph.from_edges(3, 3, [(0, 1, 2)])


class TestSampleAndReduce:
    def test_single_edge_one_sampled(self):
        red = sample_and_reduce(TRIPLE, {2})
        assert red.rest == (0, 1)
        assert red.pair_graph.edges.tolist() == [[0, 1]]
        assert red.pair_graph.mult.tolist() == [1]

    def test_two_sampled_vertices_drop_edge(self):
        red = sample_and_reduce(TRIPLE, {1, 2})
        assert red.pair_graph.m == 0

    def test_collapsing_onto_same_pair(self):
        h = Hypergraph.from_edges(3, 4, [(0, 1, 2), (0, 1, 3)])
        red = sample_and_reduce(h, {2, 3})
        assert red.pair_graph.edges.tolist() == [[0, 1]]
        assert red.pair_graph.mult.tolist() == [2]

    def test_needs_r3(self):
        with pytest.raises(InputError):
            sample_and_reduce(gen_complete(2, 3), {0})

    def test_out_of_range(self):
        with pytest.raises(InputError):
            sample_and_reduce(TRIPLE, {9})

    def test_reduction_identity_exhaustive(self):
        # e_H(X, Y, Z) = e_{G*}(Y, Z) for every X and every bipartition
        for seed in range(4):
            h = gen_random_3graph(6, 0.5, seed)
            n = h.n
            for x_mask in range(2**n):
                x = {v for v in range(n) if x_mask >> v & 1}
                red = sample_and_reduce(h, x)
                rest = red.rest
                for y_mask in range(2 ** len(rest)):
                    assign = [0] * n
                    signs = [0] * len(rest)
                    for i, v in enumerate(rest):
                        part = 1 if y_mask >> i & 1 else 2
                        assign[v] = part
                        signs[i] = part - 1
                    lhs = cut_size(h, assign, 3)
                    rhs = cut_size(red.pair_graph, signs, 2) if rest else 0
                    assert lhs == rhs


class TestSolve3Cut:
    def test_single_edge(self):
        cut = solve_3cut(TRIPLE, SamplePlan(trials=10, seed=0))
        assert cut.cut_value == 1
        assert cut.surplus == Fraction(7, 9)

    def test_complete_3graph_on_4(self):
        h = gen_complete(3, 4)
        cut = solve_3cut(h, SamplePlan(trials=10, seed=1))
        # [DERIVED] any 3-partition of 4 vertices has shape 2+1+1, so only
        # the two triples holding both singletons meet all three parts.
        assert cut.cut_value == brute_force_max_kcut(h, 3).cut_value == 2

    def test_sunflower_fully_cut(self):
        # five petals through vertex 0; center alone, petals split
        edges = [(0, 2 * i + 1, 2 * i + 2) for i in range(5)]
        h = Hypergraph.from_edges(3, 11, edges)
        cut = solve_3cut(h, SamplePlan(trials=30, seed=2))
        assert cut.cut_value == 5

    def test_empty_hypergraph(self):
        h = Hypergraph.from_edges(3, 4, [])
        assert solve_3cut(h, SamplePlan(trials=3, seed=0)).cut_value == 0

    def test_needs_r3(self):
        with pytest.raises(InputError):
            solve_3cut(gen_complete(2, 4), SamplePlan())

    def test_deterministic(self):
        h = gen_random_3graph(10, 0.3, 5)
        a = solve_3cut(h, SamplePlan(trials=8, seed=11))
        b = solve_3cut(h, SamplePlan(trials=8, seed=11))
        assert a == b

    def test_surplus_nonnegative_on_random_suite(self):
        for seed in range(10):
            h = gen_random_3graph(9, 0.35, seed + 40)
            if h.m == 0:
                continue
            cut = solve_3cut(h, SamplePlan(trials=8, seed=seed))
            assert cut.surplus >= 0


class TestPreprocessHeavy:
    def test_linear_has_no_heavy_pairs(self):
        h, _ = gen_random_linear_3graph(10, 10, seed=3)
        w, report = preprocess_heavy(h, d=2, delta=10**6)
        assert report["matching_vertices"] == 0
        assert w == tuple(range(10))

    def test_heavy_pair_removed(self):
        h = Hypergraph.from_edges(3, 5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
        w, report = preprocess_heavy(h, d=3, delta=10**6)
        assert 0 not in w and 1 not in w
        assert report["matching_vertices"] == 2

    def test_low_degree_keeps_everyone(self):
        h = gen_complete(3, 5)
        _, report = preprocess_heavy(h, d=10**6, delta=10**6)
        assert report["high_degree_vertices"] == 0

    def test_default_thresholds(self):
        h = gen_complete(3, 6)  # m = 20
        _, report = preprocess_heavy(h)
        assert report["d"] == 2  # ceil(20^0.2)
        assert report["delta"] == 7  # ceil(20^0.6)


class TestSolve3CutAuto:
    def test_linear_reduces_to_direct(self):
        h, _ = gen_random_linear_3graph(12, 12, seed=9)
        plan = SamplePlan(trials=6, seed=4)
        assert solve_3cut_auto(h, plan) == solve_3cut(h, plan)

    def test_complete_7_matches_oracle_floor(self):
        h = gen_complete(3, 7)
        cut = solve_3cut_auto(h, SamplePlan(trials=10, seed=3))
        opt = brute_force_max_kcut(h, 3).cut_value
        assert cut.cut_value <= opt
        assert cut.cut_value >= Fraction(2, 9) * h.m
        assert cut.cut_value == opt  # tiny instance; local search reaches it

    def test_empty(self):
        h = Hypergraph.from_edges(3, 3, [])
        assert solve_3cut_auto(h, SamplePlan(trials=2, seed=0)).cut_value == 0

    def test_monotone_over_direct(self):
        for seed in range(5):
            h = gen_random_3graph(10, 0.4, seed + 100)
            plan = SamplePlan(trials=6, seed=seed)
            assert (
                solve_3cut_auto(h, plan).cut_value
                >= solve_3cut(h, plan).cut_value
            )


class TestReduceCutUp:
    def test_single_edge_lift(self):
        cut2 = KCut.from_assignment(TRIPLE, [0, 0, 1], 2)
        lifted = reduce_cut_up(TRIPLE, cut2, trials=50, seed=0)
        assert lifted.k == 3
        assert lifted.cut_value == 1

    def test_k_mismatch(self):
        cut3 = KCut.from_assignment(TRIPLE, [0, 1, 2], 3)
        with pytest.raises(InputError):
            reduce_cut_up(TRIPLE, cut3, trials=1, seed=0)

    def test_complete_4graph_reaches_oracle(self):
        h = gen_complete(4, 5)
        best3 = brute_force_max_kcut(h, 3)
        lifted = reduce_cut_up(h, best3, trials=200, seed=1)
        assert lifted.cut_value == brute_force_max_kcut(h, 4).cut_value

    def test_expected_retention_statistics(self):
        # each cut edge stays cut with probability 2(1-1/r)^(r-1)/r exactly
        h = gen_complete(4, 6)
        base = brute_force_max_kcut(h, 3)
        r = 4
        c_r = 2.0 * (1.0 - 1.0 / r) ** (r - 1) / r
        vals = [
            reduce_cut_up(h, base, trials=1, seed=s).cut_value for s in range(200)
        ]
        mean = np.mean(vals)
        stderr = np.std(vals, ddof=1) / np.sqrt(len(vals))
        assert mean >= c_r * base.cut_value - 3.0 * stderr


class TestKWayLocalSearch:
    def test_improves_to_local_optimum(self):
        h = gen_complete(3, 6)
        assign = kway_local_search(h, [0] * 6, 3)
        value = cut_size(h, assign, 3)
        # no single move may improve
        for v in range(6):
            for b in range(3):
                trial = list(assign)
                trial[v] = b
                assert cut_size(h, trial, 3) <= value


class TestSolveKCut:
    def test_r3_k3_is_auto(self):
        h = gen_random_3graph(9, 0.4, 17)
        plan = SamplePlan(trials=6, seed=2)
        assert solve_kcut(h, 3, plan) == solve_3cut_auto(h, plan)

    def test_r3_k2_bipartition_route(self):
        h = gen_random_3graph(9, 0.4, 23)
        cut = solve_kcut(h, 2, SamplePlan(trials=6, seed=2))
        assert cut.k == 2
        assert cut.surplus >= 0
        assert cut.cut_value == brute_force_max_kcut(h, 2).cut_value

    def test_r4_k3_complete_on_6(self):
        h = gen_complete(4, 6)
        cut = solve_kcut(h, 3, SamplePlan(trials=10, seed=5))
        floor = random_cut_coefficient(4, 3) * h.m
        assert cut.cut_value >= floor
        assert cut.cut_value <= brute_force_max_kcut(h, 3).cut_value

    def test_r4_k4_single_edge(self):
        h = Hypergraph.from_edges(4, 4, [(0, 1, 2, 3)])
        cut = solve_kcut(h, 4, SamplePlan(trials=20, seed=0))
        assert cut.cut_value == 1

    def test_out_of_range_k_flags_baseline(self):
        h = gen_random_uniform(5, 8, 0.4, seed=1)
        cut = solve_kcut(h, 2, SamplePlan(trials=5, seed=0))
        assert any("baseline" in note for note in cut.notes)

    def test_rejects_small_r(self):
        with pytest.raises(InputError):
            solve_kcut(gen_complete(2, 4), 3, SamplePlan())
