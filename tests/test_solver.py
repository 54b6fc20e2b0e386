import itertools
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercut import (
    Hypergraph,
    InputError,
    KCut,
    SamplePlan,
    SymmetricMatrix,
    best_bipartition,
    brute_force_max_kcut,
    cut_size,
    gen_complete,
    gen_random_3graph,
    gen_random_linear_3graph,
    gen_random_uniform,
    induced_sub,
    preprocess_heavy,
    random_cut_coefficient,
    reduce_cut_up,
    sample_and_reduce,
    solve_3cut,
    solve_kcut,
    underlying_multigraph,
)
from hypercut import solver
from hypercut.solver import _CutEvaluator, _direct_3cut, child_seeds
from reference import affine_lines

TRIPLE = Hypergraph.from_edges(3, 3, [(0, 1, 2)])


class TestSampleAndReduce:
    def test_single_edge_one_sampled(self):
        red = sample_and_reduce(TRIPLE, {2})
        assert red.rest.tolist() == [0, 1]
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
                    rhs = cut_size(red.pair_graph, signs, 2) if len(rest) else 0
                    assert lhs == rhs


def _solved(h, plan):
    return KCut.from_assignment(h, solve_3cut(h, plan), 3)


class TestSolve3Cut:
    def test_single_edge(self):
        cut = _solved(TRIPLE, SamplePlan(trials=10, seed=0))
        assert cut.cut_value == 1
        assert cut.surplus == Fraction(7, 9)

    def test_complete_3graph_on_4(self):
        h = gen_complete(3, 4)
        cut = _solved(h, SamplePlan(trials=10, seed=1))
        # [DERIVED] any 3-partition of 4 vertices has shape 2+1+1, so only
        # the two triples holding both singletons meet all three parts.
        assert cut.cut_value == brute_force_max_kcut(h, 3).cut_value == 2

    def test_sunflower_fully_cut(self):
        # five petals through vertex 0; center alone, petals split
        edges = [(0, 2 * i + 1, 2 * i + 2) for i in range(5)]
        h = Hypergraph.from_edges(3, 11, edges)
        cut = _solved(h, SamplePlan(trials=30, seed=2))
        assert cut.cut_value == 5

    def test_returns_an_intp_assignment(self):
        h = gen_random_3graph(9, 0.4, 17)
        assign = solve_3cut(h, SamplePlan(trials=4, seed=1))
        assert assign.dtype == np.intp and assign.shape == (h.n,)

    def test_empty_hypergraph(self):
        h = Hypergraph.from_edges(3, 4, [])
        assert _solved(h, SamplePlan(trials=3, seed=0)).cut_value == 0

    def test_needs_r3(self):
        with pytest.raises(InputError):
            solve_3cut(gen_complete(2, 4), SamplePlan())

    def test_deterministic(self):
        h = gen_random_3graph(10, 0.3, 5)
        a = solve_3cut(h, SamplePlan(trials=8, seed=11))
        b = solve_3cut(h, SamplePlan(trials=8, seed=11))
        assert np.array_equal(a, b)

    def test_surplus_nonnegative_on_random_suite(self):
        for seed in range(10):
            h = gen_random_3graph(9, 0.35, seed + 40)
            if h.m == 0:
                continue
            cut = _solved(h, SamplePlan(trials=8, seed=seed))
            assert cut.surplus >= 0


def _padded(rows, m):
    """The 3-graph of ``rows`` plus disjoint triples on fresh vertices, m edges
    in all, so that m alone sets preprocess_heavy's thresholds."""
    n = 1 + max(max(row) for row in rows)
    pad = [tuple(range(n + 3 * i, n + 3 * i + 3)) for i in range(m - len(rows))]
    return Hypergraph.from_edges(3, n + 3 * len(pad), [*rows, *pad])


class TestPreprocessHeavy:
    def test_linear_has_no_heavy_pairs(self):
        for seed in range(5):
            h, _ = gen_random_linear_3graph(30, 20, seed=seed)
            _, _, report = preprocess_heavy(h)  # every pair has weight 1 < d = 2
            assert report["matching_vertices"] == 0

    def test_heavy_pair_removed(self):
        h = Hypergraph.from_edges(3, 5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
        w, _, report = preprocess_heavy(h)  # m = 3: d = 2, delta = 2
        assert w.tolist() == [2, 3, 4]
        assert report["matching_vertices"] == 2

    def test_low_degree_keeps_everyone(self):
        h = Hypergraph.from_edges(3, 9, [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
        w, _, report = preprocess_heavy(h)  # pair degree 2 <= delta = 2
        assert report["high_degree_vertices"] == report["matching_vertices"] == 0
        assert w.tolist() == list(range(9))

    @pytest.mark.parametrize("mult, stripped", [(3, True), (2, False)])
    def test_pair_weight_at_d_is_heavy(self, mult, stripped):
        # m = 33: d = ceil(33^0.2) = 3, and delta = 9 keeps every vertex
        h = _padded([(0, 1, 2 + i) for i in range(mult)], 33)
        w, _, report = preprocess_heavy(h)
        assert (report["d"], report["delta"], report["high_degree_vertices"]) == (3, 9, 0)
        assert w.tolist() == list(range(2 if stripped else 0, h.n))

    @pytest.mark.parametrize("m, stripped", [(7, False), (5, True)])
    def test_pair_degree_past_delta_is_high(self, m, stripped):
        # vertex 0 is in two edges: pair degree 4, against delta = ceil(m^0.6),
        # 4 at m = 7 and 3 at m = 5; every pair has weight 1 < d = 2
        h = _padded([(0, 1, 2), (0, 3, 4)], m)
        w, _, report = preprocess_heavy(h)
        assert report["delta"] == (3 if stripped else 4)
        assert report["matching_vertices"] == 0
        assert w.tolist() == list(range(1 if stripped else 0, h.n))

    def test_default_thresholds(self):
        h = gen_complete(3, 6)  # m = 20
        _, _, report = preprocess_heavy(h)
        assert report["d"] == 2  # ceil(20^0.2)
        assert report["delta"] == 7  # ceil(20^0.6)

    @pytest.mark.parametrize("mult, stripped", [(5, True), (4, False)])
    def test_pair_weight_at_d_is_heavy_at_a_fifth_power(self, mult, stripped):
        # m = 3125 = 5^5: d = 5 exactly, though 3125 ** 0.2 rounds up past 5,
        # and delta = 125 = 5^3 keeps every vertex
        h = _padded([(0, 1, 2 + i) for i in range(mult)], 3125)
        w, _, report = preprocess_heavy(h)
        assert (report["d"], report["delta"], report["high_degree_vertices"]) == (5, 125, 0)
        assert w.tolist() == list(range(2 if stripped else 0, h.n))


class TestSolve3CutAuto:
    """solve_3cut's second solve, on the heavy-pair-stripped core, against
    the direct search alone."""

    def test_linear_reduces_to_direct(self):
        h, _ = gen_random_linear_3graph(12, 12, seed=9)
        plan = SamplePlan(trials=6, seed=4)
        assert np.array_equal(solve_3cut(h, plan), _direct_3cut(h, plan))

    def test_complete_7_matches_oracle_floor(self):
        h = gen_complete(3, 7)
        cut = _solved(h, SamplePlan(trials=10, seed=3))
        opt = brute_force_max_kcut(h, 3).cut_value
        assert cut.cut_value <= opt
        assert cut.cut_value >= Fraction(2, 9) * h.m
        assert cut.cut_value == opt  # tiny instance; local search reaches it

    def test_empty(self):
        h = Hypergraph.from_edges(3, 3, [])
        assert _solved(h, SamplePlan(trials=2, seed=0)).cut_value == 0

    def test_monotone_over_direct(self):
        for seed in range(5):
            h = gen_random_3graph(10, 0.4, seed + 100)
            plan = SamplePlan(trials=6, seed=seed)
            assert cut_size(h, solve_3cut(h, plan), 3) >= cut_size(h, _direct_3cut(h, plan), 3)

    def test_induces_the_core_once(self):
        # a heavy pair {0, 1} to strip, so the core is solved as well
        h = _padded([(0, 1, v) for v in range(2, 6)], 12)
        with mock.patch.object(solver, "induced_sub", wraps=induced_sub) as induced:
            solve_3cut(h, SamplePlan(trials=2, seed=0))
        assert induced.call_count == 1

    def test_stripped_vertices_keep_the_direct_parts(self):
        for seed in range(5):
            # a sparse linear 3-graph plus a heavy pair {0, 1}: only 0 and 1
            # and high-degree vertices are stripped, and the core keeps edges
            lin, _ = gen_random_linear_3graph(30, 16, seed=seed)
            rows = [*map(tuple, lin.edges.tolist()), *((0, 1, v) for v in range(2, 6))]
            h = Hypergraph.from_edges(3, 30, rows)
            plan = SamplePlan(trials=6, seed=seed)
            w, core, _ = preprocess_heavy(h)
            assert (core, tuple(w.tolist())) == induced_sub(h, w)  # the core and its vertex ids
            assert len(w) < h.n and core.m > 0
            direct = _direct_3cut(h, plan)
            part = _direct_3cut(core, SamplePlan(trials=6, seed=child_seeds([seed, 1], 1)[0]))
            lifted = direct.copy()
            lifted[w] = part
            ev = _CutEvaluator(h, 3)
            best = ev.best([direct, ev.local_search(lifted)])
            assert np.array_equal(solve_3cut(h, plan), best)


class TestReduceCutUp:
    def test_single_edge_lift(self):
        lifted = reduce_cut_up(TRIPLE, [0, 0, 1], SamplePlan(50, 0))
        assert lifted.dtype == np.intp and lifted.shape == (3,)
        assert KCut.from_assignment(TRIPLE, lifted, 3).cut_value == 1

    @pytest.mark.parametrize(
        "assign, trials",
        [([0, 1], 1), ([0, 1, 0, 1], 1), ([0, 1, 2], 1), ([0, -1, 1], 1), ([0, 0, 1], 0)],
        ids=["short", "long", "new-part-id", "negative-part-id", "no-trials"],
    )
    def test_refuses_bad_input(self, assign, trials):
        with pytest.raises(InputError):
            reduce_cut_up(TRIPLE, assign, SamplePlan(trials, 0))

    def test_complete_4graph_reaches_oracle(self):
        h = gen_complete(4, 5)
        best3 = brute_force_max_kcut(h, 3)
        lifted = reduce_cut_up(h, best3.assignment, SamplePlan(200, 1))
        assert cut_size(h, lifted, 4) == brute_force_max_kcut(h, 4).cut_value

    def test_expected_retention_statistics(self):
        # each cut edge stays cut with probability 2(1-1/r)^(r-1)/r exactly
        h = gen_complete(4, 6)
        base = brute_force_max_kcut(h, 3)
        r = 4
        c_r = 2.0 * (1.0 - 1.0 / r) ** (r - 1) / r
        vals = [
            cut_size(h, reduce_cut_up(h, base.assignment, SamplePlan(1, s)), 4)
            for s in range(200)
        ]
        mean = np.mean(vals)
        stderr = np.std(vals, ddof=1) / np.sqrt(len(vals))
        assert mean >= c_r * base.cut_value - 3.0 * stderr


class TestKWayLocalSearch:
    def test_improves_to_local_optimum(self):
        h = gen_complete(3, 6)
        assign = _CutEvaluator(h, 3).local_search([0] * 6)
        value = cut_size(h, assign, 3)
        # no single move may improve
        for v in range(6):
            for b in range(3):
                trial = list(assign)
                trial[v] = b
                assert cut_size(h, trial, 3) <= value


class TestSolveKCut:
    def test_r3_k3_is_solve_3cut(self):
        # a binomial 3-graph on 9 vertices, frozen as data so that the test
        # keeps its instance whatever the generator's stream
        h = Hypergraph.from_edges(3, 9, [
            (0, 1, 3), (0, 1, 5), (0, 1, 6), (0, 1, 7), (0, 2, 5), (0, 2, 6),
            (0, 2, 8), (0, 3, 6), (0, 4, 5), (0, 4, 6), (0, 4, 7), (0, 7, 8),
            (1, 2, 3), (1, 2, 5), (1, 2, 8), (1, 3, 7), (1, 4, 8), (1, 5, 7),
            (1, 5, 8), (1, 6, 7), (1, 6, 8), (2, 3, 8), (2, 4, 7), (2, 4, 8),
            (2, 5, 6), (2, 5, 7), (2, 5, 8), (2, 6, 7), (2, 6, 8), (3, 5, 6),
            (3, 5, 7), (4, 5, 8), (4, 7, 8), (5, 6, 7), (5, 6, 8), (5, 7, 8),
        ])
        plan = SamplePlan(trials=6, seed=2)
        assert solve_kcut(h, 3, plan) == _solved(h, plan)

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

    @pytest.mark.parametrize("k", [12, 13])
    def test_chain_down_from_a_13_graph(self, k):
        # the graph of CI's 13-graph step: the chain runs from r = 13 down to
        # 3, and every k-way search is past the pattern table's bound
        rng = np.random.default_rng(1)
        rows = [rng.choice(24, 13, replace=False) for _ in range(40)]
        h = Hypergraph(13, 24, rows, np.ones(40, dtype=np.int64))
        cut = solve_kcut(h, k, SamplePlan(trials=2, seed=0))
        assert cut.surplus >= 0
        assert _CutEvaluator(h, k).local_search(cut.assignment).tolist() == list(cut.assignment)

    def test_out_of_range_k_flags_baseline(self):
        h = gen_random_uniform(5, 8, 0.4, seed=1)
        cut = solve_kcut(h, 2, SamplePlan(trials=5, seed=0))
        assert any("baseline" in note for note in cut.notes)

    @pytest.mark.parametrize("r, n, p, k", [(3, 9, 0.3, 4), (4, 8, 0.2, 5), (5, 7, 0.3, 8)])
    def test_k_above_r_is_the_oracle_cut(self, r, n, p, k):
        # no edge can meet k > r parts: every cut is 0, and the oracle's first
        # maximiser is the all-zero assignment
        h = gen_random_uniform(r, n, p, seed=3)
        assert h.m > 0
        cut = solve_kcut(h, k, SamplePlan(trials=4, seed=0))
        assert cut.assignment == brute_force_max_kcut(h, k).assignment == (0,) * n
        assert any("baseline" in note for note in cut.notes)

    def test_baseline_only_all_in_one_part_regression(self):
        # the best random draw put every vertex in one part, where no single
        # move can cut an edge: cut 0, surplus -1100/81, before the
        # conditional-expectation cut was offered; the binomial 5-graph on 8
        # vertices is frozen as data, so that the seeded draw stays the same
        h = Hypergraph.from_edges(5, 8, [
            (0, 1, 2, 3, 7), (0, 1, 2, 4, 5), (0, 1, 2, 5, 6), (0, 1, 2, 5, 7),
            (0, 1, 3, 4, 7), (0, 1, 3, 5, 6), (0, 1, 4, 5, 7), (0, 1, 4, 6, 7),
            (0, 2, 3, 5, 6), (0, 2, 3, 5, 7), (0, 2, 4, 5, 7), (0, 2, 4, 6, 7),
            (0, 3, 4, 6, 7), (0, 3, 5, 6, 7), (1, 2, 3, 4, 5), (1, 2, 3, 5, 6),
            (1, 2, 3, 6, 7), (1, 3, 4, 5, 6), (1, 3, 5, 6, 7), (2, 3, 4, 5, 6),
            (2, 3, 5, 6, 7), (3, 4, 5, 6, 7),
        ])
        cut = solve_kcut(h, 3, SamplePlan(trials=1, seed=271))
        assert cut.surplus >= 0
        assert cut.cut_value == brute_force_max_kcut(h, 3).cut_value == 22

    def test_rejects_small_r(self):
        with pytest.raises(InputError):
            solve_kcut(gen_complete(2, 4), 3, SamplePlan())

    def test_a_numpy_k_solves_as_the_int(self):
        # k^(r-1) * m = 10^19 * 40 passes int64: a numpy k once wrapped the
        # exact-table test and S(r, k), for cut 36 and surplus 20.41
        rng = np.random.default_rng(1)
        h = Hypergraph(20, 30, [rng.choice(30, 20, replace=False) for _ in range(40)], [1] * 40)
        cut = solve_kcut(h, np.int64(10), SamplePlan(2, 0))
        assert cut == solve_kcut(h, 10, SamplePlan(2, 0))
        assert (type(cut.k), cut.cut_value, round(float(cut.surplus), 2)) == (int, 37, 28.41)

    @pytest.mark.parametrize("trials, seed", [(0, 0), (1, -1), (2.5, 0), (1, 1.5)])
    def test_sample_plan_rejects_bad_values(self, trials, seed):
        with pytest.raises(InputError):
            SamplePlan(trials=trials, seed=seed)

    def test_child_seeds_keep_large_seeds_apart(self):
        # seeds below 2^63 keep their streams; larger ones no longer fold
        def subseed(seed, tag):
            return child_seeds([seed, tag], 1)[0]

        assert subseed(0, 1) == 5836529245451711556
        assert subseed(2**63 - 1, 1) == 1313972901627904588
        assert subseed(12345, 13) == 6493456769220162241
        assert len({subseed(s, 1) for s in (0, 2**63, 2**64, 2**100)}) == 4
        assert all(0 <= subseed(2**100 + t, t) < 2**63 for t in (1, 2, 13))

    @pytest.mark.parametrize("seed", [0, 7, 2**63 - 1, 2**100])
    def test_child_seeds_match_the_seed_sequence_words(self, seed):
        """The 63-bit words of SeedSequence(seed) and of each child its spawn
        hands out, the leading word of any longer state, whatever the count."""
        def words(ss, count):
            return [int(x & (2**63 - 1)) for x in ss.generate_state(count, dtype=np.uint64)]

        ss = np.random.SeedSequence(seed)
        assert child_seeds(seed, 2) == words(ss, 2) == child_seeds([seed], 3)[:2]
        for i, child in enumerate(ss.spawn(3)):
            assert child_seeds(seed, 2, spawn_key=(i,)) == words(child, 2)
        assert child_seeds([seed, 5], 1) == words(np.random.SeedSequence([seed, 5]), 2)[:1]


@st.composite
def kcut_instances(draw, min_r, k_below_r):
    """(h, k): an r-graph, min_r <= r <= 6, on at most 9 vertices with
    multiplicities 1-3, and a k in [2, r - k_below_r]."""
    r = draw(st.integers(min_r, 6))
    n = draw(st.integers(r, 9))
    edge = st.lists(st.integers(0, n - 1), min_size=r, max_size=r, unique=True)
    items = draw(st.lists(st.tuples(edge.map(tuple), st.integers(1, 3)), max_size=14))
    return Hypergraph.from_edges(r, n, items), draw(st.integers(2, r - k_below_r))


@settings(max_examples=150, deadline=None)
@given(kcut_instances(4, 2), st.integers(0, 2**32))
def test_baseline_only_surplus_nonnegative(instance, seed):
    h, k = instance
    cut = solve_kcut(h, k, SamplePlan(trials=1, seed=seed))
    assert cut.surplus >= 0
    assert h.m == 0 or any("baseline" in note for note in cut.notes)


@st.composite
def pair_rounded(draw):
    """(h, a): a graph or 3-graph on at most 12 vertices with multiplicities
    1-3, and the rounded 2-cut of its pair graph as parts {0, 1}."""
    r = draw(st.integers(2, 3))
    n = draw(st.integers(r, 12))
    edge = st.lists(st.integers(0, n - 1), min_size=r, max_size=r, unique=True)
    items = draw(st.lists(st.tuples(edge.map(tuple), st.integers(1, 3))))
    h = Hypergraph.from_edges(r, n, items)
    pairs = h if r == 2 else underlying_multigraph(h, 2)
    seed = draw(st.integers(0, 2**32))
    bp = best_bipartition(SymmetricMatrix.from_pair_graph(pairs), seed=seed)
    return h, np.where(np.asarray(bp.x) > 0, 0, 1)


@settings(max_examples=150, deadline=None)
@given(pair_rounded())
def test_rounded_2cut_is_a_kway_local_optimum(instance):
    """The pair-graph cut is r - 1 times the 2-cut of h, so a 1-flip optimum
    leaves k-way search nothing to move."""
    h, a = instance
    assert np.array_equal(_CutEvaluator(h, 2).local_search(a), a)


@settings(max_examples=100, deadline=None)
@given(pair_rounded())
def test_k2_rounds_the_merged_pair_graph_matrix(instance):
    """solve_kcut's k = 2 path densifies each pair of each edge unmerged, with
    no underlying multigraph built, into the very matrix of the merged pair
    graph: its integer sums are exact."""
    h, _ = instance
    pairs = h if h.r == 2 else underlying_multigraph(h, 2)
    expected = SymmetricMatrix.from_pair_graph(pairs).a
    with mock.patch.object(solver, "best_bipartition", wraps=best_bipartition) as rounded, \
            mock.patch.object(solver, "underlying_multigraph") as built:
        solve_kcut(h, 2, SamplePlan(trials=1, seed=0))
    built.assert_not_called()
    if h.m:
        assert rounded.call_args.args[0].a.tobytes() == expected.tobytes()


@settings(max_examples=150, deadline=None)
@given(kcut_instances(2, 0), st.integers(0, 2**32))
def test_surplus_nonnegative_for_every_k_up_to_r(instance, seed):
    """Every path offers the polished conditional-expectation cut."""
    h, k = instance
    cut = solve_kcut(h, k, SamplePlan(trials=1, seed=seed))
    ev = _CutEvaluator(h, k)
    assert cut.cut_value >= ev.value(ev.local_search(ev.expectation_cut()))
    assert cut.surplus >= 0


class TestAffineGeometry:
    """AG(5, 3), 243 points and 9,801 lines, 22 times past the oracle's n:
    colouring by a linear form cuts every line whose direction the form does
    not vanish on, 3^8 of them.  That is a lower bound on the optimum, not
    a claim that it is the optimum."""

    H = affine_lines(5)

    def test_reference_is_a_steiner_triple_system_with_the_planted_cut(self):
        pairs = underlying_multigraph(self.H, 2)
        assert (self.H.n, self.H.m) == (243, 9_801)
        assert len(pairs.mult) == pairs.m == 243 * 242 // 2  # each pair on one line
        assert cut_size(self.H, np.arange(243) % 3, 3) == 3**8  # the first coordinate

    @pytest.mark.parametrize("seed", range(5))
    def test_solve_reaches_the_planted_cut(self, seed):
        assert solve_kcut(self.H, 3, SamplePlan(trials=2, seed=seed)).cut_value >= 3**8
