"""Tests for the exhaustive oracle and the seeded instance generators, and
for the reference Edwards bound that the complete graphs are checked
against."""

from fractions import Fraction

import math
import time
from unittest import mock

import numpy as np
import pytest

from hypercut import (
    CapacityError,
    Hypergraph,
    InputError,
    brute_force_max_kcut,
    cut_size,
    degree_profile,
    gen_complete,
    gen_random_3graph,
    gen_random_linear_3graph,
    gen_random_uniform,
    random_cut_coefficient,
    stirling2,
)
from hypercut import generators, oracle
from reference import edwards_bound


class TestOracle:
    def test_single_triple_3cut(self):
        h = Hypergraph.from_edges(3, 3, [(0, 1, 2)])
        cut = brute_force_max_kcut(h, 3)
        assert cut.cut_value == 1
        # [PAPER] coefficient 2/9: surplus = 1 - 2/9.
        assert cut.surplus == 1 - Fraction(2, 9)

    def test_triangle_graph_2cut(self):
        h = Hypergraph.from_edges(2, 3, [(0, 1), (0, 2), (1, 2)])
        cut = brute_force_max_kcut(h, 2)
        # [TRIVIAL] a triangle has max cut 2.
        assert cut.cut_value == 2

    def test_complete_graph_k5(self):
        # [DERIVED] mc(K_5) = 2 * 3 = 6 (balanced bipartition).
        cut = brute_force_max_kcut(gen_complete(2, 5), 2)
        assert cut.cut_value == 6

    def test_empty_hypergraph(self):
        h = Hypergraph.from_edges(3, 5, [])
        cut = brute_force_max_kcut(h, 3)
        assert cut.cut_value == 0
        assert cut.surplus == 0

    def test_no_vertices(self):
        h = Hypergraph.from_edges(3, 0, [])
        cut = brute_force_max_kcut(h, 2)
        assert cut.cut_value == 0
        assert cut.assignment == ()

    def test_pinning_and_lexicographic_tiebreak(self):
        h = Hypergraph.from_edges(2, 4, [(0, 1), (2, 3)])
        cut = brute_force_max_kcut(h, 2)
        assert cut.assignment[0] == 0
        # All maximizers are compared in base-k lexicographic order; the
        # returned one must be minimal among assignments with the same value.
        assert cut.assignment == (0, 1, 0, 1)

    def test_self_consistency_with_cut_size(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(4, 8))
            h = gen_random_3graph(n, 0.5, int(rng.integers(10**6)))
            for k in (2, 3):
                cut = brute_force_max_kcut(h, k)
                assert cut.cut_value == cut_size(h, cut.assignment, k)

    def test_oracle_dominates_every_assignment(self):
        h = gen_random_3graph(6, 0.6, 3)
        opt = brute_force_max_kcut(h, 3).cut_value
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.integers(0, 3, size=6)
            assert cut_size(h, a, 3) <= opt

    @pytest.mark.parametrize("r, n, k", [(2, 2, 5), (2, 9, 2), (3, 8, 3), (4, 8, 4), (3, 5, 7)])
    def test_scans_one_labelling_per_partition(self, r, n, k):
        # one restricted growth string per partition of the n vertices into
        # at most k blocks, against k^(n-1) labellings with vertex 0 pinned;
        # each scoring step gets a (heads, tails, edges) block of part masks.
        # For k > r every string cuts nothing, and the oracle scores none.
        with mock.patch.object(oracle, "cut_counts", wraps=oracle.cut_counts) as scored:
            cut = brute_force_max_kcut(gen_complete(r, n), k)
        scanned = sum(call.args[1][..., 0].size for call in scored.call_args_list)
        if k > r:
            assert scanned == 0 and cut.assignment == (0,) * n
        else:
            assert scanned == sum(stirling2(n, j) for j in range(1, k + 1))

    def test_capacity_error(self):
        h = gen_complete(2, 30)
        with pytest.raises(CapacityError):
            brute_force_max_kcut(h, 2)

    def test_capacity_guard_reads_a_numpy_k_exactly(self):
        # np.int64(9) ** 20 wraps to a negative int64, so the guard k^n > 10^8
        # passed a numpy k, and the scan began on all 9^20 assignments
        h = Hypergraph(9, 20, [range(9)], [1])
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="capacity"):
            brute_force_max_kcut(h, np.int64(9))
        assert time.perf_counter() - start < 1.0

    def test_rejects_small_k(self):
        h = Hypergraph.from_edges(3, 3, [(0, 1, 2)])
        with pytest.raises(InputError):
            brute_force_max_kcut(h, 1)

    def test_surplus_strictly_positive_when_edges_exist(self):
        # The maximum beats the average over all assignments whenever the
        # cut-size function is non-constant, which holds as soon as m >= 1
        # (the all-in-one-part assignment cuts nothing).
        rng = np.random.default_rng(5)
        found = 0
        while found < 8:
            h = gen_random_3graph(6, 0.3, int(rng.integers(10**6)))
            if h.m == 0:
                continue
            found += 1
            for k in (2, 3):
                assert brute_force_max_kcut(h, k).surplus > 0


class _CountingRng:
    """A numpy Generator that counts every variate it hands out."""

    def __init__(self, rng):
        self.rng = rng
        self.drawn = 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self.drawn += np.size(out)
            return out

        return draw


def _counted_gen_random_uniform(r, n, p, seed):
    """(the graph, the variates drawn) of gen_random_uniform(r, n, p, seed)."""
    made = []
    default_rng = np.random.default_rng

    def counting(seed):
        made.append(_CountingRng(default_rng(seed)))
        return made[-1]

    with mock.patch.object(np.random, "default_rng", counting):
        h = gen_random_uniform(r, n, p, seed)
    assert len(made) == 1
    return h, made[0].drawn


class TestRandomUniform:
    def test_deterministic_given_seed(self):
        a = gen_random_uniform(3, 10, 0.4, 7)
        b = gen_random_uniform(3, 10, 0.4, 7)
        assert a == b

    def test_seeds_differ(self):
        draws = {gen_random_uniform(3, 10, 0.4, s).edges.tobytes() for s in range(5)}
        assert len(draws) > 1

    @pytest.mark.filterwarnings("error")
    def test_edge_probability_extremes(self):
        # p = 1 keeps every candidate; p = 0 draws nothing at all
        for r, n in ((2, 7), (3, 8), (5, 8)):
            assert gen_random_uniform(r, n, 1.0, 0) == gen_complete(r, n)
            h, drawn = _counted_gen_random_uniform(r, n, 0.0, 0)
            assert h.m == 0 and drawn == 0

    def test_rejects_bad_probability(self):
        with pytest.raises(InputError):
            gen_random_uniform(3, 8, 1.5, 0)

    @pytest.mark.parametrize("draw", [generators._DRAW, 64])
    def test_caps_the_kept_vertex_ids(self, draw):
        """The expected r * m = 3 * C(20, 3) / 2 fits the cap; a draw that
        keeps more edges is refused, one that keeps exactly that many is not."""
        total = math.comb(20, 3)
        draws = {s: gen_random_uniform(3, 20, 0.5, s) for s in range(40)}
        over = next(s for s, h in draws.items() if h.m > total // 2)
        at = next(s for s, h in draws.items() if h.m == total // 2)
        with mock.patch.object(generators, "MAX_IDS", 3 * total // 2), \
                mock.patch.object(generators, "_DRAW", draw):
            with pytest.raises(CapacityError):
                gen_random_uniform(3, 20, 0.5, over)
            assert gen_random_uniform(3, 20, 0.5, at) == draws[at]
            with pytest.raises(CapacityError):
                gen_random_uniform(3, 20, 0.51, at)  # refused up front

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [5e-324, 1e-300, 1e-20])
    def test_tiny_probability_keeps_nothing(self, p):
        # numpy's geometric gaps saturate at 2^63 - 1 here; summed unclamped
        # they wrap negative and keep bogus ranks
        assert gen_random_uniform(3, 843, p, 0).m == 0

    @pytest.mark.filterwarnings("error")
    def test_single_candidate_is_empty_two_thirds_of_the_time(self):
        # [DERIVED] C(3, 3) = 1 candidate kept with p = 1/3; a gap clamped to
        # C(n, r) instead of C(n, r) + 1 would keep it on every draw
        empty = sum(gen_random_uniform(3, 3, 1 / 3, s).m == 0 for s in range(3000))
        assert abs(empty - 2000) <= 5 * math.sqrt(3000 * 2 / 9)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_each_candidate_is_a_bernoulli_draw(self, p):
        # [DERIVED] over 3,000 seeds each of the C(6, 3) = 20 candidates is
        # kept Binomial(3000, p) times; every count within 5 sigma
        seeds = 3000
        counts = np.zeros(math.comb(6, 3), dtype=np.int64)
        index = {tuple(e): i for i, e in enumerate(gen_complete(3, 6).edges.tolist())}
        for s in range(seeds):
            for e in gen_random_uniform(3, 6, p, s).edges.tolist():
                counts[index[tuple(e)]] += 1
        sigma = math.sqrt(seeds * p * (1 - p))
        assert np.abs(counts - seeds * p).max() <= 5 * sigma

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_draws_follow_the_kept_edges(self, seed):
        # C(843, 3) ~ 9.95e7 candidates and m ~ 1,000: one variate per kept
        # edge plus the chunk's slack, not one per candidate
        h, drawn = _counted_gen_random_uniform(3, 843, 1e-5, seed)
        assert 900 < h.m < 1100
        assert drawn <= h.m + 4 * math.sqrt(h.m) + 64

    def test_mean_edge_count(self):
        # [DERIVED] m ~ Binomial(C(12,3), 1/12); the 200-seed sample mean
        # must sit within 3 standard errors of C(12,3)/12.
        n_pot = math.comb(12, 3)
        p = 1.0 / 12.0
        counts = [gen_random_3graph(12, p, s).m for s in range(200)]
        expected = n_pot * p
        stderr = math.sqrt(n_pot * p * (1 - p) / len(counts))
        assert abs(np.mean(counts) - expected) <= 3 * stderr


class TestLinearGenerator:
    def test_linear_codegree_is_one(self):
        for seed in range(5):
            h, _ = gen_random_linear_3graph(15, 8, seed)
            assert degree_profile(h).max_codegree <= 1

    def test_reaches_modest_targets(self):
        h, short = gen_random_linear_3graph(15, 8, 3)
        assert not short
        assert h.m == 8

    def test_shortfall_flag(self):
        # [DERIVED] n = 6: the pair bound allows 5 triples but the largest
        # pairwise-linear triple system on 6 vertices has only 4, so the
        # generator must report a shortfall for target 5.
        h, short = gen_random_linear_3graph(6, 5, 0)
        assert short
        assert h.m <= 4

    def test_packing_bound_error(self):
        with pytest.raises(InputError):
            gen_random_linear_3graph(9, 13, 0)

    def test_zero_target(self):
        h, short = gen_random_linear_3graph(10, 0, 0)
        assert h.m == 0 and not short

    def test_deterministic(self):
        assert gen_random_linear_3graph(12, 6, 9) == gen_random_linear_3graph(
            12, 6, 9
        )


class TestComplete:
    def test_caps_the_vertex_ids(self):
        total = math.comb(12, 4)
        with mock.patch.object(generators, "MAX_IDS", 4 * total):
            assert gen_complete(4, 12).m == total
        with mock.patch.object(generators, "MAX_IDS", 4 * total - 1):
            with pytest.raises(CapacityError):
                gen_complete(4, 12)

    def test_edge_counts(self):
        assert gen_complete(2, 7).m == 21
        assert gen_complete(3, 6).m == 20
        assert gen_complete(4, 5).m == 5

    def test_rejects_too_few_vertices(self):
        with pytest.raises(InputError):
            gen_complete(3, 2)

    def test_complete_graph_surplus_meets_edwards(self):
        # [PAPER] odd complete graphs are tight for (sqrt(8m+1)-1)/8.
        for n, mc in ((3, 2), (5, 6), (7, 12)):
            h = gen_complete(2, n)
            cut = brute_force_max_kcut(h, 2)
            assert cut.cut_value == mc
            assert cut.surplus == edwards_bound(h.m)


class TestEdwardsBound:
    def test_exact_perfect_squares(self):
        assert edwards_bound(0) == 0
        assert edwards_bound(3) == Fraction(1, 2)
        assert edwards_bound(10) == Fraction(1, 1)
        assert edwards_bound(21) == Fraction(3, 2)
        assert edwards_bound(36) == Fraction(2, 1)
        assert isinstance(edwards_bound(3), Fraction)

    def test_float_fallback(self):
        val = edwards_bound(5)
        assert isinstance(val, float)
        assert val == pytest.approx((math.sqrt(41) - 1) / 8)

    def test_rejects_negative(self):
        with pytest.raises(InputError):
            edwards_bound(-1)

    def test_monotone(self):
        vals = [float(edwards_bound(m)) for m in range(30)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestCoefficientSanity:
    def test_known_values(self):
        assert random_cut_coefficient(3, 3) == Fraction(2, 9)
        assert random_cut_coefficient(3, 2) == Fraction(3, 4)
        assert random_cut_coefficient(2, 2) == Fraction(1, 2)
