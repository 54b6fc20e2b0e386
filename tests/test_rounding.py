import math

import numpy as np
import pytest

from hypercut import (
    Hypergraph,
    InputError,
    SymmetricMatrix,
    best_bipartition,
    brute_force_max_kcut,
    eigen_decompose,
    energy,
    gaussian_sign_round,
    gen_complete,
    local_search_1flip,
)
from hypercut.spectral import gram_vectors, negative_eigenvalue_mask
from conftest import random_multigraph
from reference import quadratic_surplus

ONE_EDGE = SymmetricMatrix([[0.0, 1.0], [1.0, 0.0]])
K3 = SymmetricMatrix.from_pair_graph(gen_complete(2, 3))
K5 = SymmetricMatrix.from_pair_graph(gen_complete(2, 5))


class TestGramVectors:
    def test_psd_input_zero_dimensional(self):
        z = gram_vectors(eigen_decompose(SymmetricMatrix(np.eye(3))))
        assert z.shape[1] == 0

    def test_one_edge(self):
        z = gram_vectors(eigen_decompose(ONE_EDGE))
        assert z.shape[1] == 1
        assert np.allclose(np.abs(z), 1.0 / np.sqrt(2.0))
        assert z[0, 0] == pytest.approx(-z[1, 0])

    def test_k3_geometry(self):
        z = gram_vectors(eigen_decompose(K3))
        gram = z @ z.T
        assert np.allclose(np.diag(gram), 2.0 / 3.0, atol=1e-9)
        off = gram[~np.eye(3, dtype=bool)]
        assert np.allclose(off, -1.0 / 3.0, atol=1e-9)

    def test_reproduces_certificate(self):
        for seed in range(5):
            g = random_multigraph(8, seed=seed)
            a = SymmetricMatrix.from_pair_graph(g)
            dec = eigen_decompose(a)
            z = gram_vectors(dec)
            neg = dec.vectors[:, negative_eigenvalue_mask(dec)]
            x = sum(np.outer(v, v) for v in neg.T)
            assert np.allclose(z @ z.T, x, atol=8e-9)


class TestGaussianSignRound:
    def test_one_edge_always_split(self):
        z = gram_vectors(eigen_decompose(ONE_EDGE))
        for seed in range(5):
            res = gaussian_sign_round(z, ONE_EDGE, trials=1, seed=seed)
            assert res.value == pytest.approx(0.5)
            assert res.x in [(1, -1), (-1, 1)]

    def test_zero_matrix(self):
        a = SymmetricMatrix(np.zeros((4, 4)))
        z = gram_vectors(eigen_decompose(a))
        assert gaussian_sign_round(z, a, trials=3, seed=0).value == 0.0

    def test_k3_reaches_optimum(self):
        z = gram_vectors(eigen_decompose(K3))
        res = gaussian_sign_round(z, K3, trials=50, seed=1)
        assert res.value == pytest.approx(0.5)

    def test_deterministic(self):
        z = gram_vectors(eigen_decompose(K5))
        a = gaussian_sign_round(z, K5, trials=20, seed=9)
        b = gaussian_sign_round(z, K5, trials=20, seed=9)
        assert a == b

    def test_dimension_mismatch(self):
        z = gram_vectors(eigen_decompose(K3))
        with pytest.raises(InputError):
            gaussian_sign_round(z, ONE_EDGE, trials=1, seed=0)

    def test_bad_trials(self):
        z = gram_vectors(eigen_decompose(K3))
        with pytest.raises(InputError):
            gaussian_sign_round(z, K3, trials=0, seed=0)

    def test_zero_row_gets_plus_one(self):
        a = SymmetricMatrix([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        z = np.array([[1.0], [-1.0], [0.0]])
        for seed in range(20):
            assert gaussian_sign_round(z, a, trials=3, seed=seed).x[2] == 1

    def test_generator_seed_is_drawn_from(self):
        z = gram_vectors(eigen_decompose(K5))
        rng = np.random.default_rng(4)
        assert gaussian_sign_round(z, K5, 7, rng) == gaussian_sign_round(z, K5, 7, 4)
        # the call consumed exactly its (trials, d) Gaussians from the stream
        ref = np.random.default_rng(4)
        ref.standard_normal((7, z.shape[1]))
        assert rng.random() == ref.random()


class TestLocalSearch:
    def test_one_edge_single_flip(self):
        res = local_search_1flip(ONE_EDGE, (1, 1))
        assert res.value == pytest.approx(0.5)
        assert res.flips == 1

    def test_already_optimal_unchanged(self):
        res = local_search_1flip(ONE_EDGE, (1, -1))
        assert res.x == (1, -1)
        assert res.flips == 0

    def test_k5_from_all_ones(self):
        res = local_search_1flip(K5, (1,) * 5)
        assert res.value == pytest.approx(1.0)  # cut 6 = m/2 + 1

    def test_never_decreases(self):
        for seed in range(6):
            g = random_multigraph(9, seed=seed)
            a = SymmetricMatrix.from_pair_graph(g)
            rng = np.random.default_rng(seed)
            x = rng.integers(0, 2, size=9) * 2 - 1
            res = local_search_1flip(a, x)
            assert res.value >= quadratic_surplus(a, x) - 1e-12

    def test_rejects_non_sign_vector(self):
        with pytest.raises(InputError):
            local_search_1flip(ONE_EDGE, (1, 0))


class TestBestBipartition:
    def test_one_edge(self):
        assert best_bipartition(ONE_EDGE, seed=0).value == pytest.approx(0.5)

    def test_k5_is_edwards_tight(self):
        res = best_bipartition(K5, seed=0)
        assert res.value == pytest.approx(1.0)

    def test_complete_bipartite_fully_cut(self):
        edges = [((u, 5 + v), 1) for u in range(5) for v in range(5)]
        g = Hypergraph.from_edges(2, 10, edges)
        res = best_bipartition(SymmetricMatrix.from_pair_graph(g), seed=0)
        assert res.value == pytest.approx(12.5)  # cut 25 = m

    def test_value_recomputable(self):
        for seed in range(5):
            g = random_multigraph(10, seed=seed + 50)
            a = SymmetricMatrix.from_pair_graph(g)
            res = best_bipartition(a, seed=seed)
            assert res.value == pytest.approx(quadratic_surplus(a, res.x))

    def test_floor_half_edges(self):
        for seed in range(10):
            g = random_multigraph(11, seed=seed + 90, density=0.5)
            res = best_bipartition(SymmetricMatrix.from_pair_graph(g), seed=seed)
            assert res.value >= -1e-12  # cut >= m/2 via 1-flip optimality

    def test_deterministic(self):
        a = SymmetricMatrix.from_pair_graph(random_multigraph(9, seed=7))
        assert best_bipartition(a, seed=5) == best_bipartition(a, seed=5)

    def test_generator_seed_is_drawn_from(self):
        a = SymmetricMatrix.from_pair_graph(random_multigraph(9, seed=8))
        for seed in range(5):
            assert best_bipartition(a, seed=seed) == best_bipartition(
                a, seed=np.random.default_rng(seed)
            )

    def test_isolated_vertex_stays_plus_one(self):
        # vertex n-1 has no edge: its Gram row is exactly zero, so every start
        # gives it +1, and no flip of it can improve
        for g_seed in range(3):
            g = random_multigraph(8, seed=g_seed + 30)
            padded = Hypergraph(2, 9, g.edges, g.mult)
            a = SymmetricMatrix.from_pair_graph(padded)
            for seed in range(20):
                assert best_bipartition(a, seed=seed).x[8] == 1

    def test_start_pool_is_rounding_and_eigenvector_signs(self):
        for seed in range(8):
            a = SymmetricMatrix.from_pair_graph(random_multigraph(10, seed=seed + 200))
            z = gram_vectors(eigen_decompose(a))
            budget = 100 * math.ceil(math.log2(a.n + 1))
            rounded = gaussian_sign_round(z, a, budget, seed)
            starts = np.vstack([rounded.x, np.where(z.T < 0, -1.0, 1.0)])
            assert best_bipartition(a, seed=seed) == local_search_1flip(a, starts)

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InputError):
            best_bipartition(SymmetricMatrix(np.eye(2)), seed=0)

    def test_oracle_equivalence_sample(self):
        hits = 0
        for seed in range(30):
            g = random_multigraph(7, seed=seed + 700, density=0.7)
            if g.m == 0:
                hits += 1
                continue
            opt = brute_force_max_kcut(g, 2).cut_value
            res = best_bipartition(SymmetricMatrix.from_pair_graph(g), seed=seed)
            cut = res.value + g.m / 2.0
            assert cut >= opt - 1 - 1e-9
            if abs(cut - opt) < 1e-9:
                hits += 1
        assert hits >= 27

    def test_empirical_energy_lower_bound(self):
        # achieved surplus should clear energy / (40 ln n) on dense random
        # graphs; the constant is a harness choice, not a proven one
        for n in (16, 32, 64):
            rng = np.random.default_rng(n)
            edges = [
                ((u, v), 1)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            g = Hypergraph.from_edges(2, n, edges)
            a = SymmetricMatrix.from_pair_graph(g)
            res = best_bipartition(a, seed=n)
            assert res.value >= energy(a) / (40.0 * math.log(n))
