import numpy as np
import pytest

from hypercut import (
    InputError,
    NumericError,
    SymmetricMatrix,
    eigen_decompose,
    energy,
    gen_complete,
    sdp_energy_bound,
)
from hypercut.spectral import TOL, gram_vectors
from conftest import random_symmetric

ONE_EDGE = SymmetricMatrix([[0.0, 1.0], [1.0, 0.0]])
K3 = SymmetricMatrix.from_pair_graph(gen_complete(2, 3))
K5 = SymmetricMatrix.from_pair_graph(gen_complete(2, 5))


class TestSymmetricMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(InputError):
            SymmetricMatrix([[0.0, 1.0], [2.0, 0.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            SymmetricMatrix([[0.0, np.inf], [np.inf, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            SymmetricMatrix(np.zeros((2, 3)))

    def test_adjacency_from_pair_graph(self):
        a = K3.a
        assert np.all(np.diag(a) == 0)
        assert a[0, 1] == a[1, 0] == 1


class TestEigenDecompose:
    def test_zero_matrix(self):
        dec = eigen_decompose(SymmetricMatrix(np.zeros((3, 3))))
        assert np.all(dec.eigenvalues == 0)

    def test_one_edge(self):
        dec = eigen_decompose(ONE_EDGE)
        assert np.allclose(dec.eigenvalues, [1.0, -1.0])

    def test_k3_spectrum(self):
        dec = eigen_decompose(K3)
        assert np.allclose(dec.eigenvalues, [2.0, -1.0, -1.0], atol=1e-9)

    @pytest.mark.parametrize("n", [2, 7, 23, 64])
    def test_reconstruction_orthonormality_residual(self, n):
        a = random_symmetric(n, seed=n)
        dec = eigen_decompose(a)
        fro = np.linalg.norm(a.a)
        v, lam = dec.vectors, dec.eigenvalues
        assert np.linalg.norm(v @ np.diag(lam) @ v.T - a.a) <= n * 1e-8 * fro
        assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-8
        assert dec.residual <= n * TOL * max(fro, 1.0)
        assert abs(lam.sum() - np.trace(a.a)) <= n * 1e-8 * max(fro, 1.0)

    def test_residual_over_bound_raises(self, monkeypatch):
        # a "decomposition" claiming A = 0 misses A v = lambda v by 1
        monkeypatch.setattr(
            np.linalg, "eigh", lambda a: (np.zeros(len(a)), np.eye(len(a)))
        )
        with pytest.raises(NumericError, match="residual"):
            eigen_decompose(ONE_EDGE)

    def test_sorted_descending(self):
        lam = eigen_decompose(random_symmetric(12, seed=0)).eigenvalues
        assert np.all(np.diff(lam) <= 0)


class TestEnergy:
    def test_one_edge(self):
        assert energy(ONE_EDGE) == pytest.approx(2.0)

    def test_k3(self):
        assert energy(K3) == pytest.approx(4.0)

    def test_k5(self):
        # spectrum of K_5 is {4, -1 x 4}
        assert energy(K5) == pytest.approx(8.0)

    def test_additivity_bound(self):
        for seed in range(10):
            a = random_symmetric(16, seed=seed)
            b = random_symmetric(16, seed=seed + 1000)
            ab = SymmetricMatrix(a.a + b.a)
            assert energy(ab) <= 4 * (energy(a) + energy(b)) + 1e-8


class TestSpectralStats:
    def test_one_edge(self):
        assert eigen_decompose(ONE_EDGE).spectral_radius == pytest.approx(1.0)

    def test_k3(self):
        assert eigen_decompose(K3).spectral_radius == pytest.approx(2.0)

    def test_zero(self):
        assert eigen_decompose(SymmetricMatrix(np.zeros((4, 4)))).spectral_radius == 0.0

    def test_frobenius_matches_eigenvalues(self):
        a = random_symmetric(20, seed=5)
        dec = eigen_decompose(a)
        fro = np.linalg.norm(a.a)
        assert fro**2 == pytest.approx(np.sum(dec.eigenvalues**2), rel=1e-8)


class TestWeylAndInterlacing:
    def test_weyl_perturbation(self):
        for seed in range(10):
            a = random_symmetric(16, seed=seed)
            b = random_symmetric(16, seed=seed + 500)
            la = eigen_decompose(a).eigenvalues
            lab = eigen_decompose(SymmetricMatrix(a.a + b.a)).eigenvalues
            norm_b = np.max(np.abs(eigen_decompose(b).eigenvalues))
            assert np.all(np.abs(lab - la) <= norm_b + 1e-8)

    def test_cauchy_interlacing(self):
        rng = np.random.default_rng(42)
        for seed in range(10):
            n = 14
            a = random_symmetric(n, seed=seed + 300)
            keep = np.sort(rng.choice(n, size=9, replace=False))
            b = SymmetricMatrix(a.a[np.ix_(keep, keep)])
            la = eigen_decompose(a).eigenvalues
            lb = eigen_decompose(b).eigenvalues
            for i in range(len(keep)):
                assert la[i] >= lb[i] - 1e-8
                assert lb[i] >= la[i + n - len(keep)] - 1e-8


def _certificate(a: SymmetricMatrix) -> np.ndarray:
    """The certificate X = Z Z^T from the Gram vectors of a's decomposition."""
    z = gram_vectors(eigen_decompose(a))
    return z @ z.T


class TestNegativeEigenspace:
    def test_psd_input_gives_zero(self):
        x = _certificate(SymmetricMatrix(np.eye(3)))
        assert np.allclose(x, 0.0)

    def test_one_edge_projector(self):
        x = _certificate(ONE_EDGE)
        assert np.allclose(x, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-9)

    def test_k3_projector(self):
        x = _certificate(K3)
        expect = np.full((3, 3), -1.0 / 3.0)
        np.fill_diagonal(expect, 2.0 / 3.0)
        assert np.allclose(x, expect, atol=1e-9)

    def test_psd_and_diagonal_bound(self):
        for seed in range(8):
            a = random_symmetric(12, seed=seed, zero_diag=True)
            x = _certificate(a)
            assert np.min(np.linalg.eigvalsh(x)) >= -1e-8
            assert np.max(np.diag(x)) <= 1.0 + 1e-8


class TestSdpEnergyBound:
    def test_one_edge(self):
        assert sdp_energy_bound(ONE_EDGE) == pytest.approx(0.5)

    def test_k3(self):
        assert sdp_energy_bound(K3) == pytest.approx(1.0)

    def test_zero(self):
        assert sdp_energy_bound(SymmetricMatrix(np.zeros((3, 3)))) == 0.0

    def test_equals_quarter_energy_when_trace_free(self):
        for seed in range(10):
            a = random_symmetric(14, seed=seed, trace_free=True)
            assert sdp_energy_bound(a) == pytest.approx(energy(a) / 4.0, abs=14e-8)

    def test_rejects_nonzero_trace(self):
        with pytest.raises(InputError):
            sdp_energy_bound(SymmetricMatrix(np.eye(3)))

    def test_basis_invariance_under_permutation(self):
        # K_3 has a repeated eigenvalue; the certificate value must not depend
        # on which orthonormal basis of the eigenplane the solver happens upon
        perm = [2, 0, 1]
        permuted = SymmetricMatrix(K3.a[np.ix_(perm, perm)])
        assert sdp_energy_bound(permuted) == pytest.approx(sdp_energy_bound(K3))
        assert energy(permuted) == pytest.approx(energy(K3))
