"""Dense symmetric eigendecomposition, graph energy, and the PSD certificate.

The full spectrum comes from LAPACK through ``numpy.linalg.eigh``.  Its
result is checked before use: the residual ``max |A v_i - lambda_i v_i|``
must not exceed ``n * TOL * max(||A||_F, 1)``, or ``NumericError`` is raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .hypergraph import Hypergraph, edge_subsets

# Relative tolerance of the residual check, the negativity margin and the
# trace check.
TOL = 1e-10


def adjacency(n: int, pairs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Dense n x n float adjacency: each (u, v) row adds its weight to
    A(u, v) and A(v, u), by one bincount over the cells u*n + v and v*n + u."""
    u, v = pairs[:, 0], pairs[:, 1]
    cells = np.concatenate([u * n + v, v * n + u])
    weights = np.concatenate([weights, weights])
    return np.bincount(cells, weights=weights, minlength=n * n).reshape(n, n)


class SymmetricMatrix:
    """Dense real symmetric matrix; entries are read-only after construction."""

    __slots__ = ("a",)

    def __init__(self, entries) -> None:
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InputError(f"matrix must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InputError("matrix has non-finite entries")
        if not np.array_equal(a, a.T):
            raise InputError("matrix is not exactly symmetric")
        a.setflags(write=False)
        self.a = a

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @classmethod
    def from_pair_graph(cls, h: Hypergraph) -> "SymmetricMatrix":
        """Adjacency matrix of the pair multigraph of h, from each pair of each
        edge unmerged: zero diagonal, A(u,v) = the total multiplicity of the
        edges holding u and v (the edge's own multiplicity when r = 2)."""
        pairs = edge_subsets(h, 2)
        return cls(adjacency(h.n, pairs.reshape(-1, 2), np.repeat(h.mult, pairs.shape[1])))


@dataclass(frozen=True)
class EigenDecomposition:
    """Full spectrum of a symmetric matrix, eigenvalues sorted descending."""

    eigenvalues: np.ndarray  # shape (n,), descending
    vectors: np.ndarray  # orthonormal columns, aligned with eigenvalues
    residual: float  # max entry of |A v_i - lambda_i v_i|

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.eigenvalues), initial=0.0))

    @property
    def energy(self) -> float:
        """Sum of absolute values of the eigenvalues."""
        return float(np.sum(np.abs(self.eigenvalues)))


def eigen_decompose(a: SymmetricMatrix) -> EigenDecomposition:
    if a.n < 1:
        raise InputError("matrix must have dimension >= 1")
    try:
        ascending, vectors = np.linalg.eigh(a.a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"LAPACK eigh failed: {exc}") from exc
    values = ascending[::-1]
    vectors = vectors[:, ::-1]
    residual = float(np.max(np.abs(a.a @ vectors - vectors * values), initial=0.0))
    bound = a.n * TOL * max(float(np.linalg.norm(a.a)), 1.0)
    if residual > bound:
        raise NumericError(
            f"eigendecomposition residual {residual:.3e} exceeds {bound:.3e}"
        )
    return EigenDecomposition(eigenvalues=values, vectors=vectors, residual=residual)


def energy(a: SymmetricMatrix) -> float:
    """Sum of absolute values of the eigenvalues."""
    return eigen_decompose(a).energy


def negative_eigenvalue_mask(e: EigenDecomposition) -> np.ndarray:
    """Eigenvalues treated as negative: below -n * TOL * ||A||.

    The margin keeps numerical zeros out of the negative eigenspace.
    """
    cut = -e.n * TOL * e.spectral_radius
    return e.eigenvalues < cut


def gram_vectors(e: EigenDecomposition) -> np.ndarray:
    """(n, d) rows z_i realizing the certificate, <z_i, z_j> = X(i, j); d is
    the number of negative eigenvalues."""
    return e.vectors[:, negative_eigenvalue_mask(e)]


def sdp_energy_bound(a: SymmetricMatrix) -> float:
    """Value -1/2 <Z Z^T, A> of the certificate: tr(Z^T A Z) sums the masked
    eigenvalues, so it is read off the spectrum.  For trace-free A it is one
    quarter of the energy, the negative eigenvalues then summing to -E/2."""
    dec = eigen_decompose(a)
    trace_tol = a.n * TOL * max(1.0, float(np.linalg.norm(a.a)))
    tr = float(np.trace(a.a))
    if abs(tr) > trace_tol:
        raise InputError(f"matrix trace {tr:.3e} exceeds tolerance {trace_tol:.3e}")
    return float(-0.5 * np.sum(dec.eigenvalues[negative_eigenvalue_mask(dec)]))
