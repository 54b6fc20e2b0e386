"""Dense symmetric eigendecomposition, graph energy, and the PSD certificate.

The full spectrum comes from LAPACK through ``numpy.linalg.eigh``.  Its
result is checked before use: the residual ``max |A v_i - lambda_i v_i|``
must not exceed ``n * tol * max(||A||_F, 1)``, or ``NumericError`` is raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .hypergraph import ColoredMultigraph, Hypergraph

DEFAULT_TOL = 1e-10


def adjacency(n: int, pairs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Dense n x n float adjacency: each (u, v) row adds its weight to
    A(u, v) and A(v, u)."""
    a = np.zeros((n, n))
    np.add.at(a, (pairs[:, 0], pairs[:, 1]), weights)
    np.add.at(a, (pairs[:, 1], pairs[:, 0]), weights)
    return a


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
    def zeros(cls, n: int) -> "SymmetricMatrix":
        return cls(np.zeros((n, n)))

    @classmethod
    def from_pair_graph(cls, h: Hypergraph) -> "SymmetricMatrix":
        """Adjacency matrix of a 2-uniform multigraph: zero diagonal,
        A(u,v) = edge multiplicity."""
        if h.r != 2:
            raise InputError(f"adjacency matrix needs r=2, got r={h.r}")
        return cls(adjacency(h.n, h.edges, h.mult))

    @classmethod
    def from_colored(cls, g: ColoredMultigraph) -> "SymmetricMatrix":
        """Adjacency of a colored multigraph, colors summed out."""
        return cls(adjacency(g.n, g.edges[:, :2], g.mult))

    def to_text(self) -> str:
        return (
            "\n".join(" ".join(repr(float(x)) for x in row) for row in self.a)
            + "\n"
        )

    @classmethod
    def from_text(cls, text: str) -> "SymmetricMatrix":
        rows = [
            [float(tok) for tok in line.split()]
            for line in text.splitlines()
            if line.strip()
        ]
        return cls(np.array(rows))


@dataclass(frozen=True)
class EigenDecomposition:
    """Full spectrum of a symmetric matrix, eigenvalues sorted descending."""

    eigenvalues: np.ndarray  # shape (n,), descending
    vectors: np.ndarray  # orthonormal columns, aligned with eigenvalues
    residual: float  # max entry of |A v_i - lambda_i v_i|
    tol: float

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def spectral_radius(self) -> float:
        if self.n == 0:
            return 0.0
        return float(np.max(np.abs(self.eigenvalues)))


def eigen_decompose(a: SymmetricMatrix, tol: float = DEFAULT_TOL) -> EigenDecomposition:
    if a.n < 1:
        raise InputError("matrix must have dimension >= 1")
    if tol <= 0:
        raise InputError(f"tolerance must be positive, got {tol}")
    try:
        ascending, vectors = np.linalg.eigh(a.a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"LAPACK eigh failed: {exc}") from exc
    values = ascending[::-1]
    vectors = vectors[:, ::-1]
    residual = float(np.max(np.abs(a.a @ vectors - vectors * values), initial=0.0))
    bound = a.n * tol * max(float(np.linalg.norm(a.a)), 1.0)
    if residual > bound:
        raise NumericError(
            f"eigendecomposition residual {residual:.3e} exceeds {bound:.3e}"
        )
    return EigenDecomposition(
        eigenvalues=values, vectors=vectors, residual=residual, tol=tol
    )


def energy(a: SymmetricMatrix, tol: float = DEFAULT_TOL) -> float:
    """Sum of absolute values of the eigenvalues."""
    return float(np.sum(np.abs(eigen_decompose(a, tol).eigenvalues)))


def spectral_stats(
    a: SymmetricMatrix, tol: float = DEFAULT_TOL
) -> tuple[float, float, float]:
    """(spectral radius, Frobenius norm, trace)."""
    dec = eigen_decompose(a, tol)
    return (
        dec.spectral_radius,
        float(np.sqrt(np.sum(a.a * a.a))),
        float(np.trace(a.a)),
    )


def negative_eigenvalue_mask(e: EigenDecomposition) -> np.ndarray:
    """Eigenvalues treated as negative: below -n * tol * ||A||.

    The margin keeps numerical zeros out of the negative eigenspace.
    """
    cut = -e.n * e.tol * e.spectral_radius
    return e.eigenvalues < cut


def negative_eigenspace_psd(e: EigenDecomposition) -> SymmetricMatrix:
    """Projector onto the negative eigenspace: X = sum of v_i v_i^T over
    eigenvalues below the negativity threshold.  PSD with diagonal <= 1."""
    neg = e.vectors[:, negative_eigenvalue_mask(e)]
    x = neg @ neg.T
    return SymmetricMatrix((x + x.T) / 2.0)


def sdp_energy_bound(a: SymmetricMatrix, tol: float = DEFAULT_TOL) -> float:
    """Value -1/2 <X, A> of the negative-eigenspace certificate.

    For trace-free A this equals one quarter of the energy, since the
    negative eigenvalues then sum to minus half the energy.
    """
    dec = eigen_decompose(a, tol)
    fro = float(np.linalg.norm(a.a))
    trace_tol = a.n * tol * max(1.0, fro)
    tr = float(np.trace(a.a))
    if abs(tr) > trace_tol:
        raise InputError(f"matrix trace {tr:.3e} exceeds tolerance {trace_tol:.3e}")
    x = negative_eigenspace_psd(dec)
    return float(-0.5 * np.sum(x.a * a.a))
