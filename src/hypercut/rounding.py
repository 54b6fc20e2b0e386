"""Sign rounding: from the PSD certificate's Gram vectors to actual cuts.

The quadratic surplus of a sign vector x for a zero-diagonal symmetric A is

    value(x) = -1/4 * x^T A x  =  -1/2 * sum_{i<j} A(i,j) x(i) x(j),

which for a multigraph adjacency matrix equals (cut size) - m/2.  Gaussian
hyperplane rounding of the Gram vectors of the negative-eigenspace projector
is the constructive surrogate for the semidefinite relaxation, and a 1-flip
local search supplies the unconditional cut >= m/2 floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .spectral import (
    EigenDecomposition,
    SymmetricMatrix,
    eigen_decompose,
    negative_eigenvalue_mask,
)


@dataclass(frozen=True)
class BipartitionResult:
    x: tuple[int, ...]  # signs in {-1, +1}
    value: float  # quadratic surplus of x
    flips: int


def quadratic_surplus(a: SymmetricMatrix, x) -> float:
    xv = np.asarray(x, dtype=float)
    return float(-0.25 * xv @ a.a @ xv)


def gram_vectors(e: EigenDecomposition) -> np.ndarray:
    """(n, d) rows z_i realizing the certificate, <z_i, z_j> = X(i, j); d is
    the number of negative eigenvalues."""
    return e.vectors[:, negative_eigenvalue_mask(e)].copy()


def _signs_from_inner(inner: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # exact zeros (zero-norm z_i included) get independent fair coins
    signs = np.sign(inner)
    zeros = signs == 0
    if zeros.any():
        signs[zeros] = rng.integers(0, 2, size=int(zeros.sum())) * 2 - 1
    return signs


def gaussian_sign_round(
    z: np.ndarray, a: SymmetricMatrix, trials: int, seed
) -> BipartitionResult:
    """Best of ``trials`` Gaussian hyperplane roundings, deterministic in seed."""
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    if len(z) != a.n:
        raise InputError(f"dimension mismatch: {len(z)} vectors for a {a.n}x{a.n} matrix")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((trials, z.shape[1]))
    signs = _signs_from_inner(g @ z.T, rng)
    values = -0.25 * np.einsum("ti,ti->t", signs @ a.a, signs)
    best = int(np.argmax(values))
    return BipartitionResult(
        x=tuple(int(s) for s in signs[best]),
        value=float(values[best]),
        flips=0,
    )


def local_search_1flip(a: SymmetricMatrix, x) -> BipartitionResult:
    """First-improvement single-sign flips, cyclic vertex order.

    Flipping x(i) changes the value by x(i) * (A x)(i); at termination no
    single flip improves, so for a nonnegative zero-diagonal A the cut is at
    least half the edge weight.
    """
    xv = np.asarray(x, dtype=float).copy()
    if xv.shape != (a.n,) or not np.all(np.abs(xv) == 1):
        raise InputError("x must be a +-1 vector matching the matrix dimension")
    ax = a.a @ xv
    flips = 0
    improved = True
    while improved:
        improved = False
        for i in range(a.n):
            gain = xv[i] * ax[i]
            if gain > 0:
                xv[i] = -xv[i]
                ax += 2.0 * xv[i] * a.a[:, i]
                flips += 1
                improved = True
    return BipartitionResult(
        x=tuple(int(s) for s in xv),
        value=quadratic_surplus(a, xv),
        flips=flips,
    )


def best_bipartition(
    a: SymmetricMatrix, trials: int | None = None, seed=0
) -> BipartitionResult:
    """Best 2-cut found by spectral rounding, eigenvector sign patterns, and a
    random baseline, each polished by 1-flip local search."""
    if np.any(np.diag(a.a) != 0):
        raise InputError("matrix must have zero diagonal")
    n = a.n
    if trials is None:
        trials = 100 * max(1, n.bit_length())  # 100 * ceil(log2(n + 1))
    rng = np.random.default_rng(seed)
    round_seed = rng.integers(0, 2**63)
    dec = eigen_decompose(a)
    z = gram_vectors(dec)
    rounded = gaussian_sign_round(z, a, trials, round_seed)
    # the rounding, an all-random baseline, and each negative eigenvector's signs
    candidates = [
        np.asarray(rounded.x, dtype=float),
        rng.integers(0, 2, size=n).astype(float) * 2 - 1,
    ]
    candidates += [_signs_from_inner(col, rng) for col in z.T]
    # ties go to the lexicographically smallest sign vector
    results = [local_search_1flip(a, cand) for cand in candidates]
    return min(results, key=lambda r: (-r.value, r.x))
