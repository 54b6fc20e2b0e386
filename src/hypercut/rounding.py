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
from .spectral import SymmetricMatrix, eigen_decompose, gram_vectors


@dataclass(frozen=True)
class BipartitionResult:
    x: tuple[int, ...]  # signs in {-1, +1}
    value: float  # quadratic surplus of x
    flips: int


def gaussian_sign_round(
    z: np.ndarray, a: SymmetricMatrix, trials: int, seed
) -> BipartitionResult:
    """Best of ``trials`` Gaussian hyperplane roundings, deterministic in
    ``seed``: an int, or a ``numpy.random.Generator`` drawn from directly.
    An exact-zero inner product (a zero row of z included) gives sign +1."""
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    if len(z) != a.n:
        raise InputError(f"dimension mismatch: {len(z)} vectors for a {a.n}x{a.n} matrix")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((trials, z.shape[1]))
    signs = np.where(g @ z.T < 0, -1.0, 1.0)
    values = -0.25 * np.einsum("ti,ti->t", signs @ a.a, signs)
    best = int(np.argmax(values))
    return BipartitionResult(
        x=tuple(int(s) for s in signs[best]),
        value=float(values[best]),
        flips=0,
    )


def local_search_1flip(a: SymmetricMatrix, x) -> BipartitionResult:
    """First-improvement single-sign flips in cyclic vertex order, from one
    start ``x`` of shape (n,) or from each row of a stack (s, n); the best
    result, ties to the lexicographically smallest x, with its own flips.

    Flipping x(i) changes the value by x(i) * (A x)(i).  All starts run in
    lockstep: each round flips, in every start that still has an improving
    vertex, the first one after the vertex it last flipped, wrapping to 0,
    which is the order of repeated sweeps over i = 0, ..., n-1.  At
    termination no single flip improves, so for a nonnegative zero-diagonal
    A the cut is at least half the edge weight.

    A x is one product for the stack, updated flip by flip, and each value
    is -x.(A x)/4.  For an integer A, as the solver passes, every sum is an
    exact float64 integer.  For a non-integer A a value may differ from
    -x.A.x/4 in the last bits, and so may the pick among starts whose values
    tie in exact arithmetic (x and -x always do).
    """
    xs = np.array(x, dtype=float, ndmin=2)
    if xs.shape[1:] != (a.n,) or not np.all(np.abs(xs) == 1):
        raise InputError("x must be +-1 vectors matching the matrix dimension")
    if len(xs) == 0:
        raise InputError("need at least one start")
    ax = xs @ a.a  # row t is A x_t: A is symmetric
    flips = np.zeros(len(xs), dtype=np.int64)
    cursor = np.zeros((len(xs), 1), dtype=np.intp)
    live = np.arange(len(xs))  # the starts that may still have a flip
    col = np.arange(a.n)
    while len(live):
        improving = xs[live] * ax[live] > 0
        ahead = improving & (col >= cursor[live])
        v = np.where(ahead.any(axis=1), ahead.argmax(axis=1), improving.argmax(axis=1))
        moved = improving.any(axis=1)
        live, v = live[moved], v[moved]
        xs[live, v] = -xs[live, v]
        # row v of A is column v: SymmetricMatrix is exactly symmetric
        ax[live] += (2.0 * xs[live, v])[:, None] * a.a[v]
        flips[live] += 1
        cursor[live, 0] = v + 1
    values = -0.25 * np.einsum("ti,ti->t", xs, ax)
    rows = xs.tolist()
    best = min(range(len(xs)), key=lambda t: (-values[t], rows[t]))
    return BipartitionResult(
        x=tuple(map(int, rows[best])), value=float(values[best]), flips=int(flips[best])
    )


def best_bipartition(a: SymmetricMatrix, seed=0) -> BipartitionResult:
    """Best 2-cut found by 1-flip local search from the best of
    100 * ceil(log2(n + 1)) Gaussian roundings (``seed`` goes to
    gaussian_sign_round) and from each negative eigenvector's sign pattern,
    zeros to +1."""
    if np.any(np.diag(a.a) != 0):
        raise InputError("matrix must have zero diagonal")
    z = gram_vectors(eigen_decompose(a))
    rounded = gaussian_sign_round(z, a, 100 * max(1, a.n.bit_length()), seed)
    return local_search_1flip(a, np.vstack([rounded.x, np.where(z.T < 0, -1.0, 1.0)]))
