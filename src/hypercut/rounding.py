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

from .errors import InputError, integer
from .spectral import SymmetricMatrix, eigen_decompose, gram_vectors


@dataclass(frozen=True)
class BipartitionResult:
    x: tuple[int, ...]  # signs in {-1, +1}
    value: float  # quadratic surplus of x
    flips: int


def _signs(p: np.ndarray) -> np.ndarray:
    """``p``, overwritten in place: +1.0 where p >= 0, an exact zero of
    either sign included, and -1.0 where p < 0.  The mask is cast and mapped
    by arithmetic: a select on a data-dependent mask branches per cell and
    costs several times as much, and in place no (trials, n) array is
    allocated beside the product."""
    np.less(p, 0.0, out=p)
    p *= -2.0
    p += 1.0
    return p


def gaussian_sign_round(
    z: np.ndarray, a: SymmetricMatrix, trials: int, seed
) -> BipartitionResult:
    """Best of ``trials`` Gaussian hyperplane roundings, deterministic in
    ``seed``: an int, or a ``numpy.random.Generator`` drawn from directly.
    An exact-zero inner product (a zero row of z included) gives sign +1."""
    trials = integer("trials", trials, 1)
    if len(z) != a.n:
        raise InputError(f"dimension mismatch: {len(z)} vectors for a {a.n}x{a.n} matrix")
    if not isinstance(seed, np.random.Generator):
        seed = integer("seed", seed)
    rng = np.random.default_rng(seed)
    signs = _signs(rng.standard_normal((trials, z.shape[1])) @ z.T)
    values = -0.25 * np.einsum("ti,ti->t", signs @ a.a, signs)
    best = int(np.argmax(values))
    return BipartitionResult(
        x=tuple(int(s) for s in signs[best]),
        value=float(values[best]),
        flips=0,
    )


def local_search_1flip_groups(groups) -> list[BipartitionResult]:
    """``local_search_1flip(a, x)`` of each (a, x) pair in ``groups``, all
    starts of all groups in one lockstep, so that the groups together pay
    the largest round count among them instead of the sum.

    The matrices are zero-padded to the largest n and their rows stacked,
    and each start reads the rows of its own group's block.  A padded
    coordinate has x = +1 and A x = 0, so it is never an improving flip.
    Each group's first A x and its values are the very products that a
    search of the group alone takes, on its unpadded rows, and its result
    is picked from its own starts, so it equals the search of the group
    alone, bit for bit, also for a non-integer matrix.
    """
    mats, stacks = [], []
    for a, x in groups:
        xs = np.atleast_2d(np.asarray(x, dtype=float))
        if xs.shape[1:] != (a.n,) or not np.all(np.abs(xs) == 1):
            raise InputError("x must be +-1 vectors matching the matrix dimension")
        if len(xs) == 0:
            raise InputError("need at least one start")
        mats.append(a.a)
        stacks.append(xs)
    if not mats:
        return []
    width = max(len(m) for m in mats)
    sizes = [len(s) for s in stacks]
    ends = np.cumsum(sizes).tolist()
    xs = np.ones((ends[-1], width))
    ax = np.zeros_like(xs)
    for m, s, hi in zip(mats, stacks, ends):
        xs[hi - len(s):hi, :len(m)] = s
        ax[hi - len(s):hi, :len(m)] = s @ m  # row t is A x_t: A is symmetric
    if len(mats) == 1:  # nothing to pad
        rows = mats[0]
    else:
        rows = np.zeros((len(mats), width, width))
        for g, m in enumerate(mats):
            rows[g, :len(m), :len(m)] = m
        rows = rows.reshape(-1, width)
    block = np.repeat(np.arange(len(mats)) * width, sizes)  # each start's first row
    flips = np.zeros(len(xs), dtype=np.int64)
    cursor = np.zeros((len(xs), 1), dtype=np.intp)
    live = np.arange(len(xs))  # the starts that may still have a flip
    col = np.arange(width)
    while len(live):
        improving = xs[live] * ax[live] > 0
        ahead = improving & (col >= cursor[live])
        v = np.where(ahead.any(axis=1), ahead.argmax(axis=1), improving.argmax(axis=1))
        moved = improving.any(axis=1)
        live, v = live[moved], v[moved]
        flipped = -xs[live, v]
        xs[live, v] = flipped
        # row v of A is column v: SymmetricMatrix is exactly symmetric
        ax[live] += (2.0 * flipped)[:, None] * rows[block[live] + v]
        flips[live] += 1
        cursor[live, 0] = v + 1
    results = []
    for m, s, hi in zip(mats, stacks, ends):
        lo, n = hi - len(s), len(m)
        values = -0.25 * np.einsum("ti,ti->t", xs[lo:hi, :n], ax[lo:hi, :n])
        cand = xs[lo:hi, :n].tolist()
        best = min(range(len(cand)), key=lambda t: (-values[t], cand[t]))
        results.append(BipartitionResult(
            x=tuple(map(int, cand[best])), value=float(values[best]), flips=int(flips[lo + best])
        ))
    return results


def local_search_1flip(a: SymmetricMatrix, x) -> BipartitionResult:
    """First-improvement single-sign flips in cyclic vertex order, from one
    start ``x`` of shape (n,) or from each row of a stack (s, n); the best
    result, ties to the lexicographically smallest x, with its own flips.
    It is the one-group case of ``local_search_1flip_groups``.

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
    return local_search_1flip_groups([(a, x)])[0]


def bipartition_starts(a: SymmetricMatrix, seed=0) -> np.ndarray:
    """The (1 + d, n) float stack of best_bipartition's 1-flip starts: the
    best of 100 * ceil(log2(n + 1)) Gaussian roundings (``seed`` goes to
    gaussian_sign_round), then the sign pattern of each of the d negative
    eigenvectors, zeros to +1."""
    if np.any(np.diag(a.a) != 0):
        raise InputError("matrix must have zero diagonal")
    z = gram_vectors(eigen_decompose(a))
    rounded = gaussian_sign_round(z, a, 100 * max(1, a.n.bit_length()), seed)
    return np.vstack([rounded.x, _signs(z.T.copy())])


def best_bipartition(a: SymmetricMatrix, seed=0) -> BipartitionResult:
    """Best 2-cut found by 1-flip local search from ``bipartition_starts``:
    the best Gaussian rounding and each negative eigenvector's sign pattern.
    The 3-cut solver builds the same starts for each sampled trial and
    searches the trials' stacks together, by ``local_search_1flip_groups``."""
    return local_search_1flip(a, bipartition_starts(a, seed))
