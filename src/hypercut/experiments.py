"""Seeded measurement studies: colored-sampling concentration and surplus
scaling, with CSV emission for offline analysis."""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError, integer, reals
from .generators import gen_random_3graph
from .hypergraph import Hypergraph, degree_profile
from .solver import MAX_VERTICES, SamplePlan, child_seeds, solve_kcut
from .spectral import SymmetricMatrix, adjacency, eigen_decompose

# Largest number of repetitions a study runs; both keep every record in memory.
MAX_REPS = 10_000


@dataclass(frozen=True)
class ExperimentRecord:
    """One color-sampling trial: measured deviation of B from its mean pA."""

    rep: int
    n: int
    m: int
    p: float
    max_degree: int
    color_degree_bound: int
    norm_dev: float  # spectral norm of pA - B
    energy_dev: float  # energy of pA - B
    threshold: float  # 20 * ln(m) * sqrt(max_degree * color_degree_bound)
    passed: bool


RECORD_COLUMNS = tuple(f.name for f in dataclasses.fields(ExperimentRecord))


def colored_sampling_experiment(
    h: Hypergraph,
    p: float,
    reps: int,
    seed: int,
) -> list[ExperimentRecord]:
    """Color each pair of every edge of the 3-graph h by the edge's third
    vertex, sample color classes with probability p, and measure how far the
    sampled pair adjacency B strays from its expectation pA, against the
    concentration threshold t = 20 ln(m) sqrt(max_degree * color_degree_bound)
    of the colored pair multigraph, whose m is 3 * h.m.  It builds dense
    n x n matrices, so n is capped as the solver's is."""
    if h.r != 3:
        raise InputError(f"colored sampling needs r=3, got r={h.r}")
    if h.n == 0:
        raise InputError("colored sampling needs a 3-graph with at least one vertex")
    if h.n > MAX_VERTICES:
        raise CapacityError(f"{h.n} vertices exceed the experiment's capacity {MAX_VERTICES}")
    if not (0.0 < reals("p", p) <= 1.0):
        raise InputError(f"probability must be in (0,1], got {p}")
    reps, seed = integer("reps", reps, 1, MAX_REPS), integer("seed", seed)
    # (u, v, color) rows need no merge: each names its edge {u, v, color}.
    rows = h.edges[:, [[0, 1, 2], [0, 2, 1], [1, 2, 0]]].reshape(-1, 3)
    mult = np.repeat(h.mult, 3)
    a = adjacency(h.n, rows[:, :2], mult)
    colors, color_of_edge = np.unique(rows[:, 2], return_inverse=True)
    profile = degree_profile(h)
    delta = 2 * profile.max_degree  # v ends two of the three pairs of each of its edges
    dcol = profile.max_codegree  # v has one pair of color c per edge holding v and c
    m = 3 * h.m
    threshold = 20.0 * math.log(m) * math.sqrt(delta * dcol) if m >= 1 else 0.0
    rng = np.random.default_rng(seed)
    records = []
    for rep in range(reps):
        chosen = (rng.random(len(colors)) < p)[color_of_edge]
        b = adjacency(h.n, rows[chosen, :2], mult[chosen])
        dec = eigen_decompose(SymmetricMatrix(p * a - b))
        norm_dev = dec.spectral_radius
        records.append(
            ExperimentRecord(
                rep=rep,
                n=h.n,
                m=m,
                p=p,
                max_degree=delta,
                color_degree_bound=dcol,
                norm_dev=norm_dev,
                energy_dev=dec.energy,
                threshold=threshold,
                passed=norm_dev <= threshold,
            )
        )
    return records


def _to_csv(columns: tuple[str, ...], rows: list) -> str:
    """A header line, then one line per row: bools as 0/1, every other value
    by its repr."""
    lines = [",".join(columns)]
    for row in rows:
        values = (getattr(row, col) for col in columns)
        lines.append(",".join(str(int(v)) if isinstance(v, bool) else repr(v) for v in values))
    return "\n".join(lines) + "\n"


def records_to_csv(records: list[ExperimentRecord]) -> str:
    return _to_csv(RECORD_COLUMNS, records)


@dataclass(frozen=True)
class ScalingRow:
    n: int
    rep: int
    m: int
    cut_value: int
    surplus: float


SCALING_COLUMNS = tuple(f.name for f in dataclasses.fields(ScalingRow))


def surplus_scaling_study(
    sizes: list[int],
    reps: int,
    seed: int,
    trials: int = 8,
) -> list[ScalingRow]:
    """For each n: draw a random 3-graph with p = 1/n, solve it as
    ``hypercut solve --k 3`` does (solve_kcut), and record the achieved
    surplus.  ``trials`` is the solver's sampling budget per run; exponent
    fitting is left to post-processing (see fit_loglog_slope)."""
    sizes = [integer("sizes", n, 1) for n in sizes]
    if not sizes:
        raise InputError("sizes must be a nonempty list of integers >= 1")
    reps, seed = integer("reps", reps, 1, MAX_REPS), integer("seed", seed)
    rows: list[ScalingRow] = []
    for i, (n, rep) in enumerate(itertools.product(sizes, range(reps))):
        # the words of SeedSequence(seed)'s i-th spawned child
        gen_seed, solve_seed = child_seeds(seed, 2, spawn_key=(i,))
        h = gen_random_3graph(n, 1.0 / n, gen_seed)
        cut = solve_kcut(h, 3, SamplePlan(trials=trials, seed=solve_seed))
        rows.append(ScalingRow(n, rep, h.m, cut.cut_value, float(cut.surplus)))
    return rows


def scaling_to_csv(rows: list[ScalingRow]) -> str:
    return _to_csv(SCALING_COLUMNS, rows)


def fit_loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x).  Only a fit with a slope
    is answered: every x and y must be finite and positive, and the points
    must hold at least two distinct x values."""
    xy = reals("points", points).reshape(-1, 2)
    if not np.all(np.isfinite(xy) & (xy > 0)):
        raise InputError("log-log fit needs finite positive x and y")
    if len(np.unique(xy[:, 0])) < 2:
        raise InputError("need at least two distinct x values to fit a slope")
    logs = np.log(xy)
    return float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0])
