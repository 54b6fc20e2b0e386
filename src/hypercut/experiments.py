"""Seeded measurement studies: colored-sampling concentration and surplus
scaling, with CSV emission for offline analysis."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .generators import gen_random_3graph
from .hypergraph import ColoredMultigraph
from .solver import SamplePlan, solve_3cut_auto
from .spectral import SymmetricMatrix, adjacency, eigen_decompose


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


RECORD_COLUMNS = (
    "rep",
    "n",
    "m",
    "p",
    "max_degree",
    "color_degree_bound",
    "norm_dev",
    "energy_dev",
    "threshold",
    "passed",
)


def colored_sampling_experiment(
    g: ColoredMultigraph,
    p: float,
    reps: int,
    seed: int,
) -> list[ExperimentRecord]:
    """Sample color classes with probability p and measure how far the sampled
    adjacency B strays from its expectation pA, against the concentration
    threshold t = 20 ln(m) sqrt(max_degree * color_degree_bound)."""
    if not (0.0 < p <= 1.0):
        raise InputError(f"probability must be in (0,1], got {p}")
    if reps < 1:
        raise InputError(f"reps must be >= 1, got {reps}")
    a = SymmetricMatrix.from_colored(g).a
    colors, color_of_edge = np.unique(g.edges[:, 2], return_inverse=True)
    delta = g.max_degree()
    dcol = g.max_color_degree()
    m = g.m
    threshold = 20.0 * math.log(m) * math.sqrt(delta * dcol) if m >= 1 else 0.0
    rng = np.random.default_rng(seed)
    records = []
    for rep in range(reps):
        chosen = (rng.random(len(colors)) < p)[color_of_edge]
        b = adjacency(g.n, g.edges[chosen, :2], g.mult[chosen])
        dev = p * a - b
        dec = eigen_decompose(SymmetricMatrix((dev + dev.T) / 2))
        norm_dev = dec.spectral_radius
        energy_dev = float(np.sum(np.abs(dec.eigenvalues)))
        records.append(
            ExperimentRecord(
                rep=rep,
                n=g.n,
                m=m,
                p=p,
                max_degree=delta,
                color_degree_bound=dcol,
                norm_dev=norm_dev,
                energy_dev=energy_dev,
                threshold=threshold,
                passed=norm_dev <= threshold,
            )
        )
    return records


def records_to_csv(records: list[ExperimentRecord]) -> str:
    lines = [",".join(RECORD_COLUMNS)]
    for rec in records:
        lines.append(
            ",".join(
                repr(getattr(rec, col)) if col not in ("passed",)
                else str(int(rec.passed))
                for col in RECORD_COLUMNS
            )
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ScalingRow:
    n: int
    rep: int
    m: int
    cut_value: int
    surplus: float


SCALING_COLUMNS = ("n", "rep", "m", "cut_value", "surplus")


def surplus_scaling_study(
    sizes: list[int],
    reps: int,
    seed: int,
    trials: int = 8,
) -> list[ScalingRow]:
    """For each n: draw a random 3-graph with p = 1/n, solve it, and record the
    achieved surplus.  ``trials`` is the solver's sampling budget per run;
    exponent fitting is left to post-processing (see fit_loglog_slope)."""
    rows: list[ScalingRow] = []
    ss = np.random.SeedSequence(seed)
    for n in sizes:
        for rep in range(reps):
            child = ss.spawn(1)[0]
            gen_seed, solve_seed = (
                int(x & (2**63 - 1)) for x in child.generate_state(2, dtype=np.uint64)
            )
            h = gen_random_3graph(n, 1.0 / n, gen_seed)
            if h.m == 0:
                rows.append(ScalingRow(n=n, rep=rep, m=0, cut_value=0, surplus=0.0))
                continue
            cut = solve_3cut_auto(h, SamplePlan(trials=trials, seed=solve_seed))
            rows.append(
                ScalingRow(
                    n=n,
                    rep=rep,
                    m=h.m,
                    cut_value=cut.cut_value,
                    surplus=float(cut.surplus),
                )
            )
    return rows


def scaling_to_csv(rows: list[ScalingRow]) -> str:
    lines = [",".join(SCALING_COLUMNS)]
    for row in rows:
        lines.append(",".join(repr(getattr(row, col)) for col in SCALING_COLUMNS))
    return "\n".join(lines) + "\n"


def fit_loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x); needs positive data."""
    if len(points) < 2:
        raise InputError("need at least two points to fit a slope")
    xy = np.array(points, dtype=float)
    if not np.all(xy > 0):
        raise InputError("log-log fit needs positive x and y")
    logs = np.log(xy)
    return float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0])
