"""Acceptance suite: one test per shipped guarantee, each printing a single
PASS line with the measured quantity (run with ``pytest -s`` to see them).

Every threshold here is part of the package contract; the unit-test modules
cover the same machinery in finer detail.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from hypercut import (
    SamplePlan,
    SymmetricMatrix,
    best_bipartition,
    brute_force_max_kcut,
    colored_sampling_experiment,
    cut_size,
    eigen_decompose,
    energy,
    fit_loglog_slope,
    gen_complete,
    gen_random_3graph,
    gen_random_uniform,
    random_cut_coefficient,
    sample_and_reduce,
    sdp_energy_bound,
    solve_3cut_auto,
    surplus_scaling_study,
    underlying_multigraph,
)
from conftest import random_multigraph, random_symmetric
from reference import edwards_bound


def _report(label: str, ok: bool, detail: str, start: float, cap: float) -> None:
    elapsed = time.perf_counter() - start
    status = "PASS" if ok and elapsed < cap else "FAIL"
    print(f"{status} {label}: {detail} ({elapsed:.1f}s < {cap:.0f}s)")
    assert ok, f"{label}: {detail}"
    assert elapsed < cap, f"{label}: took {elapsed:.1f}s, cap {cap:.0f}s"


def test_01_edwards_tightness_on_odd_complete_graphs():
    start = time.perf_counter()
    ok = True
    values = []
    for n in (3, 5, 7, 9):
        h = gen_complete(2, n)
        opt = brute_force_max_kcut(h, 2)
        exact = Fraction(h.m, 2) + edwards_bound(h.m)
        ok &= Fraction(opt.cut_value) == exact
        a = SymmetricMatrix.from_pair_graph(h)
        bp = best_bipartition(a, seed=0)
        found = cut_size(h, [0 if s > 0 else 1 for s in bp.x], 2)
        ok &= found == opt.cut_value
        values.append((n, opt.cut_value))
    _report(
        "criterion 1 (surplus bound tight on odd complete graphs)",
        ok,
        f"mc(K_n) = m/2 + (sqrt(8m+1)-1)/8 and rounding matches: {values}",
        start,
        5.0,
    )


def test_02_energy_certificate_identity():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        n = 4 + seed % 29  # n ranges over [4, 32]
        a = random_symmetric(n, seed, trace_free=True)
        gap = abs(sdp_energy_bound(a) - energy(a) / 4.0)
        worst = max(worst, gap / n)
    _report(
        "criterion 2 (negative-eigenspace certificate attains E/4)",
        worst <= 1e-8,
        f"max |<X,A> term - E/4| / n = {worst:.2e} over 50 trace-free matrices",
        start,
        10.0,
    )


def test_03_energy_additivity():
    start = time.perf_counter()
    worst = -math.inf
    for seed in range(100):
        n = 4 + seed % 45  # n ranges over [4, 48]
        a = random_symmetric(n, 2 * seed)
        b = random_symmetric(n, 2 * seed + 1)
        both = SymmetricMatrix(a.a + b.a)
        worst = max(worst, energy(both) - 4.0 * (energy(a) + energy(b)))
    _report(
        "criterion 3 (E(A+B) <= 4(E(A)+E(B)))",
        worst <= 1e-8,
        f"max violation {worst:.2e} over 100 random pairs",
        start,
        30.0,
    )


def test_04_weyl_and_interlacing():
    start = time.perf_counter()
    worst = -math.inf
    for seed in range(100):
        n = 3 + seed % 14
        a = random_symmetric(n, 500 + 2 * seed)
        b = random_symmetric(n, 501 + 2 * seed)
        la = eigen_decompose(a).eigenvalues
        lb = eigen_decompose(b).eigenvalues
        lab = eigen_decompose(SymmetricMatrix(a.a + b.a)).eigenvalues
        worst = max(worst, float(np.max(lab - (la + lb[0]))))
        worst = max(worst, float(np.max((la + lb[-1]) - lab)))
        # Cauchy interlacing for the leading principal (n-1)-submatrix.
        mu = eigen_decompose(SymmetricMatrix(a.a[:-1, :-1])).eigenvalues
        worst = max(worst, float(np.max(mu - la[:-1])))
        worst = max(worst, float(np.max(la[1:] - mu)))
    _report(
        "criterion 4 (Weyl bounds and Cauchy interlacing)",
        worst <= 1e-8,
        f"max violation {worst:.2e} over 100 seeded instances each",
        start,
        30.0,
    )


def test_05_oracle_equivalence():
    start = time.perf_counter()
    hits2 = 0
    nonneg = True
    for seed in range(100):
        n = 4 + seed % 5  # n ranges over [4, 8]
        h = random_multigraph(n, 1000 + seed)
        opt = brute_force_max_kcut(h, 2).cut_value
        a = SymmetricMatrix.from_pair_graph(h)
        bp = best_bipartition(a, seed=seed)
        found = cut_size(h, [0 if s > 0 else 1 for s in bp.x], 2)
        hits2 += found == opt
        nonneg &= Fraction(found) - random_cut_coefficient(2, 2) * h.m >= 0
    hits3 = 0
    for seed in range(50):
        n = 5 + seed % 4  # n ranges over [5, 8]
        h = gen_random_3graph(n, 0.5, 2000 + seed)
        opt = brute_force_max_kcut(h, 3).cut_value
        cut = solve_3cut_auto(h, SamplePlan(trials=30, seed=seed))
        hits3 += cut.cut_value == opt
        nonneg &= cut.surplus >= 0
    rate = (hits2 + hits3) / 150.0
    _report(
        "criterion 5 (solver matches the exhaustive optimum)",
        rate >= 0.9 and nonneg,
        f"k=2: {hits2}/100 optimal, k=3: {hits3}/50 optimal, "
        f"surplus >= 0 in all {150} runs (overall rate {rate:.2f})",
        start,
        120.0,
    )


def test_06_sampling_reduction_identity():
    start = time.perf_counter()
    checked = 0
    ok = True
    for seed in range(20):
        n = 5 + seed % 3  # n ranges over [5, 7]
        h = gen_random_3graph(n, 0.5, 3000 + seed)
        for assign in itertools.product(range(3), repeat=n):
            x = [v for v in range(n) if assign[v] == 0]
            red = sample_and_reduce(h, x)
            # Rest vertices carry labels in {1, 2}; shift to {0, 1} so the
            # pair cut of the collapsed graph is an ordinary 2-cut.
            pair_cut = cut_size(
                red.pair_graph, [assign[v] - 1 for v in red.rest], 2
            )
            ok &= pair_cut == cut_size(h, assign, 3)
            checked += 1
    _report(
        "criterion 6 (one-sampled-vertex collapse preserves cut counts)",
        ok,
        f"e_H(X,Y,Z) = e_G*(Y,Z) for all {checked} (graph, partition) pairs",
        start,
        60.0,
    )


def test_07_shadow_cut_identity():
    start = time.perf_counter()
    checked = 0
    ok = True
    for seed in range(10):
        n = 5 + seed % 3  # n ranges over [5, 7]
        h = gen_random_uniform(4, n, 0.5, 4000 + seed)
        shadow = underlying_multigraph(h, 3)
        for assign in itertools.product(range(3), repeat=n):
            # When a 4-edge meets all 3 parts, exactly one part holds two of
            # its vertices, so exactly two of its four 3-subsets are cut:
            # e_shadow = 2 * e_H for every partition (not the reverse).
            ok &= cut_size(shadow, assign, 3) == 2 * cut_size(h, assign, 3)
            checked += 1
    _report(
        "criterion 7 (3-uniform shadow doubles the cut count)",
        ok,
        f"e_shadow = 2 * e_H over all {checked} (graph, partition) pairs",
        start,
        60.0,
    )


def test_08_concentration_frequency():
    start = time.perf_counter()
    h = gen_random_3graph(40, 0.02, 0)
    records = colored_sampling_experiment(h, 1.0 / 3.0, reps=100, seed=1)
    rate = sum(rec.passed for rec in records) / len(records)
    _report(
        "criterion 8 (sampled-color deviation stays under 20 ln(m) sqrt(D*Dc))",
        rate >= 0.99,
        f"pass rate {rate:.2f} over 100 reps (m={records[0].m})",
        start,
        120.0,
    )


def test_09_averaging_identity():
    start = time.perf_counter()
    ok = True
    for seed in range(10):
        n = 5 + seed % 3  # n ranges over [5, 7]
        h = gen_random_3graph(n, 0.5, 5000 + seed)
        for k in (2, 3):
            total = sum(
                cut_size(h, assign, k)
                for assign in itertools.product(range(k), repeat=n)
            )
            mean = Fraction(total, k**n)
            ok &= mean == random_cut_coefficient(3, k) * h.m
    _report(
        "criterion 9 (mean cut over all assignments = S(r,k)k!/k^r * m)",
        ok,
        "exact rational equality on 10 instances, k in {2, 3}",
        start,
        60.0,
    )


def test_10_surplus_scaling_band():
    start = time.perf_counter()
    rows = surplus_scaling_study([40, 80, 160], reps=5, seed=0, trials=6)
    points = []
    for n in (40, 80, 160):
        group = [r for r in rows if r.n == n]
        points.append(
            (
                float(np.mean([r.m for r in group])),
                float(np.mean([r.surplus for r in group])),
            )
        )
    slope = fit_loglog_slope(points)
    big = [r for r in rows if r.n == 160]
    margin = min(r.surplus - math.sqrt(r.m) for r in big)
    _report(
        "criterion 10 (surplus grows like m^a with a in [0.5, 0.85])",
        0.5 <= slope <= 0.85 and margin > 0,
        f"fitted slope {slope:.2f}; n=160 surplus beats sqrt(m) by >= "
        f"{margin:.1f} in all 5 reps",
        start,
        600.0,
    )
