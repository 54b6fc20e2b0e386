"""Tests for the concentration experiment and the surplus scaling study."""

import math

import numpy as np
import pytest

from hypercut import (
    InputError,
    RECORD_COLUMNS,
    SCALING_COLUMNS,
    colored_pair_graph,
    colored_sampling_experiment,
    eigen_decompose,
    fit_loglog_slope,
    gen_random_3graph,
    records_to_csv,
    scaling_to_csv,
    surplus_scaling_study,
)
from hypercut.spectral import SymmetricMatrix


def _colored(n=20, p_edge=0.1, seed=0):
    return colored_pair_graph(gen_random_3graph(n, p_edge, seed))


class TestColoredSampling:
    def test_record_fields(self):
        g = _colored()
        recs = colored_sampling_experiment(g, 1.0 / 3.0, reps=4, seed=1)
        assert len(recs) == 4
        assert [r.rep for r in recs] == [0, 1, 2, 3]
        for r in recs:
            assert r.n == g.n and r.m == g.m
            assert r.max_degree == g.max_degree()
            assert r.color_degree_bound == g.max_color_degree()
            expected_t = 20.0 * math.log(g.m) * math.sqrt(
                g.max_degree() * g.max_color_degree()
            )
            assert r.threshold == pytest.approx(expected_t)
            assert r.passed == (r.norm_dev <= r.threshold)
            assert r.norm_dev <= r.energy_dev + 1e-9

    def test_reproducible(self):
        g = _colored()
        a = colored_sampling_experiment(g, 0.3, reps=3, seed=7)
        b = colored_sampling_experiment(g, 0.3, reps=3, seed=7)
        assert a == b

    def test_p_one_has_zero_deviation(self):
        # With p = 1 every color class is kept, so B = A exactly.
        recs = colored_sampling_experiment(_colored(), 1.0, reps=2, seed=0)
        for r in recs:
            assert r.norm_dev <= 1e-9
            assert r.energy_dev <= 1e-9
            assert r.passed

    def test_small_p_deviation_near_pa(self):
        # As p -> 0 almost every rep keeps nothing, so pA - B ~ pA and the
        # measured norm falls to p * ||A||.
        g = _colored()
        radius = eigen_decompose(SymmetricMatrix.from_colored(g)).spectral_radius
        recs = colored_sampling_experiment(g, 1e-6, reps=3, seed=5)
        for r in recs:
            assert r.norm_dev == pytest.approx(1e-6 * radius, rel=1e-6)

    def test_rejects_bad_parameters(self):
        g = _colored()
        with pytest.raises(InputError):
            colored_sampling_experiment(g, 0.0, reps=1, seed=0)
        with pytest.raises(InputError):
            colored_sampling_experiment(g, 1.5, reps=1, seed=0)
        with pytest.raises(InputError):
            colored_sampling_experiment(g, 0.3, reps=0, seed=0)

    def test_csv_shape(self):
        recs = colored_sampling_experiment(_colored(), 0.3, reps=5, seed=2)
        text = records_to_csv(recs)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(RECORD_COLUMNS)
        assert len(lines) == 6
        for line in lines[1:]:
            assert len(line.split(",")) == len(RECORD_COLUMNS)
        assert lines[1].split(",")[-1] in ("0", "1")


class TestScalingStudy:
    def test_rows_and_csv(self):
        rows = surplus_scaling_study([12, 18], reps=2, seed=3, trials=4)
        assert len(rows) == 4
        assert [r.n for r in rows] == [12, 12, 18, 18]
        for r in rows:
            assert r.surplus >= 0.0
            assert r.cut_value <= r.m
        text = scaling_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(SCALING_COLUMNS)
        assert len(lines) == 5

    def test_reproducible(self):
        a = surplus_scaling_study([14], reps=2, seed=9, trials=4)
        b = surplus_scaling_study([14], reps=2, seed=9, trials=4)
        assert a == b

    def test_empty_instance_row(self):
        # n = 3 with p = 1/3 draws zero edges for some seed; the row must be
        # recorded with zeros rather than crashing.
        for seed in range(20):
            rows = surplus_scaling_study([3], reps=1, seed=seed, trials=2)
            if rows[0].m == 0:
                assert rows[0].cut_value == 0 and rows[0].surplus == 0.0
                return
        pytest.fail("no empty draw found across 20 seeds")


class TestSlopeFit:
    def test_exact_power_law(self):
        pts = [(x, 3.5 * x**0.75) for x in (10.0, 20.0, 40.0, 80.0)]
        assert fit_loglog_slope(pts) == pytest.approx(0.75, abs=1e-9)

    @pytest.mark.parametrize(
        "pts", [[(0.0, 1.0), (2.0, 3.0)], [(1.0, 2.0), (2.0, -3.0)]]
    )
    def test_rejects_non_positive(self, pts):
        with pytest.raises(InputError):
            fit_loglog_slope(pts)

    def test_needs_two_points(self):
        with pytest.raises(InputError):
            fit_loglog_slope([(1.0, 1.0)])

    def test_noisy_recovery(self):
        rng = np.random.default_rng(0)
        pts = [
            (x, x**0.6 * math.exp(rng.normal(0, 0.01)))
            for x in np.linspace(10, 100, 20)
        ]
        assert fit_loglog_slope(pts) == pytest.approx(0.6, abs=0.05)
