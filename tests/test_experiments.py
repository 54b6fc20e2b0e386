"""Tests for the concentration experiment and the surplus scaling study."""

import math

import numpy as np
import pytest

from hypercut import (
    CapacityError,
    Hypergraph,
    InputError,
    RECORD_COLUMNS,
    SCALING_COLUMNS,
    ExperimentRecord,
    ScalingRow,
    colored_sampling_experiment,
    degree_profile,
    eigen_decompose,
    fit_loglog_slope,
    gen_complete,
    gen_random_3graph,
    records_to_csv,
    scaling_to_csv,
    surplus_scaling_study,
    underlying_multigraph,
)
from hypercut import experiments
from hypercut.spectral import SymmetricMatrix


def _graph(n=20, p_edge=0.1, seed=0):
    return gen_random_3graph(n, p_edge, seed)


def _fields(h):
    """(m, max_degree, color_degree_bound) of h's colored pair graph."""
    rec = colored_sampling_experiment(h, 1.0, reps=1, seed=0)[0]
    return rec.m, rec.max_degree, rec.color_degree_bound


class TestColoredPairGraph:
    """The colored pair graph the experiment samples: the pairs of every
    edge of a 3-graph, each colored by the edge's third vertex."""

    def test_single_edge(self):
        assert _fields(Hypergraph.from_edges(3, 3, [(0, 1, 2)])) == (3, 2, 1)

    def test_multiplicity(self):
        assert _fields(Hypergraph.from_edges(3, 3, [((0, 1, 2), 2)])) == (6, 4, 2)

    def test_shared_pair_two_colors(self):
        # Pair 01 once in color 2 and once in color 3; vertex 0 ends pairs
        # 01, 02 of the first edge and 01, 03 of the second, two in color 1.
        assert _fields(Hypergraph.from_edges(3, 4, [(0, 1, 2), (0, 1, 3)])) == (6, 4, 2)

    def test_needs_r3(self):
        for h in (gen_complete(2, 3), gen_complete(4, 5)):
            with pytest.raises(InputError):
                colored_sampling_experiment(h, 0.5, reps=1, seed=0)

    def test_color_degree_bounded_by_codegree(self):
        for seed in range(5):
            h = gen_random_3graph(10, 0.3, seed)
            if h.m == 0:
                continue
            assert _fields(h)[2] <= degree_profile(h).max_codegree


class TestColoredSampling:
    def test_record_fields(self):
        h = _graph()
        prof = degree_profile(h)
        recs = colored_sampling_experiment(h, 1.0 / 3.0, reps=4, seed=1)
        assert len(recs) == 4
        assert [r.rep for r in recs] == [0, 1, 2, 3]
        for r in recs:
            assert r.n == h.n and r.m == 3 * h.m
            assert r.max_degree == 2 * prof.max_degree
            assert r.color_degree_bound == prof.max_codegree
            expected_t = 20.0 * math.log(3 * h.m) * math.sqrt(
                2 * prof.max_degree * prof.max_codegree
            )
            assert r.threshold == pytest.approx(expected_t)
            assert r.passed == (r.norm_dev <= r.threshold)
            assert r.norm_dev <= r.energy_dev + 1e-9

    def test_reproducible(self):
        h = _graph()
        a = colored_sampling_experiment(h, 0.3, reps=3, seed=7)
        b = colored_sampling_experiment(h, 0.3, reps=3, seed=7)
        assert a == b

    def test_p_one_has_zero_deviation(self):
        # With p = 1 every color class is kept, so B = A exactly.
        recs = colored_sampling_experiment(_graph(), 1.0, reps=2, seed=0)
        for r in recs:
            assert r.norm_dev <= 1e-9
            assert r.energy_dev <= 1e-9
            assert r.passed

    def test_small_p_deviation_near_pa(self):
        # As p -> 0 almost every rep keeps nothing, so pA - B ~ pA and the
        # measured norm falls to p * ||A||, A the pair graph's adjacency.
        h = _graph()
        a = SymmetricMatrix.from_pair_graph(underlying_multigraph(h, 2))
        radius = eigen_decompose(a).spectral_radius
        recs = colored_sampling_experiment(h, 1e-6, reps=3, seed=5)
        for r in recs:
            assert r.norm_dev == pytest.approx(1e-6 * radius, rel=1e-6)

    def test_rejects_bad_parameters(self):
        h = _graph()
        with pytest.raises(InputError):
            colored_sampling_experiment(h, 0.0, reps=1, seed=0)
        with pytest.raises(InputError):
            colored_sampling_experiment(h, 1.5, reps=1, seed=0)
        with pytest.raises(InputError):
            colored_sampling_experiment(h, 0.3, reps=0, seed=0)
        with pytest.raises(InputError):
            colored_sampling_experiment(h, 0.5, reps=2.5, seed=0)

    @pytest.mark.parametrize("n", [10_001, 2**63 - 1])
    def test_refuses_more_vertices_than_the_solver_before_any_matrix(self, n):
        # the dense n x n matrices would take 800 MB each at n = 10^4; at
        # n = 2^63 - 1 the adjacency's cell count once overflowed
        with pytest.raises(CapacityError, match="capacity"):
            colored_sampling_experiment(Hypergraph(3, n, [[0, 1, 2]], [1]), 0.5, reps=1, seed=0)

    @pytest.mark.parametrize("seed", [1.5, -1])
    def test_rejects_a_seed_seedsequence_refuses(self, seed):
        with pytest.raises(InputError, match="seed"):
            colored_sampling_experiment(_graph(), 0.5, reps=2, seed=seed)

    def test_csv_shape(self):
        recs = colored_sampling_experiment(_graph(), 0.3, reps=5, seed=2)
        text = records_to_csv(recs)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(RECORD_COLUMNS)
        assert len(lines) == 6
        for line in lines[1:]:
            assert len(line.split(",")) == len(RECORD_COLUMNS)
        assert lines[1].split(",")[-1] in ("0", "1")

    def test_csv_text(self):
        rec = ExperimentRecord(0, 3, 3, 0.5, 2, 1, 0.25, 1.0, 0.0, True)
        assert records_to_csv([rec]).split("\n")[1:] == ["0,3,3,0.5,2,1,0.25,1.0,0.0,1", ""]
        row = ScalingRow(n=9, rep=1, m=4, cut_value=3, surplus=0.5)
        assert scaling_to_csv([row]) == "n,rep,m,cut_value,surplus\n9,1,4,3,0.5\n"


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

    @pytest.mark.parametrize("sizes, reps", [([], 1), ([0], 1), ([12, -5], 1), ([12], 0),
                                             ([12], 1.5)])
    def test_rejects_bad_parameters(self, sizes, reps):
        with pytest.raises(InputError):
            surplus_scaling_study(sizes, reps=reps, seed=0, trials=2)

    def test_rejects_negative_seed(self):
        with pytest.raises(InputError):
            surplus_scaling_study([12], reps=1, seed=-1, trials=2)

    def test_solves_through_solve_kcut(self, monkeypatch):
        calls = []
        real = experiments.solve_kcut

        def spy(h, k, plan):
            cut = real(h, k, plan)
            calls.append((h, k, cut))
            return cut

        monkeypatch.setattr(experiments, "solve_kcut", spy)
        rows = surplus_scaling_study([12, 18], reps=2, seed=3, trials=4)
        assert len(calls) == len(rows)
        for row, (h, k, cut) in zip(rows, calls):
            assert (k, h.n, h.m) == (3, row.n, row.m)
            assert (row.cut_value, row.surplus) == (cut.cut_value, float(cut.surplus))

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

    @pytest.mark.parametrize(
        "pts", [[(10.0, 5.0), (20.0, math.inf)], [(10.0, 5.0), (math.inf, 6.0)]]
    )
    def test_rejects_non_finite(self, pts):
        with pytest.raises(InputError):
            fit_loglog_slope(pts)

    def test_rejects_one_distinct_x(self):
        with pytest.raises(InputError):
            fit_loglog_slope([(10.0, 5.0), (10.0, 6.0)])

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
