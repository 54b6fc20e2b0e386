import itertools
import types
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercut import (
    Hypergraph,
    InputError,
    KCut,
    SamplePlan,
    SymmetricMatrix,
    brute_force_max_kcut,
    colored_sampling_experiment,
    cut_size,
    degree_profile,
    eigen_decompose,
    format_hypergraph,
    gaussian_sign_round,
    gen_complete,
    gen_random_linear_3graph,
    gen_random_uniform,
    induced_sub,
    parse_hypergraph,
    random_cut_coefficient,
    reduce_cut_up,
    sample_and_reduce,
    solve_kcut,
    stirling2,
    surplus_scaling_study,
    underlying_multigraph,
)
from hypercut import hypergraph
from hypercut.spectral import gram_vectors
from conftest import random_multigraph

TRIPLE = Hypergraph.from_edges(3, 3, [(0, 1, 2)])


small_hypergraphs = st.integers(0, 2**30).map(
    lambda seed: gen_random_uniform(3, 6, 0.5, seed)
)


class TestConstruction:
    def test_merges_equal_tuples(self):
        h = Hypergraph.from_edges(3, 4, [(0, 1, 2), (2, 1, 0), ((0, 1, 3), 2)])
        assert h.edges.tolist() == [[0, 1, 2], [0, 1, 3]]
        assert h.mult.tolist() == [2, 2]
        assert h.m == 4

    def test_rejects_repeated_vertex(self):
        with pytest.raises(InputError):
            Hypergraph.from_edges(3, 4, [(0, 0, 1)])

    def test_rejects_wrong_arity(self):
        with pytest.raises(InputError):
            Hypergraph.from_edges(3, 4, [(0, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Hypergraph.from_edges(3, 3, [(0, 1, 3)])

    def test_rejects_bad_multiplicity(self):
        with pytest.raises(InputError):
            Hypergraph.from_edges(3, 3, [((0, 1, 2), 0)])


class TestCoefficient:
    def test_paper_values(self):
        assert random_cut_coefficient(3, 3) == Fraction(2, 9)
        assert random_cut_coefficient(3, 2) == Fraction(3, 4)
        assert random_cut_coefficient(2, 2) == Fraction(1, 2)

    def test_stirling(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        assert stirling2(4, 3) == 6
        assert stirling2(5, 5) == 1

    def test_range_errors(self):
        with pytest.raises(InputError):
            random_cut_coefficient(3, 4)
        with pytest.raises(InputError):
            random_cut_coefficient(3, 1)


class TestCutSize:
    def test_single_edge_all_parts(self):
        assert cut_size(TRIPLE, [0, 1, 2], 3) == 1

    def test_single_edge_uncut(self):
        assert cut_size(TRIPLE, [0, 0, 0], 3) == 0

    def test_k4_bipartition(self):
        k4 = gen_complete(2, 4)
        assert cut_size(k4, [0, 0, 1, 1], 2) == 4

    @pytest.mark.parametrize(
        "assignment", [[0, 1], 5, [[0, 1, 2]]], ids=["short", "scalar", "2-d"]
    )
    def test_length_mismatch(self, assignment):
        with pytest.raises(InputError):
            cut_size(TRIPLE, assignment, 3)

    def test_part_out_of_range(self):
        with pytest.raises(InputError):
            cut_size(TRIPLE, [0, 1, 3], 3)

    def test_integer_part_ids_are_cast_whole(self):
        """An integer or bool array is not converted entry by entry."""
        with mock.patch.object(hypergraph, "operator") as op:
            op.index.side_effect = AssertionError("per-entry conversion")
            for parts in ([0, 1, 2], np.array([0, 1, 2], dtype=np.uint8), (True, False, True)):
                assert cut_size(TRIPLE, parts, 3) == (parts[2] == 2)

    def test_mixed_multiplicities(self):
        h = Hypergraph.from_edges(3, 4, [((0, 1, 2), 3), (0, 1, 3), ((0, 2, 3), 2), (1, 2, 3)])
        assert cut_size(h, [0, 1, 2, 0], 3) == 3 + 1  # (0, 1, 2) and (1, 2, 3)

    @settings(max_examples=30, deadline=None)
    @given(small_hypergraphs, st.integers(0, 2**30), st.integers(2, 3))
    def test_bounds(self, h, seed, k):
        assignment = np.random.default_rng(seed).integers(0, k, size=h.n)
        assert 0 <= cut_size(h, assignment.tolist(), k) <= h.m


# Each reader of part ids, with the one-edge 3-graph: k = 3, or the 2-cut
# that reduce_cut_up lifts to a 3-cut.
PART_ID_READERS = {
    "cut_size": lambda parts: cut_size(TRIPLE, parts, 3),
    "KCut.from_assignment": lambda parts: KCut.from_assignment(TRIPLE, parts, 3),
    "reduce_cut_up": lambda parts: reduce_cut_up(TRIPLE, parts, SamplePlan(5, 0)),
}


@pytest.mark.parametrize("read", PART_ID_READERS.values(), ids=PART_ID_READERS.keys())
@pytest.mark.parametrize(
    "parts",
    [[0.5, 1.2, 1.9], [0.0, 1.0, 1.0], np.array([0.0, 1.0, 1.0]), ["0", "1", "1"], [0, 1, 2**70]],
    ids=["fractions", "integral-floats", "float-array", "strings", "past-int64"],
)
def test_non_integer_part_ids_are_refused(read, parts):
    """A part id that is not an integer is refused, not truncated: the
    fractions would read as the valid [0, 1, 1]."""
    with pytest.raises(InputError, match="part ids must be integers"):
        read(parts)


@pytest.mark.parametrize("read", PART_ID_READERS.values(), ids=PART_ID_READERS.keys())
def test_integer_part_ids_keep_the_range_check(read):
    read([0, 1, 1])
    with pytest.raises(InputError, match="leave the range"):
        read([0, 1, 5])


class TestSurplus:
    def test_single_edge_cut(self):
        cut = KCut.from_assignment(TRIPLE, [0, 1, 2], 3)
        assert cut.surplus == Fraction(7, 9)

    def test_empty_hypergraph(self):
        empty = Hypergraph.from_edges(3, 5, [])
        cut = KCut.from_assignment(empty, [0, 1, 2, 0, 1], 3)
        assert cut.surplus == 0

    def test_k5_max_bipartition(self):
        k5 = gen_complete(2, 5)
        best = brute_force_max_kcut(k5, 2)
        assert best.cut_value == 6
        assert KCut.from_assignment(k5, best.assignment, 2).surplus == 1


class TestUnderlyingMultigraph:
    def test_single_edge(self):
        g = underlying_multigraph(TRIPLE, 2)
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert g.mult.tolist() == [1, 1, 1]

    def test_multiplicity_passthrough(self):
        h = Hypergraph.from_edges(3, 3, [((0, 1, 2), 2)])
        g = underlying_multigraph(h, 2)
        assert g.mult.tolist() == [2, 2, 2]

    def test_complete_3graph_on_4(self):
        g = underlying_multigraph(gen_complete(3, 4), 2)
        assert len(g.edges) == 6
        assert (g.mult == 2).all()

    def test_q_out_of_range(self):
        with pytest.raises(InputError):
            underlying_multigraph(TRIPLE, 3)

    @settings(max_examples=25, deadline=None)
    @given(small_hypergraphs)
    def test_edge_count_identity(self, h):
        assert underlying_multigraph(h, 2).m == 3 * h.m


class TestDegreeProfile:
    def test_single_edge(self):
        prof = degree_profile(TRIPLE)
        assert (prof.max_degree, prof.max_codegree) == (1, 1)

    def test_complete_3graph_on_5(self):
        prof = degree_profile(gen_complete(3, 5))
        assert prof.max_degree == 6
        assert prof.max_codegree == 3

    def test_linear_has_codegree_1(self):
        h, _ = gen_random_linear_3graph(9, 8, seed=4)
        if h.m:
            assert degree_profile(h).max_codegree == 1


class TestInducedSub:
    def test_keeps_full_edge(self):
        sub, ids = induced_sub(TRIPLE, {0, 1, 2})
        assert sub == TRIPLE
        assert ids == (0, 1, 2)

    def test_drops_partial_edge(self):
        sub, _ = induced_sub(TRIPLE, {0, 1})
        assert sub.m == 0

    def test_complete_stays_complete(self):
        sub, _ = induced_sub(gen_complete(3, 5), {0, 2, 3, 4})
        assert sub == gen_complete(3, 4)

    def test_out_of_range(self):
        with pytest.raises(InputError):
            induced_sub(TRIPLE, {0, 5})


@pytest.mark.parametrize("ids", [[0.5], [1.7], [0, 2.0]], ids=["0.5", "1.7", "2.0"])
@pytest.mark.parametrize(
    "take", [induced_sub, sample_and_reduce], ids=["induced_sub", "sample_and_reduce"]
)
def test_non_integer_vertex_ids_refused(take, ids):
    with pytest.raises(InputError):
        take(TRIPLE, ids)


def test_star_import_binds_no_module():
    names: dict = {}
    exec("from hypercut import *", names)
    assert [n for n, v in names.items() if isinstance(v, types.ModuleType)] == []


class TestTextFormat:
    def test_round_trip(self):
        h = Hypergraph.from_edges(3, 5, [((0, 1, 2), 2), (1, 3, 4)])
        assert parse_hypergraph(format_hypergraph(h)) == h

    def test_comments_and_default_mult(self):
        text = "# a comment\n3 4\n0 1 2  # inline\n0 1 3 2\n"
        h = parse_hypergraph(text)
        assert h.edges.tolist() == [[0, 1, 2], [0, 1, 3]]
        assert h.mult.tolist() == [1, 2]

    def test_parse_error_names_line(self):
        with pytest.raises(InputError, match="line 3"):
            parse_hypergraph("3 4\n0 1 2\n0 1\n")

    def test_empty_input(self):
        with pytest.raises(InputError):
            parse_hypergraph("# nothing\n")

    @settings(max_examples=25, deadline=None)
    @given(small_hypergraphs)
    def test_round_trip_random(self, h):
        assert parse_hypergraph(format_hypergraph(h)) == h


class TestAveragingIdentity:
    @pytest.mark.parametrize("r,k", [(3, 2), (3, 3), (2, 2)])
    def test_mean_cut_equals_coefficient(self, r, k):
        h = gen_random_uniform(r, 5, 0.6, seed=r * 10 + k)
        total = sum(
            cut_size(h, assign, k)
            for assign in itertools.product(range(k), repeat=h.n)
        )
        assert Fraction(total, k**h.n) == random_cut_coefficient(r, k) * h.m


class TestSurplusAdditivity:
    def test_disjoint_parts_lower_bound(self):
        # surplus of the whole is at least the sum over disjoint induced parts
        for seed in range(5):
            g = random_multigraph(9, seed=seed)
            whole = brute_force_max_kcut(g, 2).surplus
            parts = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
            total = 0
            for part in parts:
                sub, _ = induced_sub(g, part)
                if sub.m:
                    total += brute_force_max_kcut(sub, 2).surplus
            assert whole >= total


class TestUnderlyingCutIdentity:
    def test_each_cut_edge_has_two_cut_subsets(self):
        # a 4-edge meeting all 3 parts has exactly two cut triples, and uncut
        # edges contribute none, so the underlying count is exactly doubled
        for seed in range(4):
            h = gen_random_uniform(4, 6, 0.4, seed=seed)
            sub = underlying_multigraph(h, 3)
            for assign in itertools.product(range(3), repeat=h.n):
                assert cut_size(sub, assign, 3) == 2 * cut_size(h, assign, 3)


# Every public integer parameter, read by errors.integer: (its name, its
# floor, a value it takes, and a call with the value in its place).
_H3 = gen_random_uniform(3, 6, 0.5, 0)
_K4 = SymmetricMatrix.from_pair_graph(gen_complete(2, 4))
_Z = gram_vectors(eigen_decompose(_K4))
INTEGER_PARAMETERS = [
    ("r", 2, 3, lambda v: Hypergraph(v, 4, [[0, 1, 2]], [1])),
    ("n", 0, 4, lambda v: Hypergraph(3, v, [], [])),
    ("trials", 1, 2, lambda v: SamplePlan(v, 0)),
    ("seed", 0, 1, lambda v: SamplePlan(2, v)),
    ("k", 2, 3, lambda v: solve_kcut(_H3, v, SamplePlan(2, 0))),
    ("k", 2, 3, lambda v: brute_force_max_kcut(_H3, v)),
    ("k", 1, 3, lambda v: KCut.from_assignment(_H3, [0, 1, 2] * 2, v)),
    ("k", 1, 3, lambda v: cut_size(_H3, [0, 1, 2] * 2, v)),
    ("r", 0, 5, lambda v: stirling2(v, 3)),
    ("k", 0, 3, lambda v: stirling2(5, v)),
    ("r", 3, 4, lambda v: random_cut_coefficient(v, 3)),
    ("k", 2, 3, lambda v: random_cut_coefficient(4, v)),
    ("q", 2, 3, lambda v: underlying_multigraph(gen_complete(4, 5), v)),
    ("r", 2, 3, lambda v: gen_random_uniform(v, 10, 0.1, 0)),
    ("n", 0, 10, lambda v: gen_random_uniform(3, v, 0.1, 0)),
    ("seed", 0, 1, lambda v: gen_random_uniform(3, 10, 0.1, v)),
    ("n", 0, 10, lambda v: gen_random_linear_3graph(v, 0, 0)),
    ("target_m", 0, 5, lambda v: gen_random_linear_3graph(10, v, 0)),
    ("seed", 0, 1, lambda v: gen_random_linear_3graph(10, 5, v)),
    ("r", 2, 3, lambda v: gen_complete(v, 5)),
    ("n", 0, 5, lambda v: gen_complete(3, v)),
    ("reps", 1, 2, lambda v: colored_sampling_experiment(_H3, 0.5, v, 0)),
    ("seed", 0, 1, lambda v: colored_sampling_experiment(_H3, 0.5, 2, v)),
    ("sizes", 1, 9, lambda v: surplus_scaling_study([v], 1, 0, 1)),
    ("reps", 1, 2, lambda v: surplus_scaling_study([9], v, 0, 1)),
    ("seed", 0, 1, lambda v: surplus_scaling_study([9], 1, v, 1)),
    ("trials", 1, 2, lambda v: surplus_scaling_study([9], 1, 0, v)),
    ("trials", 1, 2, lambda v: gaussian_sign_round(_Z, _K4, v, 0)),
    ("seed", 0, 1, lambda v: gaussian_sign_round(_Z, _K4, 2, v)),
]
_ROW_IDS = [f"{i}-{row[0]}" for i, row in enumerate(INTEGER_PARAMETERS)]


@pytest.mark.parametrize("name, floor, good, call", INTEGER_PARAMETERS, ids=_ROW_IDS)
@pytest.mark.parametrize("bad", [2.5, 3.0, "below the floor"])
def test_integer_parameters_refuse_floats_and_values_below_their_floor(
    name, floor, good, call, bad
):
    with pytest.raises(InputError, match=rf"\b{name}\b"):
        call(floor - 1 if bad == "below the floor" else bad)


@pytest.mark.parametrize("name, floor, good, call", INTEGER_PARAMETERS, ids=_ROW_IDS)
def test_integer_parameters_take_numpy_integers(name, floor, good, call):
    assert call(np.int64(good)) == call(good)


def test_numpy_integers_are_stored_as_python_ints():
    h = Hypergraph(np.int64(3), np.int64(4), [[0, 1, 2]], [1])
    plan = SamplePlan(np.int64(2), np.uint8(1))
    cut = KCut.from_assignment(h, [0, 1, 2, 0], np.int32(3))
    assert {type(x) for x in (h.r, h.n, plan.trials, plan.seed, cut.k)} == {int}
    # np.int64 arithmetic wraps: S(40, 20) once came out as 2
    assert stirling2(np.int64(40), 20) == 162_188_909_527_975_750_487_887_236_507_181


def test_format_writes_the_vertex_count_as_an_int():
    with pytest.raises(InputError, match="n must be an integer"):
        Hypergraph(3, 10.0, [[0, 1, 2]], [1])  # once stored, and written as "3 10.0"
    assert format_hypergraph(Hypergraph(3, True, [], [])) == "3 1\n"
