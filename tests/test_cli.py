"""In-process tests of the command-line interface."""

import hashlib
import json
import math
import os
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypercut import degree_profile, load_hypergraph
from hypercut.cli import main


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_random3(self, tmp_path, capsys):
        out = tmp_path / "h.txt"
        code, stdout, _ = run(
            ["gen", "--kind", "random3", "--n", "12", "--p", "0.3",
             "--seed", "4", "--out", str(out)],
            capsys,
        )
        assert code == 0
        h = load_hypergraph(str(out))
        assert h.r == 3 and h.n == 12
        assert f"m={h.m}" in stdout

    def test_linear3_codegree(self, tmp_path, capsys):
        out = tmp_path / "lin.txt"
        code, _, _ = run(
            ["gen", "--kind", "linear3", "--n", "15", "--m", "8",
             "--seed", "1", "--out", str(out)],
            capsys,
        )
        assert code == 0
        h = load_hypergraph(str(out))
        assert degree_profile(h).max_codegree <= 1

    def test_complete(self, tmp_path, capsys):
        out = tmp_path / "k5.txt"
        code, _, _ = run(
            ["gen", "--kind", "complete", "--r", "2", "--n", "5",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert load_hypergraph(str(out)).m == 10

    def test_missing_parameter_is_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            ["gen", "--kind", "random3", "--n", "12",
             "--out", str(tmp_path / "x.txt")],
            capsys,
        )
        assert code == 2
        assert "--p" in err


class TestSolve:
    def test_gen_solve_oracle_round_trip(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        run(
            ["gen", "--kind", "random3", "--n", "7", "--p", "0.4",
             "--seed", "2", "--out", str(path)],
            capsys,
        )
        rep_solver = tmp_path / "solver.json"
        rep_oracle = tmp_path / "oracle.json"
        code, _, _ = run(
            ["solve", "--file", str(path), "--k", "3", "--trials", "20",
             "--seed", "0", "--report", str(rep_solver)],
            capsys,
        )
        assert code == 0
        code, _, _ = run(
            ["solve", "--file", str(path), "--k", "3", "--oracle",
             "--report", str(rep_oracle)],
            capsys,
        )
        assert code == 0
        solver = json.loads(rep_solver.read_text())
        oracle = json.loads(rep_oracle.read_text())
        assert solver["cut_value"] <= oracle["cut_value"]
        assert solver["surplus_float"] >= 0.0
        assert oracle["parameters"]["oracle"] is True
        assert solver["input_digest"] == oracle["input_digest"]
        assert solver["coefficient"] == "2/9"

    def test_pair_graph_solve(self, tmp_path, capsys):
        path = tmp_path / "k5.txt"
        run(
            ["gen", "--kind", "complete", "--r", "2", "--n", "5",
             "--out", str(path)],
            capsys,
        )
        rep = tmp_path / "r.json"
        code, stdout, _ = run(
            ["solve", "--file", str(path), "--k", "2", "--report", str(rep)],
            capsys,
        )
        assert code == 0
        # [DERIVED] mc(K_5) = 6, surplus 1.
        assert "cut=6" in stdout
        report = json.loads(rep.read_text())
        assert report["surplus"] == "1"

    def test_report_deterministic_except_wall_time(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        run(
            ["gen", "--kind", "random3", "--n", "10", "--p", "0.3",
             "--seed", "5", "--out", str(path)],
            capsys,
        )
        reports = []
        for name in ("a.json", "b.json"):
            rep = tmp_path / name
            run(
                ["solve", "--file", str(path), "--k", "3", "--trials", "10",
                 "--seed", "3", "--report", str(rep)],
                capsys,
            )
            data = json.loads(rep.read_text())
            data.pop("wall_time_s")
            reports.append(data)
        assert reports[0] == reports[1]
        assert reports[0]["seed"] == 3

    def test_out_of_range_k_notes(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        run(
            ["gen", "--kind", "random3", "--n", "8", "--p", "0.4",
             "--seed", "0", "--out", str(path)],
            capsys,
        )
        rep = tmp_path / "rep.json"
        # k > r = 3, up to one past int64: the all-zero cut, and no draw
        for k in ("5", "100000000000000000000"):
            code, stdout, _ = run(
                ["solve", "--file", str(path), "--k", k, "--trials", "6",
                 "--report", str(rep)],
                capsys,
            )
            assert code == 0
            assert "baseline-only" in stdout
            assert json.loads(rep.read_text())["assignment"] == [0] * 8

    def test_parse_error_exit_2_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 5\n0 1 2\n0 1 bogus\n")
        code, _, err = run(["solve", "--file", str(bad), "--k", "3"], capsys)
        assert code == 2
        assert "line 3" in err

    def test_piped_input_digest(self, tmp_path, capsys):
        # the report hashes the bytes that were parsed, also when the input
        # is a pipe that gives its bytes only once
        data = b"3 4\n0 1 2\n1 2 3 2\n"
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, data)
            os.close(write_end)
            rep = tmp_path / "r.json"
            code, _, _ = run(
                ["solve", "--file", f"/dev/fd/{read_end}", "--k", "3", "--report", str(rep)],
                capsys,
            )
        finally:
            os.close(read_end)
        assert code == 0
        report = json.loads(rep.read_text())
        assert report["input_digest"] == hashlib.sha256(data).hexdigest()
        assert report["cut_value"] == 3

    def test_report_into_missing_directory_prints_nothing(self, tmp_path, capsys):
        # the report is written before the summary: no success line, then exit 2
        path = tmp_path / "a.hg"
        path.write_text("3 4\n0 1 2\n1 2 3 2\n")
        rep = tmp_path / "missing" / "r.json"
        code, stdout, err = run(
            ["solve", "--file", str(path), "--k", "3", "--report", str(rep)], capsys
        )
        assert code == 2
        assert stdout == ""
        assert "input error" in err

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"3 3\n0 1 2\xff\n")
        code, _, err = run(["solve", "--file", str(bad), "--k", "3"], capsys)
        assert code == 2
        assert "input error" in err and "UTF-8" in err

    def test_one_trial_k_equals_r_surplus_nonnegative(self, tmp_path, capsys):
        # the one trial and the one random draw left the edge uncut, and no
        # single move cuts it: this printed cut=0 surplus=-4/9 until the
        # polished conditional-expectation cut became a candidate
        path = tmp_path / "h.txt"
        path.write_text("3 3\n0 1 2 2\n")
        code, stdout, _ = run(
            ["solve", "--file", str(path), "--k", "3", "--trials", "1", "--seed", "947"],
            capsys,
        )
        assert code == 0
        assert "cut=2 surplus=14/9" in stdout

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            ["solve", "--file", str(tmp_path / "nope.txt"), "--k", "3"],
            capsys,
        )
        assert code == 2
        assert "input error" in err

    def test_capacity_exit_3(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        run(
            ["gen", "--kind", "complete", "--r", "2", "--n", "30",
             "--out", str(path)],
            capsys,
        )
        code, _, err = run(
            ["solve", "--file", str(path), "--k", "2", "--oracle"],
            capsys,
        )
        assert code == 3
        assert "capacity" in err

    def test_numeric_error_exit_3(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "k5.txt"
        run(
            ["gen", "--kind", "complete", "--r", "2", "--n", "5",
             "--out", str(path)],
            capsys,
        )

        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        code, _, err = run(["solve", "--file", str(path), "--k", "2"], capsys)
        assert code == 3
        assert "numeric error" in err

    @pytest.mark.parametrize("extra", [[], ["--oracle"]])
    def test_huge_vertex_count_exit_3_fast(self, tmp_path, capsys, extra):
        path = tmp_path / "huge.txt"
        path.write_text("3 100000000000\n0 1 2\n")
        start = time.perf_counter()
        code, _, err = run(
            ["solve", "--file", str(path), "--k", "3", *extra], capsys
        )
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "capacity" in err


@pytest.mark.parametrize(
    "header", ["3000000000 5", "9223372036854775807 5", "99999999999999999999999 5"]
)
@pytest.mark.parametrize("extra", [[], ["--oracle"]])
def test_huge_uniformity_exit_3_fast(tmp_path, capsys, header, extra):
    path = tmp_path / "huge.txt"
    path.write_text(header + "\n")
    start = time.perf_counter()
    code, _, err = run(["solve", "--file", str(path), "--k", "3", *extra], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "capacity" in err


def test_largest_uniformity_reports_exact_values(tmp_path, capsys):
    # r = 1000, k = r: the coefficient's 1000^1000 denominator still prints
    path = tmp_path / "wide.txt"
    path.write_text("1000 5\n")
    report = tmp_path / "r.json"
    code, _, _ = run(
        ["solve", "--file", str(path), "--k", "1000", "--report", str(report)], capsys
    )
    assert code == 0
    coefficient = Fraction(json.loads(report.read_text())["coefficient"])
    assert coefficient == Fraction(math.factorial(1000), 1000**1000)  # S(r, r) = 1


def run_small(args, capsys):
    """Run ``main`` and return (exit code, stderr, peak traced bytes)."""
    tracemalloc.start()
    try:
        code, _, err = run(args, capsys)
        return code, err, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "text, k",
    [
        # one edge of 40 vertices: the chain would hold C(40, j) rows at level j
        ("40 40\n" + " ".join(map(str, range(40))) + "\n", "40"),
        ("40 40\n" + " ".join(map(str, range(40))) + "\n", "39"),
        # 2^50 edges: level 3 would hold 6 * 5 * 4 * 2^50 > 2^53
        ("6 6\n0 1 2 3 4 5 1125899906842624\n", "6"),
        # level 3 fits, but its pair graph holds 12 * 750599937895083 > 2^53
        ("4 4\n0 1 2 3 750599937895083\n", "4"),
        # m = 2^52 fits, but the 3-graph's pair graph holds 3m > 2^53
        ("3 3\n0 1 2 4503599627370496\n", "2"),
        ("3 3\n0 1 2 4503599627370496\n", "3"),
    ],
)
def test_long_chain_exit_3_fast(tmp_path, capsys, text, k):
    path = tmp_path / "wide.txt"
    path.write_text(text)
    start = time.perf_counter()
    code, err, peak = run_small(["solve", "--file", str(path), "--k", k], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "capacity" in err
    assert peak < 5 * 2**20


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--file", "h.txt", "--k", "3"],
        ["experiment", "--kind", "scaling", "--out", "s.csv"],
    ],
)
def test_huge_trials_exit_3_fast(tmp_path, capsys, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h.txt").write_text("3 3\n0 1 2\n")
    start = time.perf_counter()
    code, err, peak = run_small([*args, "--trials", "1000000000000"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "capacity" in err
    assert peak < 5 * 2**20
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["experiment", "--kind", "concentration", "--n", "20", "--out", "s.csv"],
        ["experiment", "--kind", "scaling", "--sizes", "9", "--trials", "2", "--out", "s.csv"],
    ],
)
def test_huge_reps_exit_3_fast(tmp_path, capsys, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code, err, peak = run_small([*args, "--reps", "1000000000000"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "capacity" in err
    assert peak < 5 * 2**20
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize(
    "text",
    [
        "3 3\n0 1 2 9223372036854775808\n",  # does not fit in int64
        "3 3\n0 1 2 9223372036854775807\n0 1 2 5\n",  # the merge would wrap
        "3 4\n0 1 2 9007199254740992\n0 1 3\n",  # m = 2^53 + 1
    ],
)
@pytest.mark.parametrize("extra", [["--k", "2"], ["--k", "3"], ["--k", "3", "--oracle"]])
def test_oversized_multiplicity_exit_2(tmp_path, capsys, text, extra):
    path = tmp_path / "big.txt"
    path.write_text(text)
    start = time.perf_counter()
    code, _, err = run(["solve", "--file", str(path), *extra], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize(
    "args",
    [
        ["gen", "--kind", "random3", "--n", "3000", "--p", "0.001"],
        ["gen", "--kind", "complete", "--r", "3", "--n", "3000"],
        # C(n, r) would take ~2^63 steps: r is checked against 1,000 first
        ["gen", "--kind", "complete", "--r", str(2**63), "--n", str(10**20)],
        # C(n, r) has ~14,000 digits, more than Python prints of an int
        ["gen", "--kind", "complete", "--r", "845", "--n", str(2**63 - 1)],
        ["experiment", "--kind", "concentration", "--n", "3000"],
    ],
)
def test_generator_size_cap_exit_3_fast(tmp_path, capsys, args):
    start = time.perf_counter()
    code, _, err = run([*args, "--out", str(tmp_path / "out")], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "capacity" in err


@pytest.mark.parametrize(
    "args",
    [
        # C(1000, 998) = 499,500 edges fit the cap, their 998 * 499,500 ids do not
        ["gen", "--kind", "complete", "--r", "998", "--n", "1000"],
        # C(843, 3) = 99,491,141 draws fit the cap, the 3 * C(843, 3) ids at p = 1 do not
        ["gen", "--kind", "random3", "--n", "843", "--p", "1"],
        # 10^9 triples fit the pair-packing bound n(n-1)/6, their 3 * 10^9 ids do not
        ["gen", "--kind", "linear3", "--n", "100000", "--m", "1000000000"],
    ],
)
def test_generator_id_cap_exit_3_fast(tmp_path, capsys, args):
    start = time.perf_counter()
    code, err, peak = run_small([*args, "--out", str(tmp_path / "out")], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "capacity" in err
    assert peak < 5 * 2**20
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("m, code", [("1", 2), ("0", 0)])
def test_linear3_vertex_count_past_int64(tmp_path, capsys, m, code):
    """Vertex ids are int64: a target needs n < 2^63, an empty graph does not."""
    out = tmp_path / "lin.txt"
    got, _, err = run(
        ["gen", "--kind", "linear3", "--n", "100000000000000000000", "--m", m,
         "--out", str(out)],
        capsys,
    )
    assert got == code
    assert ("int64" in err) == (code == 2)
    assert out.exists() == (code == 0)


# Tokens a file may hold in place of a small count: past int64, at its edges,
# past 2^53, negative, and not integers at all.
FUZZ_TOKENS = [
    "99999999999999999999", "9223372036854775807", "-9223372036854775809",
    "4503599627370496", "1000000", "-1", "-7", "x", "1.5", "0x10", "+2",
]


@st.composite
def instance_texts(draw):
    """Headers with r <= 5 and n <= 9 and up to 12 edge lines of r distinct
    vertices with an optional multiplicity 1-3; in half the texts, also
    headers and lines of 0 to r + 2 fields that are ids up to n (one past
    the last vertex) or odd tokens.  Returns (text, r)."""
    r, n = draw(st.integers(0, 5)), draw(st.integers(0, 9))
    ids = [str(v) for v in range(max(n, r))]
    good = st.tuples(
        st.permutations(ids).map(lambda p: p[:r]),
        st.lists(st.integers(1, 3).map(str), max_size=1),
    ).map(lambda t: t[0] + t[1])
    header, line = [str(r), str(n)], good
    if draw(st.booleans()):
        token = st.integers(0, n).map(str) | st.sampled_from(FUZZ_TOKENS)
        header = draw(st.just(header) | st.lists(st.sampled_from(header) | token, max_size=3))
        odd = st.integers(0, r + 2).flatmap(lambda c: st.lists(token, min_size=c, max_size=c))
        line = good | good | odd | st.tuples(good, token).map(lambda t: t[0][:r] + [t[1]])
    lines = draw(st.lists(line, max_size=12))
    return "\n".join(" ".join(fields) for fields in [header, *lines]) + "\n", r


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(instance_texts(), st.data(), st.booleans())
def test_solve_exit_code_fuzz(tmp_path, capsys, instance, data, oracle):
    text, r = instance
    k = data.draw(st.integers(2, 6) | st.sampled_from([r + 1, 2**64]), label="k")
    path = tmp_path / "fuzz.txt"
    path.write_text(text)
    args = ["solve", "--file", str(path), "--k", str(k), "--trials", "1"]
    code, _, _ = run(args + ["--oracle"] * oracle, capsys)
    assert code in (0, 2, 3)


def fuzz_ints(small, past_cap=(845, 33_333_334, 10_001, 1_001)):
    """An int argument, from one of four classes drawn alike: ``small``, just
    past a cap (by default C(n, 3) > 10^8 at n = 845, 3m > 10^8 ids, 10,000
    reps or trials, r > 1,000), at or past the int64 limit, or negative."""
    return st.one_of(
        small,
        st.sampled_from(past_cap),
        st.sampled_from([2**63 - 1, 2**63, 10**20]),
        st.sampled_from([-1, -(2**63) - 1]),
    )


def fuzz_probs():
    return (st.floats(0, 1) | st.sampled_from([1.0000001, -0.1, 2.0, float("nan"), 1e300])).map(repr)


@st.composite
def gen_args(draw):
    """``gen`` arguments whose accepted cases stay light: complete graphs on
    at most 12 vertices, linear targets of at most 40 triples."""
    kind = draw(st.sampled_from(["random3", "linear3", "complete"]))
    n_small = st.integers(0, 12 if kind == "complete" else 40)
    return ["gen", "--kind", kind,
            "--n", str(draw(fuzz_ints(n_small))),
            "--m", str(draw(fuzz_ints(st.integers(0, 40)))),
            "--p", draw(fuzz_probs()),
            "--r", str(draw(fuzz_ints(st.integers(0, 12)))),
            "--seed", str(draw(fuzz_ints(st.integers(0, 40))))]


@st.composite
def experiment_args(draw):
    """``experiment`` arguments whose accepted cases stay light: at most two
    sizes, at most 3 reps and 3 trials."""
    sizes = draw(st.lists(fuzz_ints(st.integers(1, 40)), min_size=1, max_size=2))
    return ["experiment", "--kind", draw(st.sampled_from(["concentration", "scaling"])),
            "--n", str(draw(fuzz_ints(st.integers(0, 40)))),
            "--p", draw(fuzz_probs()),
            "--reps", str(draw(fuzz_ints(st.integers(1, 3), past_cap=[10_001]))),
            "--sizes=" + ",".join(map(str, sizes)),
            "--trials", str(draw(fuzz_ints(st.integers(1, 3), past_cap=[10_001]))),
            "--seed", str(draw(fuzz_ints(st.integers(0, 40))))]


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(gen_args())
def test_gen_exit_code_fuzz(tmp_path, capsys, args):
    code, _, _ = run([*args, "--out", str(tmp_path / "out")], capsys)
    assert code in (0, 2, 3)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(experiment_args())
def test_experiment_exit_code_fuzz(tmp_path, capsys, args):
    code, _, _ = run([*args, "--out", str(tmp_path / "out")], capsys)
    assert code in (0, 2, 3)


def test_negative_uniformity_exit_2(tmp_path, capsys):
    code, _, err = run(
        ["gen", "--kind", "complete", "--r", "-1", "--n", "4", "--out", str(tmp_path / "g")],
        capsys,
    )
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--file", "h.txt", "--k", "3"],
        ["gen", "--kind", "complete", "--n", "4", "--out", "g.txt"],
        ["experiment", "--kind", "scaling", "--sizes", "6", "--reps", "1",
         "--out", "s.csv"],
    ],
)
def test_negative_seed_exit_2(tmp_path, capsys, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h.txt").write_text("3 3\n0 1 2\n")
    code, _, err = run([*args, "--seed", "-1"], capsys)
    assert code == 2
    assert "--seed" in err


class TestExperiment:
    def test_concentration_csv(self, tmp_path, capsys):
        out = tmp_path / "conc.csv"
        code, stdout, _ = run(
            ["experiment", "--kind", "concentration", "--n", "20",
             "--edge-prob", "0.05", "--reps", "5", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "pass_rate=" in stdout
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 6

    def test_concentration_without_vertices_exit_2(self, tmp_path, capsys):
        out = tmp_path / "conc.csv"
        code, _, err = run(
            ["experiment", "--kind", "concentration", "--n", "0", "--out", str(out)], capsys
        )
        assert code == 2
        assert "at least one vertex" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [["--sizes", "abc"], ["--sizes", "0"], ["--sizes", "-5"], ["--sizes", ","],
         ["--sizes", "6", "--reps", "0"]],
    )
    def test_scaling_bad_input_exit_2(self, tmp_path, capsys, args):
        out = tmp_path / "scale.csv"
        code, _, err = run(["experiment", "--kind", "scaling", *args, "--out", str(out)], capsys)
        assert code == 2
        assert "input error" in err
        assert not out.exists()

    def test_scaling_csv(self, tmp_path, capsys):
        out = tmp_path / "scale.csv"
        code, _, _ = run(
            ["experiment", "--kind", "scaling", "--sizes", "12,18",
             "--reps", "2", "--trials", "4", "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,rep,m,cut_value,surplus"
        assert len(lines) == 5
