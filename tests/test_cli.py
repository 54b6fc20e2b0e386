"""In-process tests of the command-line interface."""

import json
import time

import numpy as np
import pytest

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
        code, stdout, _ = run(
            ["solve", "--file", str(path), "--k", "5", "--trials", "6"],
            capsys,
        )
        assert code == 0
        assert "baseline-only" in stdout

    def test_parse_error_exit_2_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 5\n0 1 2\n0 1 bogus\n")
        code, _, err = run(["solve", "--file", str(bad), "--k", "3"], capsys)
        assert code == 2
        assert "line 3" in err

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
        ["experiment", "--kind", "concentration", "--n", "3000"],
    ],
)
def test_generator_size_cap_exit_3_fast(tmp_path, capsys, args):
    start = time.perf_counter()
    code, _, err = run([*args, "--out", str(tmp_path / "out")], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "capacity" in err


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
