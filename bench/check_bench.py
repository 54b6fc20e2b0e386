"""Tests of the benchmark itself, at test size.  From the repository root:

    python3 -m pytest -q bench/check_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# Spans each workload must produce; together they cover every wrapper.
EXERCISED = {
    "sparse3": {
        "cli.main", "hypergraph.load_hypergraph", "hypergraph.cut_size",
        "hypergraph.underlying_multigraph", "hypergraph.induced_sub",
        "hypergraph.degree_profile", "spectral.eigen_decompose",
        "rounding.best_bipartition", "rounding.gaussian_sign_round",
        "rounding.local_search_1flip", "solver.sample_and_reduce", "solver.solve_3cut",
        "solver.preprocess_heavy", "solver.kway_local_search", "solver.cut_eval",
        "oracle.brute_force_max_kcut",
    },
    "dense-chain": {
        "hypergraph.load_hypergraph", "hypergraph.underlying_multigraph",
        "solver.sample_and_reduce", "solver.solve_kcut", "solver.reduce_cut_up",
        "solver.kway_local_search", "solver.cut_eval", "spectral.eigen_decompose",
    },
    "studies": {
        "generators.gen_random_uniform", "generators.gen_random_linear_3graph",
        "experiments.colored_sampling_experiment", "experiments.surplus_scaling_study",
        "spectral.eigen_decompose", "oracle.brute_force_max_kcut",
    },
}


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """Every workload at test size, once untraced and once traced."""
    out = {}
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            work = tmp_path_factory.mktemp(f"{name}-{int(trace)}")
            out[name, trace] = run.measure(name, 3, 0.0, trace, work, small=True)
    return out


def test_metric_names_match_benchmark_json(results):
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        spec = {m["name"]: m["unit"] for m in SPEC[key]}
        for name in workloads.WORKLOADS:
            metrics = results[name, trace]["metrics"]
            assert {k: v["unit"] for k, v in metrics.items()} == spec, (name, key)


def test_every_output_passes_its_checks(results):
    for (name, trace), res in results.items():
        assert res["failed"] == 0, (name, trace, res["failures"])
        assert res["attempted"] >= 3 * res["info"]["ops_per_pass"]


def test_output_digest_agrees_traced_and_untraced(results):
    for name in workloads.WORKLOADS:
        assert results[name, False]["output_digest"] == results[name, True]["output_digest"]


def test_every_wrapper_fires_on_its_workload(results):
    covered = set()
    for name, expected in EXERCISED.items():
        seen = {span.split()[0] for span in results[name, True]["spans"]}
        assert expected <= seen, (name, expected - seen)
        covered |= expected
    assert covered == {t[2] for t in tracing.TARGETS} | {"cli.main"}


def test_tampered_report_is_a_failure(tmp_path):
    wl = workloads.build("sparse3", 3, tmp_path, small=True)
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    run.set_up(wl)
    op = wl.ops[0]
    _, check = run.run_pass(workloads.Workload("one", wl.instances, [op]))
    assert check.failures == []
    report = json.loads(op.out.read_text())
    assign = report["assignment"]
    for i, part in enumerate(assign):  # flip the first entry that moves the cut
        flipped = assign[:i] + [(part + 1) % op.k] + assign[i + 1:]
        if checks.ref_cut(op.inst.edges, flipped, op.k) != report["cut_value"]:
            break
    report["assignment"] = flipped
    op.out.write_text(json.dumps(report))
    tampered = checks.PassCheck()
    tampered.record(op, 0)
    assert len(tampered.failures) == 1 and "recomputes" in tampered.failures[0]
    failed_exit = checks.PassCheck()
    failed_exit.record(op, 2)
    assert failed_exit.failures and failed_exit.attempted == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sparse3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
