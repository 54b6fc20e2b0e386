"""The benchmark's tracer (``bench/tracing.py``) against the package: every
traced function must still exist under its name, with the arguments the
tracer's counters read, and must fire on a few tiny CLI runs."""

import importlib
import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_every_traced_span_fires(tmp_path, capsys):
    k5 = tmp_path / "k5.txt"
    k5.write_text("2 5\n" + "".join(f"{u} {v}\n" for u in range(5) for v in range(u + 1, 5)))
    g3, k4 = tmp_path / "g3.txt", tmp_path / "k4.txt"
    k4.write_text("4 6\n0 1 2 3\n0 1 2 4\n0 1 3 5\n0 2 4 5\n1 2 3 5\n1 3 4 5 2\n2 3 4 5\n")
    out = str(tmp_path / "out")
    runs = [
        ["gen", "--kind", "random3", "--n", "10", "--p", "0.4", "--seed", "1", "--out", str(g3)],
        ["gen", "--kind", "linear3", "--n", "12", "--m", "6", "--out", out],
        ["solve", "--file", str(k5), "--k", "2", "--trials", "2"],
        ["solve", "--file", str(g3), "--k", "3", "--trials", "2"],
        ["solve", "--file", str(k4), "--k", "4", "--trials", "2"],
        ["solve", "--file", str(g3), "--k", "3", "--oracle"],
        ["experiment", "--kind", "concentration", "--n", "12", "--edge-prob", "0.2",
         "--reps", "2", "--out", out],
        ["experiment", "--kind", "scaling", "--sizes", "9", "--reps", "1", "--trials", "2",
         "--out", out],
    ]
    tracer = tracing.Tracer()
    tracer.install()
    # Look main up only now: the Tracer patches the hypercut modules loaded
    # at install time, which the benchmark's set-up may have imported afresh.
    main = importlib.import_module("hypercut.cli").main
    try:
        for args in runs:
            assert main(args) == 0, args
    finally:
        tracer.remove()
    capsys.readouterr()
    fired = {span[0] for span in tracer.spans}
    assert {target[2] for target in tracing.TARGETS} <= fired
