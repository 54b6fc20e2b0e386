#!/usr/bin/env python3
"""hypercut benchmark: one closed-loop client calling ``hypercut.cli.main``
in-process on seeded workloads, with every output checked.

    python3 bench/run.py --workload sparse3 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1 --out FILE

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of traced passes (interleaved with untraced ones, which
give the tracing overhead).  ``--workload all`` runs each workload in its
own process, one after the other, and prints a table.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import os

# One BLAS thread, pinned before numpy is imported: the client is one
# single-threaded closed loop, and one thread keeps a 2-core host steady.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from checks import PassCheck  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 11
MIN_PASSES = 3

PER_LAYER_UNITS = dict(PER_LAYER)
END_TO_END = (
    ("pass_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("surplus_sum", "edges"),
    ("opt_ratio", "1"),
)


def env_stamp() -> dict:
    """Where the numbers came from.  The source line count is information,
    not a scored metric."""
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((SRC / "hypercut").glob("*.py"))
        ),
    }


def set_up(wl: workloads.Workload, speed: HostSpeed | None = None) -> float:
    """Import hypercut afresh and load every instance file once.  Returns the
    wall seconds, less the time ``speed`` spent sampling in between."""
    for name in [m for m in sys.modules if m == "hypercut" or m.startswith("hypercut.")]:
        del sys.modules[name]
    gc.collect()  # start each set-up from a clean heap, as a fresh process would
    sampled = speed.spent if speed else 0.0
    start = time.perf_counter()
    importlib.import_module("hypercut.cli")
    load = sys.modules["hypercut.hypergraph"].load_hypergraph
    for inst in wl.instances:
        load(inst.path)
    return time.perf_counter() - start - ((speed.spent - sampled) if speed else 0.0)


def run_pass(wl: workloads.Workload, tracer: Tracer | None = None,
             speed: HostSpeed | None = None) -> tuple[float, PassCheck]:
    """One pass over the operation list.  Returns the wall seconds spent in
    cli.main, less the time ``speed`` spent sampling in it, and the checks."""
    main = sys.modules["hypercut.cli"].main
    check = PassCheck()
    seconds = 0.0
    gc.collect()
    for op in wl.ops:
        op.out.unlink(missing_ok=True)
        sampled = speed.spent if speed else 0.0
        start = time.perf_counter()
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                if tracer is None:
                    code = main(list(op.argv))
                else:
                    with tracer.span("cli.main"):
                        code = main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed operation, not a crash
            code = f"uncaught {exc!r}"
        seconds += time.perf_counter() - start - ((speed.spent - sampled) if speed else 0.0)
        check.record(op, code)
    return seconds, check


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path,
            small: bool = False) -> dict:
    """Build, set up and run one workload in this process; return its results."""
    start = time.perf_counter()
    wl = workloads.build(name, seed, work, small)
    gen_s = time.perf_counter() - start
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    set_up(wl)  # warm-up: compiles bytecode, fills the file cache
    setup_raw = []
    with HostSpeed() as speed:
        for _ in range(SETUP_REPS):
            setup_raw.append(set_up(wl, speed))
            speed.sample()  # a set-up is short: sample between them as well
    setup_scale = speed.scale()
    origin = Path(sys.modules["hypercut"].__file__).resolve()
    if not origin.is_relative_to(SRC):
        raise RuntimeError(f"hypercut was imported from {origin}, not from {SRC}")

    tracer = Tracer() if trace else None
    plain, plain_raw, scales, units, traced, layers = [], [], [], [], [], []
    begin = time.perf_counter()
    # Warm-up pass: checked like every other, but not timed into the metrics.
    warm_s, check = run_pass(wl)
    checks = [check]
    while True:
        with HostSpeed() as speed:
            secs, check = run_pass(wl, speed=speed)
        plain_raw.append(secs)
        scales.append(speed.scale())
        units.append(speed.medians())
        plain.append(secs * scales[-1])
        checks.append(check)
        if tracer is not None:
            tracer.reset()
            tracer.install()
            start = time.perf_counter()
            try:
                with HostSpeed() as speed:
                    secs, check = run_pass(wl, tracer, speed)
            finally:
                tracer.remove()
            # Spans include the sampler's share of the pass; take it out and
            # turn span seconds into reference seconds like the pass's own.
            to_ref = speed.scale() * (1 - speed.spent / (time.perf_counter() - start))
            traced.append(secs * speed.scale())
            checks.append(check)
            layers.append({m: v * {"s": to_ref, "1/s": 1 / to_ref}.get(PER_LAYER_UNITS.get(m), 1)
                           for m, v in tracer.layer_metrics().items()})
        elapsed = time.perf_counter() - begin
        if len(checks) >= MIN_PASSES and elapsed * (1 + 1 / (len(plain) + 1)) > seconds:
            break

    digests = {c.output_digest for c in checks}
    failures = [f for c in checks for f in c.failures]
    if len(digests) > 1:
        failures.append(f"passes disagree on output_digest: {sorted(digests)}")
    first = checks[0]
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": env_stamp(),
        "output_digest": first.output_digest,
        "attempted": sum(c.attempted for c in checks),
        "failed": sum(len(c.failures) for c in checks) + (len(digests) > 1),
        "failures": failures[:20],
        "info": {
            "instance_gen_s": gen_s,
            "warm_up_pass_s": warm_s,
            "setup_wall_times_s": setup_raw,
            "setup_ref_scale": setup_scale,
            "pass_wall_times_s": plain_raw,
            "pass_ref_scales": scales,
            "pass_unit_medians_s": units,
            "ops_per_pass": len(wl.ops),
            "instances": {i.name: {"r": i.r, "n": i.n, "m": i.m, "distinct_edges": len(i.edges)}
                          for i in wl.instances},
        },
    }
    result["info"]["fail_frac"] = result["failed"] / result["attempted"]
    if tracer is None:
        values = {
            "pass_s": statistics.median(plain),
            "setup_s": statistics.median(setup_raw) * setup_scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "surplus_sum": float(first.surplus_sum),
            "opt_ratio": first.opt_ratio,
        }
        units = dict(END_TO_END)
    else:
        values = {m: statistics.median(pl[m] for pl in layers)
                  for m, _ in PER_LAYER if m in layers[0]}
        values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
        result["info"]["traced_pass_ref_s"] = traced
        # last traced pass: "name start end parent-index", seconds from the first pass
        result["spans"] = [f"{n} {s - begin:.6f} {e - begin:.6f} {p}"
                           for n, s, e, p in tracer.spans]
        units = PER_LAYER_UNITS
    result["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    return result


def print_result(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(f"output_digest {result['output_digest']}")
    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    print(f"fail_frac {result['info']['fail_frac']:.6g} 1")


def summary_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def run_all(args, work: Path) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    results = []
    work.mkdir(parents=True, exist_ok=True)
    for name in workloads.WORKLOADS:
        out = work / f"{name}.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0 or not out.is_file():
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        results.append(json.loads(out.read_text()))
    print(f"{'workload':<12} {'metric':<48} {'value':>14}  unit")
    for res in results:
        rows = dict(res["metrics"])
        rows["fail_frac"] = {"value": res["info"]["fail_frac"], "unit": "1"}
        for key, metric in rows.items():
            print(f"{res['workload']:<12} {key:<48} {metric['value']:>14.6g}  {metric['unit']}")
        print(f"{res['workload']:<12} {'output_digest':<48} {res['output_digest']}")
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": results}, indent=1) + "\n")
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full results, with the environment, here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "hypercut" / "__init__.py").is_file():
        print(f"error: no hypercut sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.workload == "all":
            return run_all(args, work)
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
        if args.out:
            Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
        print_result(result)
        print(summary_line(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
