"""Command-line front end: generate, solve, brute-force, and experiment,
with one seed governing all randomness and machine-readable reports."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .errors import CapacityError, InputError, NumericError
from .experiments import (
    colored_sampling_experiment,
    records_to_csv,
    scaling_to_csv,
    surplus_scaling_study,
)
from .generators import (
    gen_complete,
    gen_random_3graph,
    gen_random_linear_3graph,
)
from .hypergraph import (
    KCut,
    dump_hypergraph,
    load_hypergraph,
    random_cut_coefficient,
)
from .oracle import brute_force_max_kcut
from .solver import SamplePlan, child_seeds, solve_kcut


def _report_dict(command: str, data: bytes, seed: int, params: dict, cut: KCut) -> dict:
    report = {
        "command": command,
        "input_digest": hashlib.sha256(data).hexdigest(),
        "seed": seed,
        "parameters": params,
        "assignment": list(cut.assignment),
        "cut_value": cut.cut_value,
        "surplus": str(cut.surplus),
        "surplus_float": float(cut.surplus),
        "notes": list(cut.notes),
    }
    body = json.dumps(report, sort_keys=True, separators=(",", ":"))
    report["digest"] = hashlib.sha256(body.encode()).hexdigest()
    return report


def _write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _cmd_solve(args) -> int:
    with open(args.file, "rb") as fh:  # read once: a pipe gives its bytes only once
        data = fh.read()
    h = load_hypergraph(data)
    k = args.k
    start = time.perf_counter()
    if args.oracle:
        cut = brute_force_max_kcut(h, k)
    else:
        cut = solve_kcut(h, k, SamplePlan(trials=args.trials, seed=args.seed))
    wall = time.perf_counter() - start
    params = {"k": k, "trials": args.trials, "oracle": bool(args.oracle)}
    report = _report_dict("solve", data, args.seed, params, cut)
    if 2 <= k <= h.r:
        report["coefficient"] = str(random_cut_coefficient(h.r, k))
    report["wall_time_s"] = wall
    if args.report:
        _write_report(report, args.report)
    print(
        f"solve {args.file}: r={h.r} n={h.n} m={h.m} k={k} "
        f"cut={cut.cut_value} surplus={cut.surplus} ({float(cut.surplus):.4f})"
    )
    for note in cut.notes:
        print(f"note: {note}")
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "random3":
        if args.p is None:
            raise InputError("gen random3 needs --p")
        h = gen_random_3graph(args.n, args.p, args.seed)
    elif args.kind == "linear3":
        if args.m is None:
            raise InputError("gen linear3 needs --m")
        h, shortfall = gen_random_linear_3graph(args.n, args.m, args.seed)
        if shortfall:
            print(f"warning: packed only {h.m} of {args.m} requested edges")
    else:
        h = gen_complete(args.r, args.n)
    dump_hypergraph(h, args.out)
    print(f"gen {args.kind}: wrote r={h.r} n={h.n} m={h.m} to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    if args.kind == "concentration":
        gen_seed, samp_seed = child_seeds(args.seed, 2)
        h = gen_random_3graph(args.n, args.edge_prob, gen_seed)
        records = colored_sampling_experiment(h, args.p, args.reps, samp_seed)
        csv = records_to_csv(records)
        rate = sum(rec.passed for rec in records) / len(records)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
        print(
            f"experiment concentration: n={args.n} m={records[0].m} p={args.p} "
            f"reps={args.reps} pass_rate={rate:.3f} -> {args.out}"
        )
    else:
        try:
            sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
        except ValueError:
            raise InputError(
                f"--sizes must be comma-separated integers, got {args.sizes!r}"
            ) from None
        rows = surplus_scaling_study(
            sizes, reps=args.reps, seed=args.seed, trials=args.trials
        )
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(scaling_to_csv(rows))
        print(f"experiment scaling: {len(rows)} rows -> {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercut",
        description="Large k-cuts of r-uniform multi-hypergraphs via spectral "
        "surplus machinery, with generators, an exhaustive oracle, and "
        "concentration experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a max-k-cut instance from a file")
    p_solve.add_argument("--file", required=True)
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument("--trials", type=int, default=30, help=(
        "sampled 3-cut trials of the direct and the heavy-pair core solve, and draws per lift "
        "up the k-cut chain; k = 2, a baseline-only k and --oracle ignore it"))
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--oracle", action="store_true", help="exhaustive scan")
    p_solve.add_argument("--report", help="write a JSON report to this path")
    p_solve.set_defaults(func=_cmd_solve)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("--kind", required=True, choices=["random3", "linear3", "complete"])
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", type=float, help="edge probability (random3)")
    p_gen.add_argument("--m", type=int, help="target edge count (linear3)")
    p_gen.add_argument("--r", type=int, default=3, help="uniformity (complete)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_exp = sub.add_parser("experiment", help="run a measurement study")
    p_exp.add_argument("--kind", required=True, choices=["concentration", "scaling"])
    p_exp.add_argument("--n", type=int, default=40)
    p_exp.add_argument("--edge-prob", type=float, default=0.02)
    p_exp.add_argument("--p", type=float, default=1.0 / 3.0)
    p_exp.add_argument("--reps", type=int, default=100)
    p_exp.add_argument("--sizes", default="40,80,160")
    p_exp.add_argument("--trials", type=int, default=8, help=(
        "scaling: the solve --k 3 --trials of each instance; concentration ignores it"))
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--out", required=True)
    p_exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise InputError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
