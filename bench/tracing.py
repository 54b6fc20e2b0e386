"""Per-layer tracing from outside the program.

The tracer replaces public functions of the ``hypercut`` modules with timing
wrappers.  The package binds names with ``from .x import y``, so each
wrapper is installed under every module that holds the original object, not
only where it is defined.  Spans (name, start, end, parent) are kept in
memory and turned into per-layer metrics when a pass ends.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_CANDIDATES = ("gaussian", "random")  # best_bipartition's candidate order; the rest are eigvec


def _count_load(tr, idx, a, h):
    tr.add("hypergraph.load_hypergraph.edges", len(h.edges))


def _count_gen(tr, idx, a, h):
    tr.add("generators.gen_random_uniform.kept", len(h.edges))
    tr.add("generators.gen_random_uniform.candidates", math.comb(a["n"], a["r"]))


def _count_eigen(tr, idx, a, dec):
    n = a["a"].n
    tr.add("spectral.eigen_decompose.dim_sum", n)
    tr.add("spectral.eigen_decompose.n3_sum", n**3)
    tr.add("spectral.eigen_decompose.neg_eigs", int(tr.negative_mask(dec).sum()))
    key = "spectral.eigen_decompose.max_residual"
    tr.counters[key] = max(tr.counters[key], dec.residual)


def _count_gauss(tr, idx, a, res):
    tr.add("rounding.gaussian_sign_round.trials_sum", a["trials"])


def _count_flip(tr, idx, a, res):
    tr.add("rounding.local_search_1flip.flips_sum", res.flips)
    tr.flip_results[tr.spans[idx][3]].append(res.x)


def _count_winner(tr, idx, a, res):
    cands = tr.flip_results.pop(idx, [])
    if res.x in cands:
        i = cands.index(res.x)
        tr.add(f"rounding.win.{_CANDIDATES[i] if i < len(_CANDIDATES) else 'eigvec'}", 1)


def _count_collapse(tr, idx, a, red):
    tr.add("solver.sample_and_reduce.pairs_out", red.pair_graph.m)
    tr.add("solver.sample_and_reduce.edges_in", a["h"].m)


def _count_kept(tr, idx, a, res):
    tr.add("solver.preprocess_heavy.kept", len(res[0]))
    tr.add("solver.preprocess_heavy.vertices", a["h"].n)


def _count_oracle(tr, idx, a, cut):
    h, k = a["h"], a["k"]
    assignments = k ** (h.n - 1) if h.n else 1
    tr.add("oracle.brute_force_max_kcut.assignments", assignments)
    tr.add("oracle.brute_force_max_kcut.assign_edges", assignments * len(h.edges))


def _count_reps(tr, idx, a, records):
    tr.add("experiments.colored_sampling_experiment.reps", a["reps"])


# (defining module, attribute, span name, counter).  A dotted attribute is a
# method; "_CutEvaluator" is the solver's only cut-evaluation and k-way
# search boundary.
TARGETS = (
    ("hypercut.hypergraph", "load_hypergraph", "hypergraph.load_hypergraph", _count_load),
    ("hypercut.hypergraph", "cut_size", "hypergraph.cut_size", None),
    ("hypercut.hypergraph", "underlying_multigraph", "hypergraph.underlying_multigraph", None),
    ("hypercut.hypergraph", "induced_sub", "hypergraph.induced_sub", None),
    ("hypercut.hypergraph", "degree_profile", "hypergraph.degree_profile", None),
    ("hypercut.generators", "gen_random_uniform", "generators.gen_random_uniform", _count_gen),
    ("hypercut.generators", "gen_random_linear_3graph", "generators.gen_random_linear_3graph", None),
    ("hypercut.spectral", "eigen_decompose", "spectral.eigen_decompose", _count_eigen),
    ("hypercut.rounding", "best_bipartition", "rounding.best_bipartition", _count_winner),
    ("hypercut.rounding", "gaussian_sign_round", "rounding.gaussian_sign_round", _count_gauss),
    ("hypercut.rounding", "local_search_1flip", "rounding.local_search_1flip", _count_flip),
    ("hypercut.solver", "sample_and_reduce", "solver.sample_and_reduce", _count_collapse),
    ("hypercut.solver", "solve_3cut", "solver.solve_3cut", None),
    ("hypercut.solver", "solve_kcut", "solver.solve_kcut", None),
    ("hypercut.solver", "preprocess_heavy", "solver.preprocess_heavy", _count_kept),
    ("hypercut.solver", "_CutEvaluator.local_search", "solver.kway_local_search", None),
    ("hypercut.solver", "_CutEvaluator.value", "solver.cut_eval", None),
    ("hypercut.solver", "reduce_cut_up", "solver.reduce_cut_up", None),
    ("hypercut.oracle", "brute_force_max_kcut", "oracle.brute_force_max_kcut", _count_oracle),
    ("hypercut.experiments", "colored_sampling_experiment",
     "experiments.colored_sampling_experiment", _count_reps),
    ("hypercut.experiments", "surplus_scaling_study", "experiments.surplus_scaling_study", None),
)

# Per-layer metrics and units, in report order.  "<span>.s" is inclusive
# time, "<span>.self_s" excludes wrapped children, "<span>.calls" counts
# calls; the other names are counters or ratios built in ``layer_metrics``.
PER_LAYER = (
    ("cli.main.self_s", "s"), ("cli.main.calls", "count"),
    ("hypergraph.load_hypergraph.s", "s"), ("hypergraph.load_hypergraph.edges", "count"),
    ("hypergraph.cut_size.s", "s"), ("hypergraph.cut_size.calls", "count"),
    ("hypergraph.underlying_multigraph.s", "s"),
    ("hypergraph.underlying_multigraph.calls", "count"),
    ("hypergraph.induced_sub.s", "s"), ("hypergraph.degree_profile.s", "s"),
    ("generators.gen_random_uniform.s", "s"), ("generators.gen_random_uniform.kept_ratio", "1"),
    ("generators.gen_random_linear_3graph.s", "s"),
    ("spectral.eigen_decompose.s", "s"), ("spectral.eigen_decompose.calls", "count"),
    ("spectral.eigen_decompose.dim_sum", "count"), ("spectral.eigen_decompose.n3_sum", "count"),
    ("spectral.eigen_decompose.max_residual", "1"),
    ("spectral.eigen_decompose.neg_eigs_mean", "count"),
    ("rounding.best_bipartition.self_s", "s"), ("rounding.best_bipartition.calls", "count"),
    ("rounding.gaussian_sign_round.s", "s"), ("rounding.gaussian_sign_round.trials_sum", "count"),
    ("rounding.local_search_1flip.s", "s"), ("rounding.local_search_1flip.calls", "count"),
    ("rounding.local_search_1flip.flips_sum", "count"),
    ("rounding.win.gaussian", "count"), ("rounding.win.random", "count"),
    ("rounding.win.eigvec", "count"), ("rounding.useful_ratio", "1"),
    ("solver.sample_and_reduce.s", "s"), ("solver.sample_and_reduce.calls", "count"),
    ("solver.sample_and_reduce.collapse_ratio", "1"),
    ("solver.solve_3cut.self_s", "s"), ("solver.solve_kcut.self_s", "s"),
    ("solver.preprocess_heavy.s", "s"), ("solver.preprocess_heavy.kept_frac", "1"),
    ("solver.kway_local_search.s", "s"), ("solver.kway_local_search.calls", "count"),
    ("solver.cut_eval.s", "s"), ("solver.cut_eval.calls", "count"),
    ("solver.reduce_cut_up.s", "s"), ("solver.reduce_cut_up.calls", "count"),
    ("oracle.brute_force_max_kcut.s", "s"), ("oracle.brute_force_max_kcut.assignments", "count"),
    ("oracle.brute_force_max_kcut.assign_edges_per_s", "1/s"),
    ("experiments.colored_sampling_experiment.self_s", "s"),
    ("experiments.colored_sampling_experiment.reps", "count"),
    ("experiments.surplus_scaling_study.self_s", "s"),
    ("trace.overhead_frac", "1"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Spans and counters for the wrapped ``hypercut`` functions."""

    def __init__(self) -> None:
        self._installed: list[tuple[object, str, object]] = []
        self.negative_mask = None
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self.flip_results: dict[int, list] = defaultdict(list)
        self._stack: list[int] = []

    def add(self, key: str, value: float) -> None:
        self.counters[key] += value

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, count):
        sig = inspect.signature(fn)

        def wrapped(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, idx, bound.arguments, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def install(self) -> None:
        """Replace every target wherever a ``hypercut`` module binds it."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == "hypercut" or name.startswith("hypercut."))]
        self.negative_mask = sys.modules["hypercut.spectral"].negative_eigenvalue_mask
        for mod_name, attr, span_name, count in TARGETS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(sys.modules[mod_name], cls_name)
                original = owner.__dict__[meth]
                self._installed.append((owner, meth, original))
                setattr(owner, meth, self._wrap(original, span_name, count))
                continue
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self._wrap(original, span_name, count)
            for mod in mods:
                if getattr(mod, attr, None) is original:
                    self._installed.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters since ``reset``."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        c = self.counters
        derived = {
            "generators.gen_random_uniform.kept_ratio": _ratio(
                c["generators.gen_random_uniform.kept"],
                c["generators.gen_random_uniform.candidates"]),
            "spectral.eigen_decompose.neg_eigs_mean": _ratio(
                c["spectral.eigen_decompose.neg_eigs"], calls["spectral.eigen_decompose"]),
            "rounding.useful_ratio": _ratio(
                calls["rounding.best_bipartition"], calls["rounding.local_search_1flip"]),
            "solver.sample_and_reduce.collapse_ratio": _ratio(
                c["solver.sample_and_reduce.pairs_out"], c["solver.sample_and_reduce.edges_in"]),
            "solver.preprocess_heavy.kept_frac": _ratio(
                c["solver.preprocess_heavy.kept"], c["solver.preprocess_heavy.vertices"]),
            "oracle.brute_force_max_kcut.assign_edges_per_s": _ratio(
                c["oracle.brute_force_max_kcut.assign_edges"],
                total["oracle.brute_force_max_kcut"]),
        }
        out = {}
        for metric, _unit in PER_LAYER:
            span, stat = metric.rsplit(".", 1)
            if metric in derived:
                out[metric] = derived[metric]
            elif stat == "s":
                out[metric] = total[span]
            elif stat == "self_s":
                out[metric] = own[span]
            elif stat == "calls":
                out[metric] = calls[span]
            elif metric != "trace.overhead_frac":  # set by the caller
                out[metric] = c[metric]
        return out
