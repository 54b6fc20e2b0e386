"""Seeded instance files and operation lists for the three benchmark workloads.

Every instance is drawn here, with numpy, from the workload seed, and written
in the program's text format ("r n" header, then "v1 ... vr [mult]" lines).
The program only ever receives the files, so a change to its own generators
cannot change what the solve operations are given.

Solve operations use fixed ``--seed`` values: the solver's vertex sample, and
with it the size of every eigenproblem, then depends only on n, so the
workload seed varies the instances without varying the amount of work.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

Edge = tuple[int, ...]

WORKLOADS = ("sparse3", "dense-chain", "studies")

# CSV headers as documented for `hypercut experiment`; a change to the format
# is a change the benchmark must notice.
CONCENTRATION_HEADER = (
    "rep,n,m,p,max_degree,color_degree_bound,norm_dev,energy_dev,threshold,passed"
)
SCALING_HEADER = "n,rep,m,cut_value,surplus"


@dataclass(frozen=True)
class Instance:
    name: str
    r: int
    n: int
    edges: tuple[tuple[Edge, int], ...]  # sorted, repeats merged
    path: Path

    @property
    def m(self) -> int:
        return sum(mult for _, mult in self.edges)


@dataclass(frozen=True)
class Op:
    """One CLI call and what its output must satisfy.

    kind is "solve" or "oracle" (a JSON report at ``out``), "gen" (an
    instance file at ``out``, checked against ``expect`` = (r, n, linear)),
    or "csv" (checked against ``expect`` = (header, rows)).
    """

    kind: str
    argv: tuple[str, ...]
    out: Path
    inst: Instance | None = None
    k: int = 0
    expect: tuple = ()


@dataclass
class Workload:
    name: str
    instances: list[Instance] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)

    def solve(self, inst: Instance, k: int, trials: int, seed: int = 1) -> None:
        out = inst.path.with_name(f"{inst.name}-k{k}.solve.json")
        argv = ("solve", "--file", str(inst.path), "--k", str(k),
                "--trials", str(trials), "--seed", str(seed), "--report", str(out))
        self.ops.append(Op("solve", argv, out, inst, k))

    def oracle(self, inst: Instance, k: int) -> None:
        """Exhaustive optimum; pairs with the preceding solve of (inst, k)."""
        out = inst.path.with_name(f"{inst.name}-k{k}.oracle.json")
        argv = ("solve", "--file", str(inst.path), "--k", str(k),
                "--oracle", "--report", str(out))
        self.ops.append(Op("oracle", argv, out, inst, k))


# ---------------------------------------------------------------------------
# Instance drawing
# ---------------------------------------------------------------------------


def _merge(rows: np.ndarray, mults: np.ndarray | None = None) -> tuple:
    """Sorted (edge, multiplicity) pairs; equal rows add their multiplicities."""
    rows = np.sort(rows, axis=1)
    if mults is None:
        mults = np.ones(len(rows), dtype=np.int64)
    uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
    total = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(total, inverse.ravel(), mults)
    return tuple(
        (tuple(int(v) for v in row), int(w)) for row, w in zip(uniq.tolist(), total)
    )


def uniform_multiset(rng, r: int, n: int, m: int) -> tuple:
    """m r-sets drawn uniformly with replacement; repeats become multiplicity."""
    found = []
    need = m
    while need:
        cand = np.sort(rng.integers(0, n, size=(2 * need + 8, r)), axis=1)
        cand = cand[(np.diff(cand, axis=1) != 0).all(axis=1)][:need]
        found.append(cand)
        need -= len(cand)
    return _merge(np.concatenate(found))


def linear_3graph(rng, n: int, m: int, max_degree: int) -> tuple:
    """Greedy random packing of m triples, no pair shared by two triples and
    no vertex in more than ``max_degree`` of them."""
    used: set[tuple[int, int]] = set()
    degree = [0] * n
    edges = []
    for _ in range(100 * m):
        if len(edges) == m:
            break
        a, b, c = sorted(int(v) for v in rng.choice(n, size=3, replace=False))
        pairs = ((a, b), (a, c), (b, c))
        if not used.intersection(pairs) and max(degree[a], degree[b], degree[c]) < max_degree:
            used.update(pairs)
            for v in (a, b, c):
                degree[v] += 1
            edges.append((a, b, c))
    if len(edges) < m:
        raise ValueError(f"could not pack {m} linear triples on {n} vertices")
    return _merge(np.array(edges))


def simple_graph(rng, n: int, m: int) -> tuple:
    """m distinct pairs drawn uniformly from all C(n, 2)."""
    iu = np.triu_indices(n, k=1)
    pick = rng.choice(len(iu[0]), size=m, replace=False)
    return _merge(np.stack([iu[0][pick], iu[1][pick]], axis=1))


def thinned_complete(rng, r: int, n: int, keep: float, max_mult: int) -> tuple:
    """Each r-set kept with probability ``keep``, multiplicity 1..max_mult."""
    rows = np.array(list(itertools.combinations(range(n), r)), dtype=np.int64)
    rows = rows[rng.random(len(rows)) < keep]
    return _merge(rows, rng.integers(1, max_mult + 1, size=len(rows)))


def write_instance(work: Path, name: str, r: int, n: int, edges: tuple) -> Instance:
    path = work / f"{name}.hg"
    lines = [f"{r} {n}"]
    for verts, mult in edges:
        body = " ".join(map(str, verts))
        lines.append(body if mult == 1 else f"{body} {mult}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Instance(name, r, n, edges, path)


# ---------------------------------------------------------------------------
# Workloads.  ``small`` shrinks every size for the benchmark's own tests.
# ---------------------------------------------------------------------------


def sparse3(rng, work: Path, small: bool) -> Workload:
    """Eigensolver- and rounding-bound: sparse pair graphs of ~80-110 vertices."""
    wl = Workload("sparse3")
    n3, m3, nl, ml, ng, mg, nt, trials = (
        (30, 150, 36, 80, 30, 90, 7, 2) if small else (120, 3000, 160, 1200, 120, 1000, 11, 3)
    )
    rand3 = write_instance(work, "rand3", 3, n3, uniform_multiset(rng, 3, n3, m3))
    # At most 35 triples per vertex: pair degree <= 70, under the solver's
    # high-degree threshold ceil(1200^0.6) = 71, so on every seed the core
    # solve of solve_3cut_auto is skipped (2% of seeds would run it, +35% work).
    lin3 = write_instance(work, "linear3", 3, nl, linear_3graph(rng, nl, ml, 35))
    graph = write_instance(work, "graph", 2, ng, simple_graph(rng, ng, mg))
    tiny = write_instance(work, "tiny3", 3, nt, thinned_complete(rng, 3, nt, 1.0, 2))
    wl.instances = [rand3, lin3, graph, tiny]
    wl.solve(rand3, 3, trials)
    wl.solve(lin3, 3, trials - 1)
    wl.solve(graph, 2, 1)
    wl.solve(tiny, 3, 30)
    wl.oracle(tiny, 3)
    return wl


def dense_chain(rng, work: Path, small: bool) -> Workload:
    """Hypergraph-bound: few vertices, many edges, and the 4 -> 3 chain."""
    wl = Workload("dense-chain")
    nd, n4, m4, nt, t3, t4 = (20, 14, 300, 7, 2, 3) if small else (90, 40, 8000, 9, 3, 10)
    dense = write_instance(work, "dense3", 3, nd, thinned_complete(rng, 3, nd, 0.5, 3))
    rand4 = write_instance(work, "rand4", 4, n4, uniform_multiset(rng, 4, n4, m4))
    tiny = write_instance(work, "tiny4", 4, nt, thinned_complete(rng, 4, nt, 1.0, 2))
    wl.instances = [dense, rand4, tiny]
    wl.solve(dense, 3, t3)
    wl.solve(rand4, 3, t4)
    wl.solve(rand4, 4, t4)
    wl.solve(tiny, 4, 30)
    wl.oracle(tiny, 4)
    return wl


def studies(rng, work: Path, small: bool, seed: int) -> Workload:
    """The researcher's tooling: generators, experiments and the oracle."""
    wl = Workload("studies")
    if small:
        gen_n, gen_p, lin_n, lin_m, conc_n, reps, sizes, n3, n4 = (
            30, 0.05, 30, 40, 14, 3, "12,16", 7, 7)
    else:
        gen_n, gen_p, lin_n, lin_m, conc_n, reps, sizes, n3, n4 = (
            250, 0.004, 300, 4000, 40, 10, "40,80", 11, 10)
    tiny3 = write_instance(work, "tiny3", 3, n3, thinned_complete(rng, 3, n3, 1.0, 2))
    tiny4 = write_instance(work, "tiny4", 4, n4, thinned_complete(rng, 4, n4, 1.0, 2))
    wl.instances = [tiny3, tiny4]
    s = str(seed)
    out = work / "random3.hg"
    wl.ops.append(Op("gen", ("gen", "--kind", "random3", "--n", str(gen_n), "--p",
                             str(gen_p), "--seed", s, "--out", str(out)), out,
                     expect=(3, gen_n, False)))
    out = work / "linear3.hg"
    wl.ops.append(Op("gen", ("gen", "--kind", "linear3", "--n", str(lin_n), "--m",
                             str(lin_m), "--seed", s, "--out", str(out)), out,
                     expect=(3, lin_n, True)))
    out = work / "concentration.csv"
    wl.ops.append(Op("csv", ("experiment", "--kind", "concentration", "--n", str(conc_n),
                             "--edge-prob", "0.05", "--reps", str(reps), "--seed", s,
                             "--out", str(out)), out,
                     expect=(CONCENTRATION_HEADER, reps)))
    out = work / "scaling.csv"
    wl.ops.append(Op("csv", ("experiment", "--kind", "scaling", "--sizes", sizes,
                             "--reps", "1", "--trials", "4", "--seed", s,
                             "--out", str(out)), out,
                     expect=(SCALING_HEADER, len(sizes.split(",")))))
    for inst, ks in ((tiny3, (2, 3)), (tiny4, (3, 4))):
        for k in ks:
            wl.solve(inst, k, 8)
            wl.oracle(inst, k)
    return wl


def build(name: str, seed: int, work: Path, small: bool = False) -> Workload:
    """Write the workload's instance files under ``work`` and list its ops."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "sparse3":
        return sparse3(rng, work, small)
    if name == "dense-chain":
        return dense_chain(rng, work, small)
    return studies(rng, work, small, seed)
