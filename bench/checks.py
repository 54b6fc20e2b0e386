"""Output checks for every benchmark operation, against a pure-Python
reference evaluator that shares no code with the program."""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

from workloads import Op


def ref_cut(edges, assignment, k: int) -> int:
    """Edges (with multiplicity) whose vertices meet all k parts."""
    return sum(mult for verts, mult in edges if len({assignment[v] for v in verts}) == k)


def random_cut_fraction(r: int, k: int) -> Fraction:
    """S(r,k) * k! / k^r: the expected cut fraction of a uniform k-partition."""
    stirling = sum((-1) ** j * math.comb(k, j) * (k - j) ** r for j in range(k + 1))
    return Fraction(stirling, k**r)  # the sum is already S(r,k) * k!


def check_report(report: dict, inst, k: int) -> list[str]:
    """Problems with a `solve --report` JSON for instance ``inst`` and ``k``."""
    assign = report["assignment"]
    if len(assign) != inst.n:
        return [f"assignment has length {len(assign)}, expected {inst.n}"]
    if any(not (isinstance(a, int) and 0 <= a < k) for a in assign):
        return [f"assignment has a part id outside [0, {k})"]
    problems = []
    cut = ref_cut(inst.edges, assign, k)
    if report["cut_value"] != cut:
        problems.append(f"cut_value {report['cut_value']} recomputes to {cut}")
    surplus = cut - random_cut_fraction(inst.r, k) * inst.m
    if Fraction(report["surplus"]) != surplus:
        problems.append(f"surplus {report['surplus']} recomputes to {surplus}")
    if 2 <= k <= inst.r and surplus < 0:
        problems.append(f"negative surplus {surplus} for k={k} <= r={inst.r}")
    if inst.r == k == 2 and 2 * cut < inst.m:
        problems.append(f"2-cut {cut} below m/2 = {inst.m / 2}")
    return problems


def check_gen(text: str, r: int, n: int, linear: bool) -> list[str]:
    """A generated instance file parses with the requested r and n."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != [str(r), str(n)]:
        return [f"header is {lines[0] if lines else None}, expected '{r} {n}'"]
    pairs: set[tuple[int, int]] = set()
    for fields in lines[1:]:
        nums = [int(tok) for tok in fields]
        verts, mult = nums[:r], (nums[r:] or [1])[0]
        if len(nums) not in (r, r + 1) or mult < 1:
            return [f"malformed edge line {' '.join(fields)!r}"]
        if len(set(verts)) != r or min(verts) < 0 or max(verts) >= n:
            return [f"edge {verts} is not {r} distinct vertices in [0, {n})"]
        if linear:
            for pair in ((verts[0], verts[1]), (verts[0], verts[2]), (verts[1], verts[2])):
                if pair in pairs:
                    return [f"pair {pair} lies in two edges of a linear 3-graph"]
                pairs.add(pair)
    return []


def check_csv(text: str, header: str, rows: int) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return [f"CSV header {lines[0] if lines else None!r}, expected {header!r}"]
    width = header.count(",") + 1
    if len(lines) - 1 != rows:
        return [f"CSV has {len(lines) - 1} rows, expected {rows}"]
    if any(line.count(",") + 1 != width for line in lines[1:]):
        return [f"CSV row without {width} fields"]
    return []


class PassCheck:
    """Checks one pass's outputs and accumulates its quality figures.

    ``output_digest`` hashes, in order, each report's ``digest`` field and
    the bytes of each generated file and CSV.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.surplus_sum = Fraction(0)
        self.solver_cut = 0  # over solves that have an oracle partner
        self.oracle_cut = 0
        self._solved: dict[tuple[str, int], int] = {}
        self._digest = hashlib.sha256()

    @property
    def output_digest(self) -> str:
        return self._digest.hexdigest()

    @property
    def opt_ratio(self) -> float:
        return self.solver_cut / self.oracle_cut if self.oracle_cut else 0.0

    def record(self, op: Op, code) -> None:
        """Count ``op`` as attempted, and as failed if it exited nonzero or
        any check of its output fails."""
        self.attempted += 1
        try:
            problems = [f"exit code {code}"] if code != 0 else self._check(op)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.failures.append(f"{' '.join(op.argv[:5])} ...: {'; '.join(problems)}")

    def _check(self, op: Op) -> list[str]:
        if op.kind == "gen":
            data = op.out.read_bytes()
            self._digest.update(data)
            return check_gen(data.decode("utf-8"), *op.expect)
        if op.kind == "csv":
            data = op.out.read_bytes()
            self._digest.update(data)
            return check_csv(data.decode("utf-8"), *op.expect)
        report = json.loads(op.out.read_text(encoding="utf-8"))
        self._digest.update(report["digest"].encode())
        problems = check_report(report, op.inst, op.k)
        key = (op.inst.name, op.k)
        if problems:
            return problems
        if op.kind == "solve":
            self.surplus_sum += Fraction(report["surplus"])
            self._solved[key] = report["cut_value"]
            return []
        if key not in self._solved:
            return [f"no checked solve of {key} to compare with the oracle"]
        solved = self._solved.pop(key)
        if solved > report["cut_value"]:
            return [f"solver cut {solved} exceeds the oracle optimum {report['cut_value']}"]
        self.solver_cut += solved
        self.oracle_cut += report["cut_value"]
        return []
