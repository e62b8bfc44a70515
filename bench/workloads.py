"""The benchmark's workloads, their inputs and their correctness gates.

A workload runs in rounds.  A round is a fixed list of operations, the
same on every round and every run with the same seed, so per-round
counts repeat exactly.  Only ``check`` draws on the seed.

Each gate returns ``None`` for a correct output or a one-line reason;
gates run outside the timed region and call the program's functions
untraced.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from eightblocks import cli, composability, experiments, model, solver
from eightblocks.errors import EightBlocksError
from eightblocks.instances import Instance
from eightblocks.varieties import CELLS, catalog

#: frozen eight-cube census: (solution-set size, orbits, raw multisets)
CENSUS_HISTOGRAM = (
    (0, 18507, 22849650),
    (1, 8854, 11910150),
    (2, 2754, 3422460),
    (3, 313, 370080),
    (4, 69, 49500),
    (5, 6, 4200),
    (6, 7, 1980),
)
CENSUS_ORBITS = 30_510

#: searches stop with status 'timeout' (a failed op) after this long
SEARCH_BUDGET_S = 150.0

#: instances per check round, one in LARGE_EVERY of them large
CHECK_BATCH = 500
LARGE_EVERY = 20
LARGE_CELLS = 6
LARGE_COUNTS = (80, 90)

CHECK_ARGS = ("--certificates", "--witnesses", "--machine")


@dataclass
class Workload:
    name: str
    why: str
    #: module the fresh set-up process imports, and the lazy tables it builds
    module: str
    tables: tuple[str, ...]

    def inputs(self, seed: int) -> object:
        """Everything the program receives, as comparable data."""
        raise NotImplementedError

    def prepare(self, seed: int, workdir: Path) -> None:
        """Build inputs outside the timed region."""

    def ops(self) -> list:
        """(key, callable) pairs making up one round."""
        raise NotImplementedError

    def gate(self, key, output) -> str | None:
        raise NotImplementedError

    def work(self, output) -> float:
        """Units of throughput one operation completes."""
        return 1.0


# ----------------------------------------------------------------------
# census


class Census(Workload):
    def inputs(self, seed):
        return ("octet_census", {"jobs": 1})

    def ops(self):
        return [("census", lambda: experiments.octet_census(jobs=1))]

    def gate(self, key, report):
        if report.histogram != CENSUS_HISTOGRAM:
            return f"histogram {report.histogram} differs from the frozen one"
        if report.orbit_total != CENSUS_ORBITS:
            return f"{report.orbit_total} orbits, expected {CENSUS_ORBITS}"
        if report.raw_total != math.comb(len(CELLS) + 7, 8):
            return f"raw total {report.raw_total} is not C(37,8)"
        got = composability.solution_set(report.example, oracle="matching")
        if report.max_size != 6 or len(got) != 6:
            return "census example does not compose six targets"
        return None

    def work(self, report):
        return report.orbit_total


# ----------------------------------------------------------------------
# searches


@dataclass
class Search(Workload):
    run: object = None  # () -> SearchResult
    call: tuple = ()
    expect_status: str = "unsat"
    expect_objective: int | None = None
    #: cells the witness must compose by the matching oracle
    composes: frozenset = frozenset()

    def inputs(self, seed):
        return self.call

    def ops(self):
        return [(self.name, self.run)]

    def gate(self, key, result):
        if result.status != self.expect_status or not result.complete:
            return f"status {result.status}, expected {self.expect_status}"
        if self.expect_objective is not None and result.objective != self.expect_objective:
            return f"objective {result.objective}, expected {self.expect_objective}"
        if self.expect_status == "unsat":
            return None if result.witness is None else "unsat search returned a witness"
        if result.witness is None:
            return "no witness"
        got = composability.solution_set(result.witness, oracle="matching")
        if got != self.composes:
            return f"witness composes {len(got)} cells, expected {len(self.composes)}"
        return None

    def work(self, result):
        return result.nodes


def _budget() -> solver.SearchOptions:
    return solver.SearchOptions(time_budget=SEARCH_BUDGET_S)


def max_infeasible(size: int):
    return lambda: experiments.run_max_infeasible(size, mode="capped", options=_budget())


def capped_min_universal():
    """Min-universal with every count capped at one.

    The paper's optimum uses one cube of each of twelve varieties and
    twelve is also the counting lower bound, so the cap keeps the
    optimum at 12 while the search stays a few seconds long.
    """
    full = model.min_universal_model()
    capped = replace(
        full,
        name="min-universal[cap1]",
        variables=tuple(model.VarietyVariable(c, 0, 1) for c in CELLS),
    )
    return solver.solve(capped, _budget())


# ----------------------------------------------------------------------
# check


def _small(rng: random.Random) -> dict:
    cells = rng.sample(CELLS, rng.randint(1, 10))
    return {c: rng.randint(1, 8) for c in cells}


def _large(rng: random.Random) -> dict:
    # a fixed number of cells with counts in a narrow band keeps the
    # matching graph, one node per cube copy, near one size
    cells = rng.sample(CELLS, LARGE_CELLS)
    return {c: rng.randint(*LARGE_COUNTS) for c in cells}


def check_stream(seed: int, count: int = CHECK_BATCH) -> list[dict]:
    """Seeded instances as ``{(i, j): count}``, exactly one in LARGE_EVERY large."""
    rng = random.Random(seed)
    large = [i % LARGE_EVERY == 0 for i in range(count)]
    rng.shuffle(large)
    return [_large(rng) if is_large else _small(rng) for is_large in large]


def _report_problem(instance: Instance, report: dict) -> str | None:
    """Independent re-check of one ``check --machine`` report."""
    cat = catalog()
    expected = sorted(
        c for c in CELLS if composability.is_composable_treecount(instance, c, cat)
    )
    got = [tuple(c) for c in report.get("solution_set", [])]
    if got != expected:
        return f"solution set {got} disagrees with the tree oracle {expected}"
    if report.get("size") != instance.size or report.get("solution_count") != len(got):
        return "size or solution count misreported"
    for cell in CELLS:
        i, j = cell
        if cell in expected:
            records = report.get(f"arrangement_{i}_{j}")
            if not records:
                return f"no arrangement for {cell}"
            arrangement = composability.Arrangement(
                target=cell,
                solid_coloring=cat.variety(i, j).coloring,
                placements=tuple(
                    composability.Placement(
                        corner=tuple(p["corner"]),
                        source=tuple(p["source"]),
                        copy=p["copy"],
                        coloring=tuple(p["coloring"]),
                    )
                    for p in records
                ),
            )
            try:
                composability.verify_arrangement(instance, cell, arrangement, cat)
            except EightBlocksError as exc:
                return f"arrangement for {cell} fails: {exc}"
        else:
            blocked = report.get(f"blocked_{i}_{j}")
            if blocked is None:
                return f"no witness for blocked {cell}"
            triples = frozenset(tuple(t) for t in blocked["triples"])
            recount = composability.usable_cube_count(instance, cell, triples, cat)
            if recount != blocked["usable_cubes"] or len(triples) <= recount:
                return f"witness for {cell} is not violated on recount"
    return None


@dataclass
class Check(Workload):
    instances: list = field(default_factory=list)
    paths: list = field(default_factory=list)
    verified: dict = field(default_factory=dict)

    def inputs(self, seed):
        return check_stream(seed)

    def prepare(self, seed, workdir):
        self.instances = check_stream(seed)
        self.paths = []
        for k, counts in enumerate(self.instances):
            path = workdir / f"instance-{k:04d}.txt"
            path.write_text("".join(f"{i} {j} {n}\n" for (i, j), n in sorted(counts.items())))
            self.paths.append(str(path))
        self.verified = {}

    def ops(self):
        return [(k, self._op(path)) for k, path in enumerate(self.paths)]

    @staticmethod
    def _op(path):
        def op():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["check", path, *CHECK_ARGS])
            return code, out.getvalue()

        return op

    def gate(self, key, output):
        code, text = output
        if code != 0:
            return f"exit code {code}"
        seen = self.verified.get(key)
        if seen is not None:
            return None if text == seen else "output differs from an earlier round"
        instance = Instance.from_pairs(self.instances[key])
        problem = _report_problem(instance, cli.parse_machine_report(text))
        if problem is None:
            self.verified[key] = text
        return problem


# ----------------------------------------------------------------------
# registry

_SEARCH_TABLES = ("group", "cell_perms")

WORKLOADS = {
    w.name: w
    for w in (
        Census(
            "census",
            "full eight-cube census: orbit enumeration plus the vector tree oracle; no solver",
            "eightblocks.experiments",
            ("cell_perms", "inverse_cell_perms"),
        ),
        Search(
            "search-infeasible",
            "capped max-infeasible unsat proof: cap lines, forbidden oracle, symmetry dominance",
            "eightblocks.experiments",
            _SEARCH_TABLES,
            run=max_infeasible(40),
            call=("run_max_infeasible", 40, "capped"),
        ),
        Search(
            "search-universal",
            "min-universal with counts capped at one: Hall covers, required oracle, objective loop",
            "eightblocks.experiments",
            _SEARCH_TABLES,
            run=capped_min_universal,
            call=("solve", "min-universal[cap1]"),
            expect_status="optimal",
            expect_objective=12,
            composes=frozenset(CELLS),
        ),
        Check(
            "check",
            "seeded closed-loop stream of check --certificates --witnesses calls; no solver",
            "eightblocks.cli",
            (),
        ),
    )
}

#: the paper's sizes; one op takes about a minute, so they are run by
#: hand and are not part of BENCHMARK.json
PAPER_WORKLOADS = {
    w.name: w
    for w in (
        Search(
            "search-infeasible-24",
            "criterion 9: no capped 24-cube infeasible instance",
            "eightblocks.experiments",
            _SEARCH_TABLES,
            run=max_infeasible(24),
            call=("run_max_infeasible", 24, "capped"),
        ),
        Search(
            "search-universal-full",
            "criterion 7: smallest universal instance",
            "eightblocks.experiments",
            _SEARCH_TABLES,
            run=lambda: experiments.run_min_universal(options=_budget()),
            call=("run_min_universal",),
            expect_status="optimal",
            expect_objective=12,
            composes=frozenset(CELLS),
        ),
    )
}
