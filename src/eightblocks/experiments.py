"""Packaged experiment reproductions.

Each operation here re-derives a headline fact about colored-cube
instances from scratch: the bundled reference instances behave as
documented, small instances compose nothing, the two oracles agree on
large corpora, the eight-cube census tops out, the single-row scan is
extremal, and the three named searches reach their verdicts.  Every
witness that leaves this module is re-verified by the matching oracle
first; a failed check raises ExperimentError rather than returning a
doctored report.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

from .composability import (
    arrangement_from_report,
    bulk_target_verdicts,
    composable_from_vector,
    composable_targets,
    count_bound,
    is_composable_matching,
    is_composable_treecount,
    max_matching,
    solution_set,
    universal_lower_bound,
    usable_cube_count,
    verify_arrangement,
    witness_from_report,
)
from .errors import (
    CertificateError,
    EightBlocksError,
    ExperimentError,
    InvalidInputError,
)
from .instances import Instance
from .model import (
    Model,
    check_assignment,
    existence_model,
    max_infeasible_model,
    min_universal_model,
)
from .solver import (
    SearchOptions,
    SearchResult,
    pool_size,
    solve,
    solve_subproblems,
    split_subproblems,
    workers,
)
from .symmetry import count_orbits, orbit_vectors
from .varieties import (
    CELL_INDEX,
    CELLS,
    INFEASIBLE_23_COUNTS,
    NINE_CUBE_COUNTS,
    UNIVERSAL_12_COUNTS,
    Catalog,
    catalog,
)


# ----------------------------------------------------------------------
# reference instances (their counts live in `varieties`, which checks
# every candidate table against them)

NINE_CUBE_DEMO = Instance.from_pairs(NINE_CUBE_COUNTS)
MAX_INFEASIBLE_23 = Instance.from_pairs(INFEASIBLE_23_COUNTS)
MIN_UNIVERSAL_12 = Instance.from_pairs(UNIVERSAL_12_COUNTS)


def reference_instances() -> dict[str, Instance]:
    """Named bundled instances, keyed by what they demonstrate."""
    return {
        "nine-cube-demo": NINE_CUBE_DEMO,
        "max-infeasible-23": MAX_INFEASIBLE_23,
        "min-universal-12": MIN_UNIVERSAL_12,
    }


@dataclass(frozen=True)
class ReferenceCheck:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class ReferenceReport:
    checks: tuple[ReferenceCheck, ...]
    demo_solution_set: frozenset[tuple[int, int]]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_reference_facts(cat: Catalog | None = None) -> ReferenceReport:
    """Re-derive the headline facts about the three reference instances.

    Runs every check with both oracles; any failure raises
    ExperimentError naming the checks, since it signals a defect in the
    table construction or the oracles rather than in the instances.
    """
    cat = cat or catalog()
    checks: list[ReferenceCheck] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        checks.append(ReferenceCheck(name, bool(ok), detail))

    demo = NINE_CUBE_DEMO
    add(
        "demo-composes-(1,2)",
        is_composable_matching(demo, (1, 2), cat)
        and is_composable_treecount(demo, (1, 2), cat),
        "both oracles",
    )
    add(
        "demo-misses-(2,3)",
        not is_composable_matching(demo, (2, 3), cat)
        and not is_composable_treecount(demo, (2, 3), cat),
        "both oracles",
    )
    add("demo-size", demo.size == 9, f"size {demo.size}")
    demo_reports = [max_matching(demo, c, cat) for c in CELLS]
    demo_set = frozenset(r.target for r in demo_reports if r.composable)
    add(
        "demo-oracle-agreement",
        demo_set == solution_set(demo, cat, oracle="treecount"),
        f"solution set {sorted(demo_set)}",
    )
    arranged = True
    arr_detail = "arrangements verified"
    for report in demo_reports:
        if not report.composable:
            continue
        try:
            arrangement = arrangement_from_report(report, cat)
            verify_arrangement(demo, report.target, arrangement, cat)
        except CertificateError as exc:
            arranged = False
            arr_detail = f"{report.target}: {exc}"
            break
    add("demo-arrangements", arranged, arr_detail)

    inf = MAX_INFEASIBLE_23
    add("infeasible-23-size", inf.size == 23, f"size {inf.size}")
    inf_reports = [max_matching(inf, c, cat) for c in CELLS]
    add(
        "infeasible-23-empty",
        not any(r.composable for r in inf_reports)
        and not solution_set(inf, cat, oracle="treecount"),
        "both oracles",
    )
    halls_ok = True
    hall_detail = "violated subset for every target"
    for report in inf_reports:
        w = witness_from_report(inf, report, cat)
        if w is None or not w.violated:
            halls_ok = False
            hall_detail = f"no violated subset at {report.target}"
            break
    add("infeasible-23-witnesses", halls_ok, hall_detail)

    uni = MIN_UNIVERSAL_12
    add("universal-12-size", uni.size == 12, f"size {uni.size}")
    full = frozenset(CELLS)
    add(
        "universal-12-complete",
        solution_set(uni, cat, oracle="matching") == full
        and solution_set(uni, cat, oracle="treecount") == full,
        "both oracles",
    )
    bound = universal_lower_bound(cat)
    add("universal-lower-bound", bound == 12 == uni.size, f"bound {bound}")

    report = ReferenceReport(checks=tuple(checks), demo_solution_set=demo_set)
    failed = [c.name for c in checks if not c.ok]
    if failed:
        raise ExperimentError("reference checks failed: " + ", ".join(failed))
    return report


# ----------------------------------------------------------------------
# exhaustive small-size sweep


def verify_small_sizes_infeasible(
    limit: int = 7, cat: Catalog | None = None, anchor_stride: int = 97
) -> int:
    """Confirm no instance of at most `limit` cubes composes anything.

    Sweeps one representative per symmetry orbit, deciding all thirty
    targets with the tree oracle and re-checking every
    `anchor_stride`-th representative with the matching oracle.
    Returns the number of representatives checked.
    """
    cat = cat or catalog()
    if limit >= 8:
        raise InvalidInputError("eight cubes can compose a solid; keep the limit below")
    checked = 0
    for size in range(limit + 1):
        for vec, _orbit in orbit_vectors(size, cat):
            for t in range(len(CELLS)):
                if composable_from_vector(vec, t, cat):
                    raise ExperimentError(
                        f"size-{size} instance {vec} composes {CELLS[t]}"
                    )
            if checked % anchor_stride == 0:
                inst = Instance.from_vector(vec)
                if solution_set(inst, cat, oracle="matching"):
                    raise ExperimentError(
                        f"matching oracle disagrees on size-{size} instance {vec}"
                    )
            checked += 1
    return checked


# ----------------------------------------------------------------------
# oracle agreement corpus


@dataclass(frozen=True)
class AgreementReport:
    """Tally of a dual-oracle sweep; all *disagreement* fields must be zero."""

    corpus_supports: int
    corpus_instances: int
    corpus_pairs: int
    corpus_disagreements: int
    corpus_bound_violations: int
    anchored_comparisons: int
    random_instances: int
    random_disagreements: int
    random_bound_violations: int
    hall_witnesses_checked: int

    @property
    def ok(self) -> bool:
        return not (
            self.corpus_disagreements
            or self.corpus_bound_violations
            or self.random_disagreements
            or self.random_bound_violations
        )


def oracle_agreement(
    random_count: int = 100_000,
    seed: int = 20260823,
    anchors_per_size: int = 400,
    sizes: tuple[int, ...] = (1, 2, 3),
    support_limit: int | None = None,
    cat: Catalog | None = None,
    progress: Callable[[str, int, int], None] | None = None,
) -> AgreementReport:
    """Compare the two oracles across a dense corpus plus random draws.

    The dense part covers every instance supported on at most three
    varieties with entries one to eight, evaluated in bulk; a seeded
    sample of those verdicts is re-derived with the per-call oracles so
    the vectorized path stays anchored to the ground truth.  The random
    part draws `random_count` seeded instances, compares both oracles on
    a random target each, validates the returned violated subset
    whenever a target is not composable, and checks that a capped
    row/column supply of eight or more always means composable.
    `sizes` and `support_limit` narrow the dense corpus for smoke runs;
    the defaults cover it completely.
    """
    import numpy as np

    cat = cat or catalog()
    rng = random.Random(seed)

    supports = instances = pairs = disagreements = bound_violations = 0
    anchored = 0
    for s in sizes:
        mesh = np.indices((8,) * s).reshape(s, -1).T + 1
        combos = list(itertools.combinations(CELLS, s))
        if support_limit is not None:
            combos = combos[:support_limit]
        anchor_rate = min(1.0, anchors_per_size / len(combos))
        for done, sup in enumerate(combos):
            bv = bulk_target_verdicts(sup, mesh, cat)
            tree = np.asarray(bv.tree)
            matching = np.asarray(bv.matching)
            disagreements += int((tree != matching).sum())
            bound_violations += int(
                ((np.asarray(bv.supply_bound) >= 8) & ~matching).sum()
            )
            supports += 1
            instances += mesh.shape[0]
            pairs += tree.size
            if rng.random() < anchor_rate:
                row = rng.randrange(mesh.shape[0])
                t = rng.randrange(len(CELLS))
                inst = Instance.from_pairs(zip(sup, (int(v) for v in mesh[row])))
                if bool(matching[row, t]) != is_composable_matching(inst, CELLS[t], cat):
                    disagreements += 1
                if bool(tree[row, t]) != is_composable_treecount(inst, CELLS[t], cat):
                    disagreements += 1
                if int(bv.supply_bound[row, t]) != count_bound(inst, CELLS[t], cat):
                    bound_violations += 1
                anchored += 3
            if progress and done % 500 == 0:
                progress(f"support size {s}", done, len(combos))

    rand_disagreements = rand_bound_violations = halls = 0
    for done in range(random_count):
        k = rng.randint(1, 10)
        chosen = rng.sample(CELLS, k)
        inst = Instance.from_pairs((c, rng.randint(1, 8)) for c in chosen)
        target = rng.choice(CELLS)
        report = max_matching(inst, target, cat)
        by_matching = report.composable
        if by_matching != is_composable_treecount(inst, target, cat):
            rand_disagreements += 1
        if count_bound(inst, target, cat) >= 8 and not by_matching:
            rand_bound_violations += 1
        if not by_matching:
            w = witness_from_report(inst, report, cat)
            recount = (
                usable_cube_count(inst, target, w.triples, cat) if w else -1
            )
            if w is None or len(w.triples) <= recount or recount != w.usable_cubes:
                raise ExperimentError(
                    f"invalid violated subset for {inst.to_text('sparse')!r} at {target}"
                )
            halls += 1
        if progress and done % 20_000 == 0:
            progress("random corpus", done, random_count)

    return AgreementReport(
        corpus_supports=supports,
        corpus_instances=instances,
        corpus_pairs=pairs,
        corpus_disagreements=disagreements,
        corpus_bound_violations=bound_violations,
        anchored_comparisons=anchored,
        random_instances=random_count,
        random_disagreements=rand_disagreements,
        random_bound_violations=rand_bound_violations,
        hall_witnesses_checked=halls,
    )


# ----------------------------------------------------------------------
# eight-cube census


@dataclass(frozen=True)
class CensusReport:
    #: rows of (solution-set size, orbit count, raw instance count)
    histogram: tuple[tuple[int, int, int], ...]
    max_size: int
    example: Instance
    orbit_total: int
    raw_total: int
    wall_time: float


def _census_chunk(
    chunk: list[tuple[tuple[int, ...], int]]
) -> tuple[dict[int, list[int]], tuple[int, tuple[int, ...]] | None]:
    cat = catalog()
    hist: dict[int, list[int]] = {}
    best: tuple[int, tuple[int, ...]] | None = None
    for vec, orbit in chunk:
        n = sum(1 for _ in composable_targets(vec, cat))
        row = hist.setdefault(n, [0, 0])
        row[0] += 1
        row[1] += orbit
        if best is None or n > best[0] or (n == best[0] and vec < best[1]):
            best = (n, vec)
    return hist, best


def _census_tally(
    chunks: list[list[tuple[tuple[int, ...], int]]],
    chunk_map: Callable,
    progress: Callable[[int, int], None] | None,
) -> tuple[dict[int, list[int]], tuple[int, tuple[int, ...]] | None]:
    """Merged ``_census_chunk`` results over all chunks.

    ``chunk_map(fn, chunks)`` yields in chunk order, as builtin ``map``
    and the pool's ``imap`` from ``solver.workers`` do, so the merge is
    the same either way.
    ``progress(done, total)`` is called once per finished chunk.
    """
    total = sum(len(c) for c in chunks)
    done = 0
    hist: dict[int, list[int]] = {}
    best: tuple[int, tuple[int, ...]] | None = None
    for chunk, (part_hist, part_best) in zip(chunks, chunk_map(_census_chunk, chunks)):
        for n, (orbits, raw) in part_hist.items():
            row = hist.setdefault(n, [0, 0])
            row[0] += orbits
            row[1] += raw
        if part_best is not None and (
            best is None
            or part_best[0] > best[0]
            or (part_best[0] == best[0] and part_best[1] < best[1])
        ):
            best = part_best
        done += len(chunk)
        if progress:
            progress(done, total)
    return hist, best


def octet_census(
    cat: Catalog | None = None,
    jobs: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> CensusReport:
    """Solution-set size distribution over every eight-cube instance.

    Enumerates one representative per symmetry orbit and weighs it by
    its orbit size, so the raw column reconstructs the full multiset
    count.  The report is cross-checked before return: raw total,
    orbit total against the cycle-count formula, and the attaining
    example against the matching oracle.
    """
    if jobs < 1:
        raise InvalidInputError("jobs must be at least 1")
    cat = cat or catalog()
    start = time.monotonic()
    reps = list(orbit_vectors(8, cat))

    step = max(1, len(reps) // (pool_size(jobs) * 4))
    chunks = [reps[i : i + step] for i in range(0, len(reps), step)]
    with workers(jobs) as chunk_map:
        hist, best = _census_tally(chunks, chunk_map, progress)

    orbit_total = sum(r[0] for r in hist.values())
    raw_total = sum(r[1] for r in hist.values())
    expected_raw = math.comb(len(CELLS) + 8 - 1, 8)
    if raw_total != expected_raw:
        raise ExperimentError(
            f"census raw total {raw_total} != multiset count {expected_raw}"
        )
    if orbit_total != count_orbits(8, cat):
        raise ExperimentError("census orbit total disagrees with the cycle count")
    example = Instance.from_vector(best[1])
    if len(solution_set(example, cat, oracle="matching")) != best[0]:
        raise ExperimentError("census example fails matching-oracle re-verification")
    histogram = tuple(
        (n, hist[n][0], hist[n][1]) for n in sorted(hist)
    )
    return CensusReport(
        histogram=histogram,
        max_size=best[0],
        example=example,
        orbit_total=orbit_total,
        raw_total=raw_total,
        wall_time=time.monotonic() - start,
    )


def census_csv(report: CensusReport) -> str:
    lines = ["solution_set_size,orbit_count,raw_count"]
    for n, orbits, raw in report.histogram:
        lines.append(f"{n},{orbits},{raw}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# single-row extremal scan


@dataclass(frozen=True)
class RowScanReport:
    row: int
    scanned: int
    max_size: int
    maximizers: tuple[Instance, ...]


def row_restricted_max_infeasible(
    row: int = 1, cat: Catalog | None = None
) -> RowScanReport:
    """Largest instance on one table row that composes nothing.

    Scans all 8^5 entry combinations 0..7 on the row's five cells.  An
    entry of eight or more would compose that cell's own variety
    outright, so the cap loses no infeasible instances.
    """
    cat = cat or catalog()
    if not 1 <= row <= 6:
        raise InvalidInputError(f"row {row} out of range")
    cells = [(row, j) for j in range(1, 7) if j != row]
    idx = [CELL_INDEX[c] for c in cells]
    vec = [0] * len(CELLS)
    best = -1
    winners: list[tuple[int, ...]] = []
    for counts in itertools.product(range(8), repeat=len(cells)):
        for k, n in zip(idx, counts):
            vec[k] = n
        if next(composable_targets(vec, cat), None) is not None:
            continue
        total = sum(counts)
        if total > best:
            best = total
            winners = [counts]
        elif total == best:
            winners.append(counts)
    maximizers = tuple(
        Instance.from_pairs(
            (c, n) for c, n in zip(cells, counts) if n
        )
        for counts in winners
    )
    return RowScanReport(
        row=row, scanned=8 ** len(cells), max_size=best, maximizers=maximizers
    )


# ----------------------------------------------------------------------
# named searches


def _verify_generates_exactly(
    witness: Instance, required: frozenset[tuple[int, int]], cat: Catalog
) -> None:
    got = solution_set(witness, cat, oracle="matching")
    if got != required:
        raise ExperimentError(
            f"witness composes {sorted(got)} instead of {sorted(required)}"
        )


def run_existence(
    required: Iterable[tuple[int, int]],
    mode: str = "capped",
    options: SearchOptions | None = None,
    cat: Catalog | None = None,
    checkpoint: str | Path | None = None,
    split_depth: int = 2,
) -> SearchResult:
    """Search for an instance whose composable set is exactly `required`."""
    cat = cat or catalog()
    m = existence_model(required, mode, cat)
    if checkpoint is not None:
        result = checkpointed_solve(m, checkpoint, options, split_depth)
    else:
        result = solve(m, options)
    if result.witness is not None:
        _verify_generates_exactly(result.witness, m.required, cat)
    return result


def run_max_infeasible(
    size: int,
    mode: str = "full",
    options: SearchOptions | None = None,
    cat: Catalog | None = None,
    checkpoint: str | Path | None = None,
    split_depth: int = 2,
) -> SearchResult:
    """Search for a `size`-cube instance that composes nothing."""
    cat = cat or catalog()
    m = max_infeasible_model(size, mode, cat)
    if checkpoint is not None:
        result = checkpointed_solve(m, checkpoint, options, split_depth)
    else:
        result = solve(m, options)
    if result.witness is not None:
        if result.witness.size != size:
            raise ExperimentError(
                f"witness has {result.witness.size} cubes, wanted {size}"
            )
        _verify_generates_exactly(result.witness, frozenset(), cat)
    return result


def run_min_universal(
    options: SearchOptions | None = None, cat: Catalog | None = None
) -> SearchResult:
    """Minimize the size of an instance that composes every variety."""
    cat = cat or catalog()
    result = solve(min_universal_model(cat), options)
    if result.witness is not None:
        _verify_generates_exactly(result.witness, frozenset(CELLS), cat)
        if result.objective != result.witness.size:
            raise ExperimentError("optimal objective disagrees with witness size")
    return result


# ----------------------------------------------------------------------
# checkpointed long runs


_RECORD_KEYS = ("index", "status", "nodes", "prunes", "witness")

#: format 2 splits in the search's own value order; a file of an
#: earlier format numbers its subproblems differently and is refused
_CHECKPOINT_FORMAT = 2


def _record_problem(rec, model: Model, subproblems: int) -> str | None:
    """Why a parsed checkpoint record cannot be used, or None when it can."""
    if not isinstance(rec, dict):
        return "not a record"
    missing = [key for key in _RECORD_KEYS if key not in rec]
    if missing:
        return f"missing {', '.join(missing)}"
    index = rec["index"]
    if type(index) is not int or not 0 <= index < subproblems:
        return f"index outside the {subproblems} subproblems"
    if rec["status"] not in ("sat", "unsat", "timeout"):
        return "unknown status"
    prunes = rec["prunes"]
    if type(rec["nodes"]) is not int or not isinstance(prunes, dict) or any(
        type(n) is not int for n in prunes.values()
    ):
        return "counts are not integers"
    if rec["status"] == "sat":
        try:
            witness = Instance.from_vector(rec["witness"])
        except (EightBlocksError, TypeError, ValueError):
            return "unreadable witness"
        if not check_assignment(model, witness).ok:
            return "witness fails the model"
    return None


def checkpointed_solve(
    model: Model,
    checkpoint: str | Path,
    options: SearchOptions | None = None,
    split_depth: int = 2,
) -> SearchResult:
    """Decision solve split into subproblems with progress on disk.

    The model is partitioned by fixing its first free cells; each
    subproblem verdict is appended to the checkpoint file as one JSON
    line, so an interrupted run resumes where it stopped.  Subproblems
    without a finished record go through the solver's subproblem
    driver, one serial search each over ``options.jobs`` processes.
    Budgets in `options` cover the whole call, as for `solve`;
    subproblems recorded as timed out are searched again on resume.
    The first satisfiable subproblem in split order ends the run, and
    its witness is in the model's canonical form.  A checkpoint path
    that cannot be read or appended to (a directory, a file in a missing
    directory) raises InvalidInputError naming it, as does a split into
    more than ``solver.MAX_SPLIT_PARTS`` subproblems, before any file is
    touched; a file of an earlier format raises ExperimentError.
    """
    if model.objective is not None:
        raise InvalidInputError("checkpointing covers decision models only")
    path = Path(checkpoint)
    subs = split_subproblems(model, split_depth)
    # restricted variants share a builder name, so identity needs the domains
    header = {
        "format": _CHECKPOINT_FORMAT,
        "model": model.name,
        "domains": [list(d) for d in model.domains()],
        "split_depth": split_depth,
        "subproblems": len(subs),
    }

    # only complete, parseable lines count; a torn tail is cut off before
    # the next record is appended, so it never merges with one
    done: dict[int, tuple] = {}
    keep = 0
    try:
        data = path.read_bytes() if path.exists() else b""
    except OSError as exc:
        raise InvalidInputError(f"cannot read checkpoint {path}: {exc.strerror}") from None
    head = (json.dumps(header) + "\n").encode()
    if data and not head.startswith(data):
        first, newline, rest = data.partition(b"\n")
        try:
            stored = json.loads(first)
        except ValueError as exc:
            raise ExperimentError(f"unreadable checkpoint header: {exc}") from None
        if isinstance(stored, dict) and stored.get("format") != _CHECKPOINT_FORMAT:
            raise ExperimentError(
                f"checkpoint {path} was written by an earlier version, whose"
                " subproblems are numbered differently; start a new file"
            )
        if stored != header:
            raise ExperimentError(
                f"checkpoint {path} belongs to a different run: {stored}"
            )
        keep = len(first) + 1 if newline else 0
        for number, line in enumerate(rest.splitlines(keepends=True), 2):
            if not line.endswith(b"\n"):
                break  # torn final write from an interrupted run
            if line.strip():
                try:
                    rec = json.loads(line)
                except ValueError:
                    break
                why = _record_problem(rec, model, len(subs))
                if why:
                    raise ExperimentError(
                        f"checkpoint {path} line {number}: {why}: "
                        + line.strip().decode(errors="replace")
                    )
                if rec["status"] != "timeout":
                    stats = Counter(rec["prunes"], nodes=rec["nodes"])
                    done[rec["index"]] = (rec["status"], rec["witness"], stats)
            keep += len(line)

    try:
        fh = path.open("a")
    except OSError as exc:
        raise InvalidInputError(f"cannot write checkpoint {path}: {exc.strerror}") from None
    with fh:
        fh.truncate(keep)
        if not keep:
            fh.write(json.dumps(header) + "\n")
            fh.flush()

        def record(i: int, result: tuple) -> None:
            status, vec, stats = result
            prunes = {k: v for k, v in sorted(stats.items()) if k != "nodes"}
            rec = {"index": i, "status": status, "nodes": stats["nodes"]}
            rec.update(prunes=prunes, witness=vec)
            fh.write(json.dumps(rec) + "\n")
            fh.flush()

        return solve_subproblems(model, subs, done, record, options)
