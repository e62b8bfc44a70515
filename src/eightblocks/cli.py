"""Command-line front end.

Every subcommand prints either a human-readable report or, with
``--format machine`` where offered and always via ``--machine`` on the
run commands, one ``key=JSON`` record per line that round-trips through
:func:`parse_machine_report`.  Exit codes: 0 completed with a verdict,
1 internal consistency failure (``check`` found the two oracles
disagreeing), 2 usage error, 3 unreadable or malformed instance file,
4 budget exhausted before a verdict.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import experiments
from .composability import (
    arrangement_from_report,
    classify_solutions,
    max_matching,
    solution_set,
    verify_arrangement,
    witness_from_report,
)
from .errors import (
    EightBlocksError,
    InstanceFormatError,
    InvalidInputError,
    UnsupportedModelError,
)
from .export import export_dimacs, export_lp, export_neutral
from .instances import Instance, parse_instance
from .model import existence_model, max_infeasible_model, min_universal_model
from .solver import SearchOptions
from .varieties import CELLS, catalog

JOBS_ENV = "EIGHTBLOCKS_JOBS"


# ----------------------------------------------------------------------
# shared plumbing


def parse_machine_report(text: str) -> dict[str, object]:
    """Parse ``key=JSON`` lines back into a dict; inverse of machine output."""
    out: dict[str, object] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, sep, raw = line.partition("=")
        if not sep or not key:
            raise InvalidInputError(f"not a machine record: {line!r}")
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"bad record value in {line!r}: {exc}") from None
    return out


def _emit(records, machine: bool, stream) -> None:
    if machine:
        for key, value in records:
            stream.write(f"{key}={json.dumps(value, sort_keys=True)}\n")
        return
    for key, value in records:
        if key == "witness" and isinstance(value, list):
            stream.write("witness:\n")
            for row in value:
                stream.write("  " + " ".join(str(n) for n in row) + "\n")
        elif isinstance(value, dict):
            body = ", ".join(f"{k}: {v}" for k, v in value.items())
            stream.write(f"{key}: {body}\n")
        else:
            stream.write(f"{key}: {value}\n")


def _matrix(instance: Instance) -> list[list[int]]:
    return [list(row) for row in instance.counts]


def _target_number(token: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidInputError(f"cannot read target {token!r}") from None


def _parse_solutions(text: str) -> frozenset[tuple[int, int]]:
    t = text.strip().lower()
    if t in ("none", "empty"):
        return frozenset()
    if t == "all":
        return frozenset(CELLS)
    cells: set[tuple[int, int]] = set()
    for token in t.replace(";", " ").replace("(", " ").replace(")", " ").split():
        if token.startswith("row:"):
            r = _target_number(token, token[4:])
            if not 1 <= r <= 6:
                raise InvalidInputError(f"row {r} out of range")
            cells.update((r, j) for j in range(1, 7) if j != r)
        elif token.startswith("col:"):
            c = _target_number(token, token[4:])
            if not 1 <= c <= 6:
                raise InvalidInputError(f"column {c} out of range")
            cells.update((i, c) for i in range(1, 7) if i != c)
        else:
            parts = token.split(",")
            if len(parts) != 2:
                raise InvalidInputError(f"cannot read target {token!r}")
            i, j = (_target_number(token, p) for p in parts)
            if not (1 <= i <= 6 and 1 <= j <= 6 and i != j):
                raise InvalidInputError(f"({i},{j}) is not a table cell")
            cells.add((i, j))
    return frozenset(cells)


def _options(args) -> SearchOptions:
    return SearchOptions(
        symmetry=not args.no_symmetry,
        node_budget=args.node_budget,
        time_budget=args.time_budget,
        jobs=args.jobs,
    )


def _result_records(result, deterministic: bool):
    records = [("status", result.status)]
    if result.objective is not None:
        records.append(("objective", result.objective))
    if result.witness is not None:
        records.append(("witness", _matrix(result.witness)))
        records.append(("witness_size", result.witness.size))
    records.append(("nodes", result.nodes))
    records.append(("prunes", dict(result.prunes)))
    if not deterministic:
        records.append(("wall_time", round(result.wall_time, 3)))
    records.append(("complete", result.complete))
    return records


def _finish_search(result, args) -> int:
    _emit(_result_records(result, args.seedless_deterministic), args.machine, sys.stdout)
    return 4 if result.status == "timeout" else 0


# ----------------------------------------------------------------------
# subcommands


def _cmd_table(args) -> int:
    cat = catalog()
    if args.format == "machine":
        records = [("varieties", len(cat.varieties)), ("triples", 40)]
        for v in cat.varieties:
            i, j = v.coords
            records.append(
                (
                    f"variety_{i}_{j}",
                    {
                        "coloring": "".join(v.coloring),
                        "triples": sorted("".join(t) for t in v.triples),
                    },
                )
            )
        _emit(records, True, sys.stdout)
        return 0
    print(f"{len(cat.varieties)} varieties over faces UDFBLR, colors pqrstu")
    for v in cat.varieties:
        i, j = v.coords
        triples = ",".join(sorted("".join(t) for t in v.triples))
        print(f"({i},{j})  {''.join(v.coloring)}  {triples}")
    return 0


def _cmd_check(args) -> int:
    try:
        text = Path(args.instance).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.instance}: {exc}", file=sys.stderr)
        return 3
    instance = parse_instance(text)
    cat = catalog()
    # one matching per target gives the verdict and either certificate
    reports = [max_matching(instance, cell, cat) for cell in CELLS]
    composed = [r for r in reports if r.composable]  # in cell order, so sorted
    solutions = [r.target for r in composed]
    if sorted(solution_set(instance, cat, oracle="treecount")) != solutions:
        raise EightBlocksError("internal: oracle disagreement on this instance")
    records = [
        ("size", instance.size),
        ("classification", classify_solutions(solutions)),
        ("solution_count", len(solutions)),
        ("solution_set", [list(c) for c in solutions]),
    ]
    if args.certificates:
        for report in composed:
            cell = report.target
            arrangement = arrangement_from_report(report, cat)
            verify_arrangement(instance, cell, arrangement, cat)
            records.append(
                (
                    f"arrangement_{cell[0]}_{cell[1]}",
                    [
                        {
                            "corner": list(p.corner),
                            "source": list(p.source),
                            "copy": p.copy,
                            "coloring": "".join(p.coloring),
                        }
                        for p in arrangement.placements
                    ],
                )
            )
    if args.witnesses:
        for report in reports:
            if report.composable:
                continue
            cell = report.target
            w = witness_from_report(instance, report, cat)
            records.append(
                (
                    f"blocked_{cell[0]}_{cell[1]}",
                    {
                        "triples": sorted("".join(t) for t in w.triples),
                        "usable_cubes": w.usable_cubes,
                    },
                )
            )
    _emit(records, args.machine, sys.stdout)
    return 0


def _cmd_search_existence(args) -> int:
    targets = _parse_solutions(args.solutions)
    result = experiments.run_existence(
        targets,
        mode=args.mode,
        options=_options(args),
        checkpoint=args.checkpoint,
        split_depth=args.split_depth,
    )
    return _finish_search(result, args)


def _cmd_search_max_infeasible(args) -> int:
    result = experiments.run_max_infeasible(
        args.size,
        mode=args.mode,
        options=_options(args),
        checkpoint=args.checkpoint,
        split_depth=args.split_depth,
    )
    return _finish_search(result, args)


def _cmd_search_min_universal(args) -> int:
    result = experiments.run_min_universal(options=_options(args))
    return _finish_search(result, args)


def _write_file(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc.strerror}") from None


def _cmd_census(args) -> int:
    report = experiments.octet_census(jobs=args.jobs)
    records = [
        ("max_solution_set", report.max_size),
        ("orbit_total", report.orbit_total),
        ("raw_total", report.raw_total),
        ("histogram", [list(row) for row in report.histogram]),
        ("example", _matrix(report.example)),
    ]
    if not args.seedless_deterministic:
        records.append(("wall_time", round(report.wall_time, 3)))
    _emit(records, args.machine, sys.stdout)
    if args.csv:
        _write_file(args.csv, experiments.census_csv(report))
    return 0


def _cmd_scan_row(args) -> int:
    report = experiments.row_restricted_max_infeasible(row=args.row)
    multisets = sorted(
        {
            tuple(sorted((n for _, n in inst.items()), reverse=True))
            for inst in report.maximizers
        }
    )
    records = [
        ("row", report.row),
        ("scanned", report.scanned),
        ("max_infeasible_size", report.max_size),
        ("maximizer_count", len(report.maximizers)),
        ("entry_multisets", [list(m) for m in multisets]),
        ("maximizers", [_matrix(inst) for inst in report.maximizers]),
    ]
    _emit(records, args.machine, sys.stdout)
    return 0


def _cmd_export(args) -> int:
    if args.model == "min-universal":
        model = min_universal_model()
    elif args.model == "max-infeasible":
        if args.size is None:
            raise InvalidInputError("export max-infeasible needs --size")
        model = max_infeasible_model(args.size, args.mode or "full")
    else:
        if args.solutions is None:
            raise InvalidInputError("export existence needs --solutions")
        model = existence_model(_parse_solutions(args.solutions), args.mode or "capped")

    if args.format == "lp":
        payload = export_lp(model)
    elif args.format == "dimacs":
        payload = export_dimacs(model, total_at_most=args.total_at_most).text()
    else:
        payload = export_neutral(model)
    if args.out and args.out != "-":
        _write_file(args.out, payload)
    else:
        sys.stdout.write(payload)
    return 0


# ----------------------------------------------------------------------
# parser


def _at_least(least: int, kind=int):
    """argparse type: a number of the given kind no smaller than `least`."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {text}")
        return value

    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="eightblocks",
        description="Colored-cube instance analysis: oracles, searches, exports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flag groups it reads
    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument(
        "--jobs",
        type=_at_least(1),
        # None stands for "not given"; _parse_args reads the variable per call
        default=None,
        help=f"worker processes (default from ${JOBS_ENV} or 1)",
    )
    run_flags.add_argument(
        "--seedless-deterministic",
        action="store_true",
        help="omit wall times so jobs=1 reports are byte-identical",
    )
    run_flags.add_argument("--machine", action="store_true", help="key=JSON output")
    search_flags = argparse.ArgumentParser(add_help=False, parents=[run_flags])
    search_flags.add_argument("--node-budget", type=_at_least(0), default=None)
    search_flags.add_argument("--time-budget", type=_at_least(0, float), default=None)
    search_flags.add_argument("--no-symmetry", action="store_true")
    split_flags = argparse.ArgumentParser(add_help=False, parents=[search_flags])
    split_flags.add_argument(
        "--checkpoint",
        default=None,
        help="JSONL progress file; rerun with the same file to resume",
    )
    split_flags.add_argument("--split-depth", type=_at_least(0), default=2)

    p = sub.add_parser("table", help="print the 6x6 variety table")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("check", help="solution set of an instance file")
    p.add_argument("instance", help="dense 6x6 or sparse 'i j count' file")
    p.add_argument("--certificates", action="store_true",
                   help="print a verified arrangement per composable variety")
    p.add_argument("--witnesses", action="store_true",
                   help="print a violated triple subset per blocked variety")
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=_cmd_check)

    search = sub.add_parser("search", help="run the built-in searches")
    ssub = search.add_subparsers(dest="search_command", required=True)

    p = ssub.add_parser("existence", parents=[split_flags],
                        help="instance composing exactly the given varieties")
    p.add_argument("--solutions", required=True,
                   help="targets: 'i,j ...', 'row:i', 'col:j', 'all' or 'none'")
    p.add_argument("--mode", choices=("capped", "full"), default="capped")
    p.set_defaults(func=_cmd_search_existence)

    p = ssub.add_parser("max-infeasible", parents=[split_flags],
                        help="instance of a given size composing nothing")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--mode", choices=("capped", "full"), default="full")
    p.set_defaults(func=_cmd_search_max_infeasible)

    p = ssub.add_parser("min-universal", parents=[search_flags],
                        help="smallest instance composing every variety")
    p.set_defaults(func=_cmd_search_min_universal)

    census = sub.add_parser("census", help="exhaustive sweeps")
    csub = census.add_subparsers(dest="census_command", required=True)
    p = csub.add_parser("octets", parents=[run_flags],
                        help="solution-set sizes over all eight-cube instances")
    p.add_argument("--csv", default=None, help="also write the histogram as CSV")
    p.set_defaults(func=_cmd_census)

    scan = sub.add_parser("scan", help="restricted exhaustive scans")
    scsub = scan.add_subparsers(dest="scan_command", required=True)
    p = scsub.add_parser("row-infeasible",
                         help="largest single-row instance composing nothing")
    p.add_argument("--row", type=int, default=1)
    p.add_argument("--machine", action="store_true")
    p.set_defaults(func=_cmd_scan_row)

    p = sub.add_parser("export", help="write a model as LP, DIMACS CNF or text")
    p.add_argument("model", choices=("existence", "max-infeasible", "min-universal"))
    p.add_argument("--format", choices=("lp", "dimacs", "neutral"), required=True)
    p.add_argument("--solutions", default=None)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--mode", choices=("capped", "full"), default=None)
    p.add_argument("--total-at-most", type=int, default=None,
                   help="decision bound for DIMACS export of the minimization model")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_export)

    return parser


def _parse_args(argv=None) -> argparse.Namespace:
    """Parsed arguments, with ``--jobs`` taken from the environment when absent."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) is None:
        try:
            args.jobs = _at_least(1)(os.environ.get(JOBS_ENV, "1"))
        except argparse.ArgumentTypeError as exc:
            parser.error(f"${JOBS_ENV}: {exc}")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return args.func(args)
    except InstanceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidInputError, UnsupportedModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EightBlocksError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
