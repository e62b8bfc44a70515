"""Command-line behavior: exit codes, machine records, determinism."""

import hashlib
import random

import pytest

from eightblocks import composability, experiments
from eightblocks.cli import _parse_args, main, parse_machine_report
from eightblocks.errors import InvalidInputError
from eightblocks.instances import Instance
from eightblocks.solver import SearchResult
from eightblocks.varieties import CELLS

DEMO_SPARSE = """\
# nine cubes
1 2 2
2 6 1
3 5 1
3 6 1
5 6 2
6 4 1
6 5 1
"""


@pytest.fixture
def demo_file(tmp_path):
    f = tmp_path / "demo.txt"
    f.write_text(DEMO_SPARSE)
    return str(f)


def test_table_text(capsys):
    assert main(["table"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == 31  # header plus thirty varieties
    assert any(l.startswith("(1,2)") for l in lines)


def test_table_machine_round_trips(capsys):
    assert main(["table", "--format", "machine"]) == 0
    rec = parse_machine_report(capsys.readouterr().out)
    assert rec["varieties"] == 30 and rec["triples"] == 40
    v12 = rec["variety_1_2"]
    assert len(v12["coloring"]) == 6
    assert len(v12["triples"]) == 8


def test_table_bad_format_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["table", "--format", "bogus"])
    assert e.value.code == 2


def test_check_demo(demo_file, capsys):
    assert main(["check", demo_file, "--machine"]) == 0
    rec = parse_machine_report(capsys.readouterr().out)
    assert rec["size"] == 9
    assert rec["solution_count"] == 3
    assert rec["solution_set"] == [[1, 2], [4, 1], [4, 3]]
    assert rec["classification"] == "other"


def test_check_dense_equals_sparse(demo_file, tmp_path, capsys):
    main(["check", demo_file, "--machine"])
    sparse_out = capsys.readouterr().out
    dense = tmp_path / "demo-dense.txt"
    dense.write_text(
        "0 2 0 0 0 0\n"
        "0 0 0 0 0 1\n"
        "0 0 0 0 1 1\n"
        "0 0 0 0 0 0\n"
        "0 0 0 0 0 2\n"
        "0 0 0 1 1 0\n"
    )
    main(["check", str(dense), "--machine"])
    assert capsys.readouterr().out == sparse_out


def test_check_certificates_and_witnesses(demo_file, capsys):
    assert main(["check", demo_file, "--certificates", "--witnesses",
                 "--machine"]) == 0
    rec = parse_machine_report(capsys.readouterr().out)
    arr = rec["arrangement_1_2"]
    assert len(arr) == 8
    assert {tuple(p["corner"]) for p in arr} == {
        (x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)
    }
    blocked = [k for k in rec if k.startswith("blocked_")]
    assert len(blocked) == 27
    w23 = rec["blocked_2_3"]
    assert w23["usable_cubes"] < len(w23["triples"])


def test_check_matches_each_target_once(demo_file, monkeypatch, capsys):
    calls = []
    matching = composability.maximum_bipartite_matching

    def counted(adjacency, right_size):
        calls.append(right_size)
        return matching(adjacency, right_size)

    monkeypatch.setattr(composability, "maximum_bipartite_matching", counted)
    assert main(["check", demo_file, "--certificates", "--witnesses",
                 "--machine"]) == 0
    assert calls == [8] * len(CELLS)


def test_check_missing_file_exits_3(tmp_path):
    assert main(["check", str(tmp_path / "nope.txt")]) == 3


def test_check_malformed_file_exits_3(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("1 1 4\n")
    assert main(["check", str(f)]) == 3


def test_search_existence_machine(capsys):
    rc = main(["search", "existence", "--solutions", "1,2", "--machine"])
    assert rc == 0
    rec = parse_machine_report(capsys.readouterr().out)
    assert rec["status"] == "sat" and rec["complete"] is True
    assert rec["witness_size"] >= 8
    matrix = rec["witness"]
    assert len(matrix) == 6 and all(len(row) == 6 for row in matrix)
    assert sum(sum(row) for row in matrix) == rec["witness_size"]


def test_search_existence_none_is_empty_instance(capsys):
    rc = main(["search", "existence", "--solutions", "none", "--machine"])
    assert rc == 0
    rec = parse_machine_report(capsys.readouterr().out)
    assert rec["status"] == "sat"
    assert rec["witness_size"] == 0


def test_search_existence_deterministic_bytes(capsys):
    argv = ["search", "existence", "--solutions", "3,4", "--machine",
            "--seedless-deterministic"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert "wall_time" not in first


def test_search_existence_text_output(capsys):
    assert main(["search", "existence", "--solutions", "2,4"]) == 0
    out = capsys.readouterr().out
    assert "status: sat" in out
    assert "witness:" in out


def test_search_existence_bad_target_exits_2(capsys):
    assert main(["search", "existence", "--solutions", "1,1"]) == 2
    assert main(["search", "existence", "--solutions", "1,2,3"]) == 2


def test_search_max_infeasible(capsys):
    rc = main(["search", "max-infeasible", "--size", "9", "--machine"])
    assert rc == 0
    rec = parse_machine_report(capsys.readouterr().out)
    assert rec["status"] == "sat" and rec["witness_size"] == 9


def test_search_budget_timeout_exits_4(capsys):
    rc = main(["search", "min-universal", "--node-budget", "5", "--machine"])
    assert rc == 4
    rec = parse_machine_report(capsys.readouterr().out)
    assert rec["status"] == "timeout" and rec["complete"] is False


def test_jobs_env_default(monkeypatch):
    monkeypatch.setenv("EIGHTBLOCKS_JOBS", "3")
    args = _parse_args(["search", "existence", "--solutions", "1,2"])
    assert args.jobs == 3
    monkeypatch.delenv("EIGHTBLOCKS_JOBS")
    args = _parse_args(["search", "existence", "--solutions", "1,2", "--jobs", "2"])
    assert args.jobs == 2


def test_jobs_env_read_on_every_call(monkeypatch, capsys):
    # the parser is built once per process; the variable is not baked into it
    seen = []

    def run_min_universal(options):
        seen.append(options.jobs)
        return SearchResult(
            status="timeout", objective=None, witness=None, nodes=0, prunes={},
            wall_time=0.0, complete=False,
        )

    monkeypatch.setattr(experiments, "run_min_universal", run_min_universal)
    for jobs in ("3", "2"):
        monkeypatch.setenv("EIGHTBLOCKS_JOBS", jobs)
        assert main(["search", "min-universal", "--machine"]) == 4
    monkeypatch.delenv("EIGHTBLOCKS_JOBS")
    assert main(["search", "min-universal", "--machine"]) == 4
    assert seen == [3, 2, 1]


_CAPPED_24 = ["search", "max-infeasible", "--size", "24", "--mode", "capped"]


@pytest.mark.parametrize(
    "env_jobs, argv, code",
    [
        ("abc", ["table"], 0),  # table takes no --jobs, so ignores the variable
        ("abc", ["search", "existence", "--solutions", "1,2"], 2),
        (None, ["search", "existence", "--solutions", "row:x"], 2),
        (None, ["search", "existence", "--solutions", "1,x"], 2),
        (None, ["search", "existence", "--solutions", "1,2",
                "--split-depth", "-1"], 2),
        (None, ["search", "min-universal", "--node-budget", "-5"], 2),
        (None, ["search", "min-universal", "--time-budget", "-1"], 2),
        (None, ["census", "octets", "--jobs", "0"], 2),
        # flags a subcommand would ignore are not accepted
        (None, ["scan", "row-infeasible", "--node-budget", "5"], 2),
        (None, ["census", "octets", "--time-budget", "5"], 2),
        # files under {tmp}: an instance in UTF-16, and checkpoint and
        # export paths that are a directory or sit in a missing one
        (None, ["check", "{tmp}/utf16.txt"], 3),
        (None, [*_CAPPED_24, "--checkpoint", "{tmp}", "--node-budget", "0"], 2),
        (None, [*_CAPPED_24, "--checkpoint", "{tmp}/missing/run.jsonl",
                "--node-budget", "0"], 2),
        (None, ["export", "min-universal", "--format", "lp", "--out", "{tmp}"], 2),
        (None, ["export", "min-universal", "--format", "lp",
                "--out", "{tmp}/missing/m.lp"], 2),
        # a split of 3**30 parts; the checkpoint file is usable, so the
        # error is the split's own and names no file
        (None, [*_CAPPED_24, "--checkpoint={tmp}/run.jsonl",
                "--split-depth", "40", "--node-budget", "5"], 2),
    ],
)
def test_bad_input_exits_without_traceback(
    monkeypatch, capsys, tmp_path, env_jobs, argv, code
):
    if env_jobs is None:
        monkeypatch.delenv("EIGHTBLOCKS_JOBS", raising=False)
    else:
        monkeypatch.setenv("EIGHTBLOCKS_JOBS", env_jobs)
    (tmp_path / "utf16.txt").write_bytes("1 2 3\n".encode("utf-16"))
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    named = [arg for arg in argv if arg.startswith(str(tmp_path))]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects the value
        rc = exc.code
    assert rc == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    for path in named:  # a file that cannot be used is named
        assert err.startswith(f"error: cannot ") and path in err


def test_unwritable_census_csv_exits_2(monkeypatch, tmp_path, capsys):
    report = experiments.CensusReport(
        histogram=((0, 1, 1),), max_size=0,
        example=Instance.from_vector((0,) * len(CELLS)),
        orbit_total=1, raw_total=1, wall_time=0.0,
    )
    # a stub report stands in for the census, which takes seconds
    monkeypatch.setattr(experiments, "octet_census", lambda jobs: report)
    path = tmp_path / "missing" / "census.csv"
    assert main(["census", "octets", "--csv", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ") and "Traceback" not in err


def test_malformed_checkpoint_record_exits_1(tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    argv = ["search", "max-infeasible", "--size", "24", "--mode", "capped",
            "--checkpoint", str(path), "--split-depth", "1"]
    # a budget of no nodes leaves the header and timeout records
    assert main([*argv, "--node-budget", "0", "--machine"]) == 4
    with path.open("a") as fh:
        fh.write('{"index": 0}\n')
    last = len(path.read_text().splitlines())
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"line {last}: missing status" in err and "Traceback" not in err


def test_scan_row_machine(capsys):
    rc = main(["scan", "row-infeasible", "--row", "2", "--machine"])
    assert rc == 0
    rec = parse_machine_report(capsys.readouterr().out)
    assert rec["max_infeasible_size"] == 23
    assert rec["maximizer_count"] == 10
    assert rec["entry_multisets"] == [[7, 7, 7, 1, 1]]
    assert rec["scanned"] == 8**5


def test_scan_row_out_of_range_exits_2(capsys):
    assert main(["scan", "row-infeasible", "--row", "9"]) == 2


def test_export_lp_to_file(tmp_path, capsys):
    out = tmp_path / "model.lp"
    rc = main(["export", "min-universal", "--format", "lp", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("\\ model: min-universal")
    assert "Generals" in text and text.rstrip().endswith("End")


def test_export_neutral_to_stdout(capsys):
    rc = main(["export", "existence", "--format", "neutral",
               "--solutions", "1,2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("model existence[(1,2)|capped]")


def test_export_dimacs_decision(tmp_path):
    out = tmp_path / "model.cnf"
    rc = main(["export", "max-infeasible", "--format", "dimacs",
               "--size", "9", "--mode", "capped", "--out", str(out)])
    assert rc == 0
    assert "p cnf " in out.read_text()


def test_export_usage_errors(capsys):
    assert main(["export", "existence", "--format", "lp"]) == 2
    assert main(["export", "max-infeasible", "--format", "lp"]) == 2
    assert main(["export", "min-universal", "--format", "dimacs"]) == 2
    assert main(["export", "existence", "--format", "lp",
                 "--solutions", "1,2"]) == 2  # disjunctive, no LP form


def test_parse_machine_report_errors():
    with pytest.raises(InvalidInputError):
        parse_machine_report("no separator here")
    with pytest.raises(InvalidInputError):
        parse_machine_report("key=not json at all")
    with pytest.raises(InvalidInputError):
        parse_machine_report("=5")
    assert parse_machine_report("") == {}
    assert parse_machine_report('a=1\n\nb="x"\n') == {"a": 1, "b": "x"}


def test_check_output_does_not_depend_on_large_counts(tmp_path, capsys):
    kept = {}
    for n in (20, 2_000_000):
        f = tmp_path / f"pair-{n}.txt"
        f.write_text(f"1 2 {n}\n3 4 {n}\n")
        assert main(["check", str(f), "--certificates", "--witnesses",
                     "--machine"]) == 0
        rec = parse_machine_report(capsys.readouterr().out)
        assert rec["size"] == 2 * n
        kept[n] = {
            key: value["triples"] if key.startswith("blocked_") else value
            for key, value in rec.items()
            if key == "solution_set" or key.startswith(("arrangement_", "blocked_"))
        }
    assert kept[20] == kept[2_000_000]
    assert any(key.startswith("arrangement_") for key in kept[20])
    assert any(key.startswith("blocked_") for key in kept[20])


def _pinned_instances():
    rng = random.Random(20261018)
    out = []
    for k in range(200):
        if k % 40 == 7:  # five large instances
            out.append({c: rng.randint(80, 90) for c in rng.sample(CELLS, 6)})
        else:
            cells = rng.sample(CELLS, rng.randint(1, 12))
            out.append({c: rng.randint(1, 12) for c in cells})
    return out


def test_check_output_pinned(tmp_path, capsys):
    """Every verdict, arrangement and Hall witness of 200 seeded instances.

    The digest is the sha256 of the concatenated stdout of
    ``check <file> --certificates --witnesses --machine`` over the
    instances in order, each written as sorted ``i j count`` lines and
    the outputs encoded as UTF-8.  It was computed with this loop at
    commit 01f5156, where ``check`` matched each target twice (once for
    the verdict, once more for the certificate), and holds unchanged
    with one matching per target.
    """
    digest = hashlib.sha256()
    for k, counts in enumerate(_pinned_instances()):
        path = tmp_path / f"instance-{k:03d}.txt"
        path.write_text("".join(f"{i} {j} {n}\n" for (i, j), n in sorted(counts.items())))
        assert main(["check", str(path), "--certificates", "--witnesses",
                     "--machine"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == (
        "c930bb092681b1117dc4bbab97cae4cc3b5b6d4143ddd72e73cdffe8fbbdb9eb"
    )
