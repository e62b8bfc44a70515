"""Packaged experiment drivers: reference checks, sweeps, checkpointing."""

import functools
import json
import multiprocessing
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eightblocks import experiments, solver
from eightblocks.composability import solution_set
from eightblocks.errors import ExperimentError, InvalidInputError
from eightblocks.experiments import (
    NINE_CUBE_DEMO,
    _census_chunk,
    _census_tally,
    _verify_generates_exactly,
    census_csv,
    checkpointed_solve,
    oracle_agreement,
    reference_instances,
    row_restricted_max_infeasible,
    run_existence,
    run_max_infeasible,
    verify_reference_facts,
    verify_small_sizes_infeasible,
)
from eightblocks.model import existence_model, max_infeasible_model, min_universal_model
from eightblocks.solver import SearchOptions, admissible_symmetries, solve
from eightblocks.symmetry import (
    cell_perms,
    count_orbits,
    least_image,
    orbit_vectors,
)
from eightblocks.varieties import CELLS, catalog


def _row_model(size, row, cat):
    m = max_infeasible_model(size, mode="full", cat=cat)
    for c in CELLS:
        if c[0] != row:
            m = m.restrict(c, 0, 0)
    return m


def test_reference_instances_and_facts(cat):
    refs = reference_instances()
    assert set(refs) == {"nine-cube-demo", "max-infeasible-23", "min-universal-12"}
    assert refs["nine-cube-demo"] == NINE_CUBE_DEMO
    assert refs["max-infeasible-23"].size == 23
    assert refs["min-universal-12"].size == 12
    report = verify_reference_facts(cat)
    assert report.ok
    assert all(c.ok for c in report.checks)
    assert len(report.checks) == 11
    assert report.demo_solution_set == {(1, 2), (4, 1), (4, 3)}


def test_small_sizes_sweep_counts_orbits(cat):
    checked = verify_small_sizes_infeasible(limit=3, cat=cat)
    assert checked == sum(count_orbits(s, cat) for s in range(4))
    with pytest.raises(InvalidInputError):
        verify_small_sizes_infeasible(limit=8, cat=cat)


def test_oracle_agreement_reduced(cat):
    report = oracle_agreement(
        random_count=2000,
        seed=99,
        anchors_per_size=40,
        sizes=(1, 2),
        support_limit=40,
        cat=cat,
    )
    assert report.ok
    assert report.corpus_supports and report.corpus_instances
    assert report.corpus_pairs == report.corpus_instances * 30
    assert report.anchored_comparisons > 0
    assert report.random_instances == 2000
    assert report.hall_witnesses_checked > 0


def test_row_scan_other_row(cat):
    report = row_restricted_max_infeasible(row=3, cat=cat)
    assert report.scanned == 8**5
    assert report.max_size == 23
    assert len(report.maximizers) == 10
    for w in report.maximizers:
        assert sorted(n for _, n in w.items()) == [1, 1, 7, 7, 7]
        assert solution_set(w, cat) == frozenset()
    with pytest.raises(InvalidInputError):
        row_restricted_max_infeasible(row=7, cat=cat)


def test_census_chunk_matches_direct_count(cat):
    reps = []
    for vec, osize in orbit_vectors(8, cat):
        reps.append((vec, osize))
        if len(reps) == 60:
            break
    hist, best = _census_chunk(reps)
    from eightblocks.instances import Instance

    for vec, osize in reps:
        k = len(solution_set(Instance.from_vector(vec), cat))
        orbits, raw = hist[k]
        assert orbits >= 1 and raw >= osize
    assert sum(o for o, _ in hist.values()) == len(reps)
    assert sum(r for _, r in hist.values()) == sum(o for _, o in reps)
    assert best is not None


def test_census_tally_of_halves_matches_the_whole(cat):
    reps = list(orbit_vectors(4, cat))
    half = len(reps) // 2
    calls = []
    with ProcessPoolExecutor(max_workers=2) as pool:
        merged = _census_tally(
            [reps[:half], reps[half:]], pool.map, lambda *a: calls.append(a)
        )
    assert merged == _census_chunk(reps)
    assert calls == [(half, len(reps)), (len(reps), len(reps))]


class _Stop(Exception):
    pass


@pytest.mark.parametrize(
    "jobs, cpus, pools, chunks",
    [(5000, 2, [2], [10] * 8), (3, 1, [1], [20] * 4), (1, 2, [], [20] * 4)],
)
def test_census_chunks_follow_the_pool_size(
    cat, monkeypatch, jobs, cpus, pools, chunks
):
    # four chunks per process the pool really opens, not per job asked for
    reps = [((0,) * len(CELLS), 1)] * 80
    monkeypatch.setattr(experiments, "orbit_vectors", lambda size, cat: iter(reps))
    monkeypatch.setattr(solver, "_usable_cpus", lambda: cpus)
    seen = []

    def tally(chunks, chunk_map, progress):
        seen.append([len(c) for c in chunks])
        raise _Stop

    class Recorded:
        """Stands in for a pool: records its size and starts nothing."""

        imap = staticmethod(map)

        def __init__(self, processes):
            seen.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(experiments, "_census_tally", tally)
    monkeypatch.setattr(multiprocessing, "Pool", Recorded)
    with pytest.raises(_Stop):
        experiments.octet_census(cat, jobs=jobs)
    assert seen == pools + [chunks]


def test_census_csv_layout():
    from eightblocks.experiments import CensusReport
    from eightblocks.instances import Instance

    rep = CensusReport(
        histogram=((0, 2, 10), (1, 1, 3)),
        max_size=1,
        example=Instance.zero(),
        orbit_total=3,
        raw_total=13,
        wall_time=0.0,
    )
    text = census_csv(rep)
    assert text.splitlines() == [
        "solution_set_size,orbit_count,raw_count",
        "0,2,10",
        "1,1,3",
    ]


def test_run_existence_singleton(cat):
    res = run_existence([(6, 2)], cat=cat)
    assert res.status == "sat"
    assert solution_set(res.witness, cat) == {(6, 2)}


def test_run_max_infeasible_small(cat):
    res = run_max_infeasible(9, mode="full", cat=cat)
    assert res.status == "sat"
    assert res.witness.size == 9
    assert solution_set(res.witness, cat) == frozenset()


def test_verify_generates_exactly_raises(cat):
    with pytest.raises(ExperimentError):
        _verify_generates_exactly(NINE_CUBE_DEMO, frozenset({(1, 2)}), cat)


# ----------------------------------------------------------------------
# checkpointing


def test_checkpoint_round_trip(tmp_path, cat):
    path = tmp_path / "run.jsonl"
    model = _row_model(24, 1, cat)
    res = checkpointed_solve(model, path, split_depth=2)
    assert res.status == "unsat" and res.complete
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["model"] == model.name
    assert header["subproblems"] == len(lines) - 1
    # a finished run resumes to the same verdict without re-solving
    again = checkpointed_solve(model, path, split_depth=2)
    assert again.status == "unsat"
    assert path.read_text().splitlines() == lines


def test_checkpoint_sat_stops_early(tmp_path, cat):
    path = tmp_path / "sat.jsonl"
    model = _row_model(23, 1, cat)
    res = checkpointed_solve(model, path, split_depth=1)
    assert res.status == "sat"
    assert res.witness.size == 23
    recs = [json.loads(l) for l in path.read_text().splitlines()[1:]]
    assert recs[-1]["status"] == "sat"
    assert all(r["status"] != "sat" for r in recs[:-1])


def test_checkpoint_header_mismatch(tmp_path, cat):
    path = tmp_path / "run.jsonl"
    checkpointed_solve(_row_model(24, 1, cat), path, split_depth=1)
    with pytest.raises(ExperimentError):
        checkpointed_solve(_row_model(24, 2, cat), path, split_depth=1)
    with pytest.raises(ExperimentError):
        checkpointed_solve(_row_model(24, 1, cat), path, split_depth=2)


def test_checkpoint_of_an_earlier_format_is_refused(tmp_path, cat):
    # earlier files split high to low, so their subproblem indices name
    # other parts of the search and must never be resumed
    path = tmp_path / "old.jsonl"
    model = _row_model(24, 1, cat)
    header = {
        "model": model.name,
        "domains": [list(d) for d in model.domains()],
        "split_depth": 1,
        "subproblems": 8,
    }
    record = {"index": 0, "status": "unsat", "nodes": 1, "prunes": {}, "witness": None}
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(ExperimentError, match=str(path)):
        checkpointed_solve(model, path, split_depth=1)


def test_checkpoint_tolerates_torn_line(tmp_path, cat):
    path = tmp_path / "run.jsonl"
    model = _row_model(24, 1, cat)
    checkpointed_solve(model, path, split_depth=1)
    whole = path.read_text().splitlines()
    path.write_text("\n".join(whole[:3]) + '\n{"index": 3, "stat')
    res = checkpointed_solve(model, path, split_depth=1)
    assert res.status == "unsat"


@pytest.mark.parametrize(
    "record",
    [
        '{"index": 0}',  # parseable, but missing keys
        '{"index": 8, "status": "unsat", "nodes": 1, "prunes": {}, "witness": null}',
        '{"index": -1, "status": "unsat", "nodes": 1, "prunes": {}, "witness": null}',
        '[0, "unsat", 1, {}, null]',
        '{"index": 0, "status": "done", "nodes": 1, "prunes": {}, "witness": null}',
        '{"index": 0, "status": "sat", "nodes": 1, "prunes": {}, "witness": [1, 2]}',
    ],
)
def test_checkpoint_rejects_malformed_records(tmp_path, cat, record):
    path = tmp_path / "run.jsonl"
    model = _row_model(24, 1, cat)
    checkpointed_solve(model, path, split_depth=1)
    header = path.read_text().splitlines()[0]
    path.write_text(f"{header}\n{record}\n")
    with pytest.raises(ExperimentError, match="line 2"):
        checkpointed_solve(model, path, split_depth=1)


@functools.cache
def _finished_checkpoint():
    """Bytes of a finished checkpoint of eight row-model subproblems."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.jsonl"
        checkpointed_solve(_row_model(24, 1, catalog()), path, split_depth=1)
        return path.read_bytes()


@given(data=st.data())
def test_checkpoint_resumes_after_a_cut_at_any_byte(cat, data):
    whole = _finished_checkpoint()
    # a cut on either side of a line's newline leaves that line whole
    # but maybe unterminated, so those offsets are drawn often
    ends = [i for i, byte in enumerate(whole) if byte == ord("\n")]
    edges = st.sampled_from([i + d for i in ends for d in (0, 1)])
    cut = data.draw(st.integers(0, len(whole)) | edges)
    model = _row_model(24, 1, cat)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.jsonl"
        path.write_bytes(whole[:cut])
        assert checkpointed_solve(model, path, split_depth=1).status == "unsat"
        resumed = path.read_bytes()
        # a second resume re-solves nothing, so every line of the first
        # one parsed and no record was written onto a torn one
        assert checkpointed_solve(model, path, split_depth=1).status == "unsat"
        assert path.read_bytes() == resumed
    assert resumed.endswith(b"\n")
    lines = resumed.decode().splitlines()
    assert sorted(json.loads(line)["index"] for line in lines[1:]) == list(range(8))


def test_checkpoint_retries_timeouts(tmp_path, cat):
    path = tmp_path / "run.jsonl"
    model = _row_model(24, 1, cat)
    starved = checkpointed_solve(
        model, path, SearchOptions(node_budget=1), split_depth=1
    )
    assert starved.status == "timeout" and not starved.complete
    done = checkpointed_solve(model, path, split_depth=1)
    assert done.status == "unsat"
    recs = [json.loads(l) for l in path.read_text().splitlines()[1:]]
    by_index = {}
    for r in recs:
        by_index.setdefault(r["index"], []).append(r["status"])
    assert all(statuses[-1] == "unsat" for statuses in by_index.values())


def test_checkpoint_node_budget_covers_the_call(tmp_path, cat):
    model = max_infeasible_model(24, mode="capped", cat=cat)
    res = checkpointed_solve(
        model, tmp_path / "run.jsonl", SearchOptions(node_budget=100)
    )
    assert res.status == "timeout"
    # as many nodes as one plain search with the same budget may count
    assert res.nodes <= 101


def test_checkpoint_time_budget_covers_the_call(tmp_path, cat):
    model = max_infeasible_model(24, mode="full", cat=cat)
    start = time.monotonic()
    res = checkpointed_solve(
        model, tmp_path / "run.jsonl", SearchOptions(time_budget=0.25)
    )
    assert res.status == "timeout"
    # 64 subproblems share one deadline, rather than taking 0.25 s each
    assert time.monotonic() - start < 3.0


def test_checkpoint_witness_is_parent_canonical_under_jobs(tmp_path, cat):
    model = existence_model([(2, 5)], cat=cat)
    witnesses = []
    for jobs in (1, 2):
        path = tmp_path / f"jobs-{jobs}.jsonl"
        res = checkpointed_solve(model, path, SearchOptions(jobs=jobs))
        assert res.status == "sat"
        statuses = [json.loads(l)["status"] for l in path.read_text().splitlines()[1:]]
        assert statuses.index("sat") == len(statuses) - 1
        witnesses.append(res.witness.vector())
    # the split walks the serial tree, so it meets the serial witness
    assert witnesses[0] == witnesses[1] == solve(model).witness.vector()
    perms = [cell_perms(cat)[i] for i in admissible_symmetries(model, cat)]
    assert least_image(witnesses[0], perms) == witnesses[0]


def test_checkpoint_rejects_objective_models(tmp_path, cat):
    with pytest.raises(InvalidInputError):
        checkpointed_solve(min_universal_model(cat), tmp_path / "x.jsonl")


def test_oversized_split_is_refused_before_any_file(tmp_path, cat):
    # capped 24 split 40 deep would fix all 30 cells: 3**30 subproblems
    path = tmp_path / "run.jsonl"
    model = max_infeasible_model(24, mode="capped", cat=cat)
    start = time.monotonic()
    with pytest.raises(InvalidInputError, match="subproblems"):
        checkpointed_solve(model, path, SearchOptions(node_budget=5), split_depth=40)
    assert time.monotonic() - start < 1.0
    assert not path.exists()
