"""Acceptance suite.

One test per headline claim, each printing ``ACCEPTANCE <n> (<label>):
PASS|FAIL`` (run with ``-s`` to see the lines as they appear).  The
default selection runs criteria 1-6.  Criteria 7-8 carry the
``extended`` marker (``pytest -m extended``).  Criteria 9-11 are
long searches: they carry the ``long`` marker and additionally require
``EIGHTBLOCKS_RUN_LONG=1``; their checkpoint files live in the system
temp directory so aborted runs resume where they stopped.  Criterion 11
finishes, and has a time budget like criteria 7 and 8.
"""

import math
import os
import random
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from eightblocks import cubes
from eightblocks.composability import (
    is_composable_matching,
    solution_set,
    universal_lower_bound,
)
from eightblocks.experiments import (
    octet_census,
    oracle_agreement,
    row_restricted_max_infeasible,
    run_existence,
    run_max_infeasible,
    run_min_universal,
    verify_reference_facts,
    verify_small_sizes_infeasible,
)
from eightblocks.instances import Instance
from eightblocks.model import expanded_constraints, hall_family, min_universal_model
from eightblocks.symmetry import count_orbits
from eightblocks.varieties import CELL_INDEX, CELLS

T_12 = frozenset(
    {
        ("p", "q", "t"), ("p", "s", "u"), ("p", "t", "s"), ("p", "u", "q"),
        ("q", "r", "t"), ("q", "u", "r"), ("r", "s", "t"), ("r", "u", "s"),
    }
)
T_21 = frozenset(
    {
        ("p", "t", "q"), ("p", "u", "s"), ("p", "s", "t"), ("p", "q", "u"),
        ("q", "t", "r"), ("q", "r", "u"), ("r", "t", "s"), ("r", "s", "u"),
    }
)

CENSUS_HISTOGRAM = (
    (0, 18507, 22849650),
    (1, 8854, 11910150),
    (2, 2754, 3422460),
    (3, 313, 370080),
    (4, 69, 49500),
    (5, 6, 4200),
    (6, 7, 1980),
)

LONG_ENABLED = os.environ.get("EIGHTBLOCKS_RUN_LONG") == "1"
long_tier = pytest.mark.skipif(
    not LONG_ENABLED, reason="set EIGHTBLOCKS_RUN_LONG=1 to run the long tier"
)


def _checkpoint(name: str) -> Path:
    return Path(tempfile.gettempdir()) / f"eightblocks-acceptance-{name}.jsonl"


@contextmanager
def _criterion(num: int, label: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"\nACCEPTANCE {num} ({label}): FAIL [{elapsed:.1f}s over {budget:.0f}s budget]")
        raise AssertionError(
            f"criterion {num} took {elapsed:.1f}s, budget {budget:.0f}s"
        )
    print(f"\nACCEPTANCE {num} ({label}): PASS [{elapsed:.1f}s]")


# ----------------------------------------------------------------------
# core tier


def test_criterion_1_variety_algebra(cat):
    with _criterion(1, "variety algebra", budget=1.0):
        assert len(cat.varieties) == 30
        assert len(cubes.all_triples()) == 40
        for v in cat.varieties:
            assert len(v.triples) == 8
            assert len(cat.compatible(v)) == 20
            assert len(cat.incompatible(v)) == 9
            swap = cat.swap_neighbors(v)
            rot = cat.rotation_neighbors(v)
            assert len(swap) == 12 and len(rot) == 8
            assert not (set(swap) & set(rot))
            assert set(swap) | set(rot) == set(cat.compatible(v))
        for a in cat.varieties:
            for b in cat.varieties:
                if a.index != b.index:
                    assert cat.share_count(a, b) in (0, 2)
        for v in cat.varieties:
            i, j = v.coords
            # mirror across the diagonal
            assert cat.variety(j, i).triples == frozenset(
                cubes.mirror_triple(t) for t in v.triples
            )
            # rows and columns are incompatibility cliques
            for w in cat.varieties:
                if v.index == w.index:
                    continue
                same_line = v.coords[0] == w.coords[0] or v.coords[1] == w.coords[1]
                if same_line:
                    assert cat.share_count(v, w) == 0
        assert cat.variety(1, 2).triples == T_12
        assert cat.variety(2, 1).triples == T_21


def test_criterion_2_reference_instances(cat):
    with _criterion(2, "reference instances", budget=30.0):
        report = verify_reference_facts(cat)
        assert report.ok, [c.name for c in report.checks if not c.ok]
        assert report.demo_solution_set == {(1, 2), (4, 1), (4, 3)}
        assert universal_lower_bound() == 12
        checked = verify_small_sizes_infeasible(limit=7, cat=cat)
        assert checked == sum(count_orbits(s, cat) for s in range(8))


def test_criterion_3_oracle_equivalence(cat):
    with _criterion(3, "oracle equivalence", budget=120.0):
        report = oracle_agreement(cat=cat)
        assert report.ok
        assert report.corpus_pairs == 63_204_000
        assert report.corpus_disagreements == 0
        assert report.corpus_bound_violations == 0
        assert report.random_instances == 100_000
        assert report.random_disagreements == 0
        assert report.random_bound_violations == 0
        assert report.anchored_comparisons > 0
        assert report.hall_witnesses_checked > 0


def test_criterion_4_row_scan(cat):
    with _criterion(4, "row-restricted extremal scan", budget=5.0):
        report = row_restricted_max_infeasible(row=1, cat=cat)
        assert report.scanned == 32_768
        assert report.max_size == 23
        assert len(report.maximizers) == 10
        for w in report.maximizers:
            assert sorted((n for _, n in w.items()), reverse=True) == [7, 7, 7, 1, 1]
            assert solution_set(w, cat) == frozenset()


def test_criterion_5_constructive_existence(cat):
    with _criterion(5, "eight-copies existence", budget=5.0):
        for cell in CELLS:
            inst = Instance.from_pairs({cell: 8})
            assert solution_set(inst, cat, oracle="matching") == {cell}
            assert solution_set(inst, cat, oracle="treecount") == {cell}


def test_criterion_6_model_fidelity(cat):
    with _criterion(6, "model fidelity", budget=60.0):
        assert len(expanded_constraints(min_universal_model(cat), cat)) == 7_680
        fams = {c: hall_family(c, cat) for c in CELLS}
        compiled = {
            c: [
                (tuple(CELL_INDEX[x] for x in con.cells), con.rhs)
                for con in fams[c]
            ]
            for c in CELLS
        }
        rng = random.Random(20260823)
        for _ in range(10_000):
            cells = rng.sample(CELLS, rng.randint(1, 8))
            inst = Instance.from_pairs({c: rng.randint(1, 8) for c in cells})
            vec = inst.vector()
            target = rng.choice(CELLS)
            halls_hold = all(
                sum(vec[k] for k in idxs) >= rhs
                for idxs, rhs in compiled[target]
            )
            assert halls_hold == is_composable_matching(inst, target, cat)


# ----------------------------------------------------------------------
# extended tier


@pytest.mark.extended
def test_criterion_7_min_universal_optimum(cat):
    with _criterion(7, "smallest universal instance", budget=600.0):
        res = run_min_universal(cat=cat)
        assert res.status == "optimal"
        assert res.objective == 12
        assert res.witness.size == 12
        assert solution_set(res.witness, cat, oracle="matching") == frozenset(CELLS)


@pytest.mark.extended
def test_criterion_8_octet_census(cat):
    with _criterion(8, "eight-cube census", budget=7200.0):
        report = octet_census(cat)
        assert report.max_size == 6
        assert report.histogram == CENSUS_HISTOGRAM
        assert report.orbit_total == 30_510
        assert report.raw_total == math.comb(37, 8)
        assert len(solution_set(report.example, cat, oracle="matching")) == 6


# ----------------------------------------------------------------------
# long tier


@pytest.mark.long
@long_tier
def test_criterion_9_capped_24_unsat(cat):
    with _criterion(9, "no capped 24-cube infeasible instance"):
        res = run_max_infeasible(
            24, mode="capped", cat=cat, checkpoint=_checkpoint("capped24")
        )
        assert res.status == "unsat" and res.complete


@pytest.mark.long
@long_tier
def test_criterion_10_row_targets_unsat(cat):
    with _criterion(10, "no instance composing exactly one row"):
        row = [(1, j) for j in range(2, 7)]
        res = run_existence(
            row,
            mode="capped",
            cat=cat,
            checkpoint=_checkpoint("row1"),
            split_depth=3,
        )
        assert res.status == "unsat" and res.complete


@pytest.mark.long
@long_tier
def test_criterion_11_full_24_unsat(cat):
    with _criterion(11, "no unrestricted 24-cube infeasible instance", budget=900.0):
        res = run_max_infeasible(
            24,
            mode="full",
            cat=cat,
            checkpoint=_checkpoint("full24"),
            split_depth=3,
        )
        if res.status == "sat":
            # contradicts the capped-search expectation: show the witness
            print("REPORTABLE FINDING: 24-cube infeasible instance found")
            for (i, j), n in res.witness.items():
                print(f"  ({i},{j}) x {n}")
            assert solution_set(res.witness, cat, oracle="matching") == frozenset()
        assert res.status == "unsat" and res.complete
