"""Backtracking engine: verdicts, budgets, symmetry handling, enumeration."""

from dataclasses import replace

import pytest

from eightblocks.composability import solution_set
from eightblocks.errors import InvalidInputError
from eightblocks.model import (
    LinearConstraint,
    Model,
    VarietyVariable,
    existence_model,
    max_infeasible_model,
)
from eightblocks.solver import (
    SearchOptions,
    _Compiled,
    admissible_symmetries,
    enumerate_all,
    solve,
    split_subproblems,
)
from eightblocks.symmetry import canonical_vector, orbit_vectors
from eightblocks.varieties import CELLS


def _uniform_model(name, hi, constraints, objective=None):
    return Model(
        name=name,
        variables=tuple(VarietyVariable(c, 0, hi) for c in CELLS),
        constraints=tuple(constraints),
        objective=objective,
    )


def _row_restricted(model, row):
    for c in CELLS:
        if c[0] != row:
            model = model.restrict(c, 0, 0)
    return model


def test_immediate_unsat_by_propagation(cat):
    m = _uniform_model(
        "toy-unsat", 8, [LinearConstraint("too-much", "ge", ((1, 2),), 9)]
    )
    res = solve(m, cat=cat)
    assert res.status == "unsat" and res.complete
    assert res.witness is None and res.nodes == 1


def test_singleton_existence_sat_and_deterministic(cat):
    m = existence_model([(3, 4)], mode="capped", cat=cat)
    a = solve(m, cat=cat)
    b = solve(m, cat=cat)
    assert a.status == b.status == "sat" and a.complete
    assert solution_set(a.witness, cat) == {(3, 4)}
    assert a.witness == b.witness and a.nodes == b.nodes


def test_symmetry_off_same_verdicts(cat):
    m = existence_model([(1, 2)], mode="capped", cat=cat)
    on = solve(m, SearchOptions(symmetry=True), cat=cat)
    off = solve(m, SearchOptions(symmetry=False), cat=cat)
    assert on.status == off.status == "sat"
    assert solution_set(off.witness, cat) == {(1, 2)}
    # row-supported size 24 cannot avoid composing something
    r24 = _row_restricted(max_infeasible_model(24, mode="full", cat=cat), 1)
    assert solve(r24, SearchOptions(symmetry=True), cat=cat).status == "unsat"
    assert solve(r24, SearchOptions(symmetry=False), cat=cat).status == "unsat"


def test_node_budget_timeout(cat):
    m = existence_model([(1, 2)], mode="capped", cat=cat)
    res = solve(m, SearchOptions(node_budget=2), cat=cat)
    assert res.status == "timeout" and not res.complete
    assert res.witness is None and res.nodes <= 3


def test_node_budget_holds_under_jobs(cat):
    m = max_infeasible_model(24, mode="capped", cat=cat)
    serial = solve(m, SearchOptions(jobs=1, node_budget=2000), cat=cat)
    par = solve(m, SearchOptions(jobs=2, node_budget=2000), cat=cat)
    assert serial.status == par.status == "timeout"
    assert serial.nodes == 2001 and par.nodes <= serial.nodes
    # a budget smaller than the subproblem count leaves some unsearched
    tiny = solve(m, SearchOptions(jobs=2, node_budget=1), cat=cat)
    assert tiny.status == "timeout" and tiny.nodes <= 2
    r23 = _row_restricted(max_infeasible_model(23, mode="full", cat=cat), 1)
    _, complete = enumerate_all(r23, SearchOptions(jobs=2, node_budget=1), cat=cat)
    assert not complete


def test_time_budget_timeout(cat):
    m = max_infeasible_model(24, mode="capped", cat=cat)
    res = solve(m, SearchOptions(time_budget=0.25), cat=cat)
    assert res.status == "timeout" and not res.complete


def test_enumerate_row_maximizers(cat):
    r23 = _row_restricted(max_infeasible_model(23, mode="full", cat=cat), 1)
    found, complete = enumerate_all(r23, cat=cat)
    assert complete
    # the ten raw maximizers form one orbit under the row stabilizer
    assert len(found) == 1
    entries = sorted(n for _, n in found[0].items())
    assert entries == [1, 1, 7, 7, 7]
    r24 = _row_restricted(max_infeasible_model(24, mode="full", cat=cat), 1)
    nothing, complete24 = enumerate_all(r24, cat=cat)
    assert complete24 and nothing == []


def test_enumerate_matches_orbit_enumeration(cat):
    m = _uniform_model(
        "all-pairs", 1, [LinearConstraint("total", "eq", CELLS, 2)]
    )
    found, complete = enumerate_all(m, cat=cat)
    assert complete
    got = {canonical_vector(w.vector(), cat) for w in found}
    want = {canonical_vector(v, cat) for v, _ in orbit_vectors(2, cat, cap=1)}
    assert got == want and len(got) == 4


def test_parallel_jobs_same_answers(cat):
    m = existence_model([(2, 5)], mode="capped", cat=cat)
    seq = solve(m, SearchOptions(jobs=1), cat=cat)
    par = solve(m, SearchOptions(jobs=2), cat=cat)
    assert seq.status == par.status == "sat"
    assert solution_set(par.witness, cat) == {(2, 5)}
    # the split may find a different solution, but it is reported in
    # the parent model's canonical form, as a serial witness is
    vec = par.witness.vector()
    assert _Compiled(m, SearchOptions(), cat).canonical_witness(vec) == vec
    m2 = _uniform_model("all-pairs", 1, [LinearConstraint("total", "eq", CELLS, 2)])
    f1, c1 = enumerate_all(m2, SearchOptions(jobs=1), cat=cat)
    f2, c2 = enumerate_all(m2, SearchOptions(jobs=2), cat=cat)
    assert c1 and c2 and f1 == f2


def test_admissible_symmetry_sizes(cat):
    assert len(admissible_symmetries(max_infeasible_model(23, cat=cat), cat)) == 1440
    # stabilizer of one required cell: fix both colors, or swap them
    # under the mirror
    assert len(admissible_symmetries(existence_model([(1, 2)], cat=cat), cat)) == 48


def test_options_validation():
    with pytest.raises(InvalidInputError):
        SearchOptions(jobs=0)
    with pytest.raises(InvalidInputError):
        SearchOptions(node_budget=-5)
    with pytest.raises(InvalidInputError):
        SearchOptions(time_budget=-1.0)


def test_minimize_toy(cat):
    m = Model(
        name="cheapest-single-target",
        variables=tuple(VarietyVariable(c, 0, 8) for c in CELLS),
        constraints=(),
        objective="minimize-total",
        required=frozenset({(1, 2)}),
    )
    res = solve(m, cat=cat)
    assert res.status == "optimal" and res.objective == 8
    assert res.witness.size == 8
    assert (1, 2) in solution_set(res.witness, cat)


def test_maximize_toy(cat):
    m = _uniform_model(
        "stuffed", 2, [LinearConstraint("room", "le", CELLS, 5)],
        objective="maximize-total",
    )
    # symmetry off: dominance is recompiled per deepening level and the
    # toy has dozens of trivially infeasible levels
    res = solve(m, SearchOptions(symmetry=False), cat=cat)
    assert res.status == "optimal" and res.objective == 5
    assert res.witness.size == 5


def test_unknown_objective_rejected(cat):
    m = replace(max_infeasible_model(9, cat=cat), objective="maximize-entropy")
    with pytest.raises(InvalidInputError):
        solve(m, cat=cat)


def test_split_subproblems_partition(cat):
    m = existence_model([(1, 2)], mode="capped", cat=cat)
    subs = split_subproblems(m, depth=2)
    # first two free cells have 9 and 3 values
    assert len(subs) == 27
    doms = {tuple(s.domains()) for s in subs}
    assert len(doms) == 27
    fully = split_subproblems(_row_restricted(m, 1), depth=40)
    # splitting past the last free variable just returns the leaves
    assert all(all(lo == hi for lo, hi in s.domains()) for s in fully)
