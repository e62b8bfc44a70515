"""Constraint-model builders and the literal assignment checker."""

import random
from dataclasses import replace

import pytest

from eightblocks.composability import solution_set
from eightblocks.errors import InvalidInputError
from eightblocks.experiments import (
    MAX_INFEASIBLE_23,
    MIN_UNIVERSAL_12,
    NINE_CUBE_DEMO,
)
from eightblocks.instances import Instance
from eightblocks.model import (
    CapBoundConstraint,
    ForbiddenConstraint,
    HallConstraint,
    LinearConstraint,
    cap_bounds,
    check_assignment,
    existence_model,
    expanded_constraints,
    hall_family,
    max_infeasible_model,
    min_universal_model,
)
from eightblocks.varieties import CELLS


def _kinds(model):
    out = {"linear": 0, "hall": 0, "forbid": 0, "cap": 0}
    for con in expanded_constraints(model):
        if isinstance(con, LinearConstraint):
            out["linear"] += 1
        elif isinstance(con, HallConstraint):
            out["hall"] += 1
        elif isinstance(con, ForbiddenConstraint):
            out["forbid"] += 1
        elif isinstance(con, CapBoundConstraint):
            out["cap"] += 1
    return out


def test_existence_singleton_structure(cat):
    m = existence_model([(1, 2)], mode="capped", cat=cat)
    assert _kinds(m) == {"linear": 1, "hall": 256, "forbid": 29, "cap": 290}
    assert len(expanded_constraints(m)) == 576
    assert m.required == {(1, 2)}
    assert m.forbidden == frozenset(CELLS) - {(1, 2)}
    assert m.objective is None
    # required cell may hold a full build, the rest stay under the cap
    assert m.variable((1, 2)).hi == 8
    assert all(m.variable(c).hi == 2 for c in CELLS if c != (1, 2))
    full = existence_model([(1, 2)], mode="full", cat=cat)
    assert all(full.variable(c).hi == 7 for c in CELLS if c != (1, 2))


def test_existence_empty_admits_zero_instance(cat):
    m = existence_model([], cat=cat)
    assert _kinds(m) == {"linear": 0, "hall": 0, "forbid": 30, "cap": 300}
    res = check_assignment(m, Instance.zero())
    assert res.ok and res.violations == ()


def test_min_universal_structure(cat):
    m = min_universal_model(cat)
    assert _kinds(m) == {"linear": 0, "hall": 7680, "forbid": 0, "cap": 0}
    assert m.objective == "minimize-total"
    assert m.required == frozenset(CELLS)
    assert m.domains() == ((0, 8),) * 30


def test_max_infeasible_structure(cat):
    m = max_infeasible_model(24, mode="full", cat=cat)
    assert _kinds(m) == {"linear": 1, "hall": 0, "forbid": 30, "cap": 300}
    assert len(expanded_constraints(m)) == 331
    assert m.domains() == ((0, 7),) * 30
    capped = max_infeasible_model(24, mode="capped", cat=cat)
    assert capped.domains() == ((0, 2),) * 30
    # tiny sizes shrink the domains further
    assert max_infeasible_model(1, mode="full", cat=cat).domains() == ((0, 1),) * 30


def test_hall_family_shapes(cat):
    fam = hall_family((1, 2), cat)
    assert len(fam) == 256
    by_rhs = {}
    for con in fam:
        by_rhs.setdefault(con.rhs, []).append(con)
        assert con.rhs == len(con.triples)
    # one subset of each size, binomially many
    assert {k: len(v) for k, v in by_rhs.items()} == {
        0: 1, 1: 8, 2: 28, 3: 56, 4: 70, 5: 56, 6: 28, 7: 8, 8: 1
    }
    empty = by_rhs[0][0]
    assert empty.cells == () and empty.triples == ()
    # every triple of the target is shared with exactly five compatibles
    for con in by_rhs[1]:
        assert len(con.cells) == 6 and con.cells[0] == (1, 2)
    whole = by_rhs[8][0]
    assert len(whole.cells) == 21  # target plus all twenty compatibles


def test_cap_bounds_shape(cat):
    bounds = cap_bounds((2, 4), cat)
    assert len(bounds) == 10
    axes = [(b.axis, b.line) for b in bounds]
    assert axes == [
        ("row", 1), ("row", 3), ("row", 4), ("row", 5), ("row", 6),
        ("col", 1), ("col", 2), ("col", 3), ("col", 5), ("col", 6),
    ]
    for b in bounds:
        assert len(b.capped_cells) == 4
        assert b.cap == 2 and b.limit == 7
        if b.axis == "row":
            assert all(i == b.line for i, _ in b.capped_cells)
        else:
            assert all(j == b.line for _, j in b.capped_cells)


def test_reference_instances_satisfy_their_models(cat):
    assert check_assignment(min_universal_model(cat), MIN_UNIVERSAL_12).ok
    inf = MAX_INFEASIBLE_23
    assert check_assignment(max_infeasible_model(23, mode="full", cat=cat), inf).ok
    # the demo composes (4,1) and (4,3) besides (1,2), so requiring only
    # (1,2) must trip exactly those forbid constraints
    res = check_assignment(existence_model([(1, 2)], cat=cat), NINE_CUBE_DEMO)
    assert not res.ok
    assert {v.split(":")[0] for v in res.violations} == {
        "forbid (4, 1)",
        "forbid (4, 3)",
    }


def test_check_matches_oracle_on_random_capped_instances(cat):
    rng = random.Random(4021)
    for _ in range(25):
        cells = rng.sample(CELLS, rng.randint(3, 6))
        inst = Instance.from_pairs({c: rng.randint(1, 2) for c in cells})
        sols = solution_set(inst, cat)
        model = existence_model(sols, mode="capped", cat=cat)
        assert check_assignment(model, inst).ok
        # demanding any extra target must fail
        extra = rng.choice([c for c in CELLS if c not in sols])
        wrong = existence_model(set(sols) | {extra}, mode="capped", cat=cat)
        assert not check_assignment(wrong, inst).ok


def test_restrict_and_domain_errors(cat):
    m = existence_model([(1, 2)], cat=cat)
    narrowed = m.restrict((2, 1), 1, 2)
    assert narrowed.variable((2, 1)).lo == 1
    assert m.variable((2, 1)).lo == 0  # original untouched
    with pytest.raises(InvalidInputError):
        narrowed.restrict((2, 1), 3, 5)  # [3,2] is empty


def test_builder_input_validation(cat):
    with pytest.raises(InvalidInputError):
        existence_model([(1, 1)], cat=cat)
    with pytest.raises(InvalidInputError):
        existence_model([(1, 2)], mode="loose", cat=cat)
    with pytest.raises(InvalidInputError):
        max_infeasible_model(-1, cat=cat)
    # targets are declared by the two sets, never as constraints
    m = existence_model([(1, 2)], cat=cat)
    with pytest.raises(InvalidInputError):
        replace(m, constraints=hall_family((1, 2), cat))
    with pytest.raises(InvalidInputError):
        replace(m, forbidden=frozenset(CELLS))


def test_domain_violation_reported(cat):
    m = max_infeasible_model(24, mode="capped", cat=cat)
    fat = Instance.from_pairs({(1, 2): 3, (3, 4): 2})
    res = check_assignment(m, fat)
    assert any(v.startswith("domain (1, 2)") for v in res.violations)
