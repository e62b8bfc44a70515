"""LP, DIMACS, and neutral exports.

The CNF tests avoid external solvers: fixing every count digit of a
concrete instance makes the order encoding fully unit-propagatable, so
a small counter-based propagator decides satisfiability of the encoded
model at that point.
"""

import hashlib
from collections import deque
from dataclasses import replace

import pytest

from eightblocks.errors import UnsupportedModelError
from eightblocks.experiments import MAX_INFEASIBLE_23, MIN_UNIVERSAL_12
from eightblocks.export import export_dimacs, export_lp, export_neutral
from eightblocks.instances import Instance
from eightblocks.model import (
    existence_model,
    max_infeasible_model,
    min_universal_model,
)


def propagate(enc, units):
    """Unit propagation to fixpoint.  Returns (assignment, conflict, all_sat)."""
    clauses = enc.clauses
    occ: dict[int, list[int]] = {}
    for ci, cl in enumerate(clauses):
        for lit in cl:
            occ.setdefault(lit, []).append(ci)
    free = [len(cl) for cl in clauses]
    sat = [False] * len(clauses)
    assign: dict[int, bool] = {}
    queue = deque(units)
    while queue:
        lit = queue.popleft()
        v, val = abs(lit), lit > 0
        if v in assign:
            if assign[v] != val:
                return assign, True, False
            continue
        assign[v] = val
        for ci in occ.get(lit, ()):
            sat[ci] = True
        for ci in occ.get(-lit, ()):
            free[ci] -= 1
            if sat[ci]:
                continue
            if free[ci] == 0:
                return assign, True, False
            if free[ci] == 1:
                for other in clauses[ci]:
                    if abs(other) not in assign:
                        queue.append(other)
                        break
    return assign, False, all(sat)


# ----------------------------------------------------------------------
# byte-level pins: the expansion of targets into literal families must
# keep its order and wording


@pytest.mark.parametrize(
    "export, build, digest",
    [
        (export_neutral, min_universal_model,
         "fd5d46f82bd97304b34e15f669c9e728ac30cb4d5a7bd4501eef01bdd1bf47aa"),
        (export_lp, min_universal_model,
         "a99d7597b573345d0086274dea2489a5d627abfa126d603fd73b0a0b7f5f1d6c"),
        (export_neutral, lambda cat: existence_model([(1, 2)], "capped", cat),
         "9970937608a4132aececf7f2518c46b9d3a438b64da46a6ce2770f42b467af20"),
        (export_neutral, lambda cat: max_infeasible_model(24, "capped", cat),
         "4ae7a5371aa1438089c319f78b218efac3db532297d0575cd8fc25d52f0eb629"),
    ],
)
def test_export_bytes_pinned(cat, export, build, digest):
    text = export(build(cat))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ----------------------------------------------------------------------
# LP


def test_lp_min_universal_layout(cat):
    text = export_lp(min_universal_model(cat))
    lines = text.splitlines()
    for section in ("Minimize", "Subject To", "Bounds", "Generals", "End"):
        assert section in lines
    obj = next(l for l in lines if l.startswith(" obj:"))
    assert obj.count("x_") == 30
    covers = [l for l in lines if "_cover_" in l]
    # 256 subsets per target, minus the vacuous empty one
    assert len(covers) == 30 * 255
    assert all(">=" in l for l in covers)
    bounds = [l for l in lines if l.startswith(" 0 <= x_")]
    assert len(bounds) == 30 and all(l.endswith("<= 8") for l in bounds)
    generals = lines[lines.index("Generals") + 1]
    assert generals.count("x_") == 30


def test_lp_rejects_disjunctive_models(cat):
    with pytest.raises(UnsupportedModelError):
        export_lp(existence_model([(1, 2)], cat=cat))
    with pytest.raises(UnsupportedModelError):
        export_lp(max_infeasible_model(23, cat=cat))
    weird = replace(min_universal_model(cat), objective="maximize-total")
    with pytest.raises(UnsupportedModelError):
        export_lp(weird)


# ----------------------------------------------------------------------
# DIMACS


def test_dimacs_needs_bound_for_objectives(cat):
    with pytest.raises(UnsupportedModelError):
        export_dimacs(min_universal_model(cat))


def test_dimacs_rejects_raised_lower_bounds(cat):
    lifted = max_infeasible_model(9, cat=cat).restrict((1, 2), 1, 7)
    with pytest.raises(UnsupportedModelError):
        export_dimacs(lifted)


def test_dimacs_text_shape(cat):
    enc = export_dimacs(existence_model([(1, 2)], cat=cat))
    text = enc.text()
    lines = text.splitlines()
    header = next(l for l in lines if l.startswith("p cnf"))
    _, _, nv, nc = header.split()
    assert int(nv) == enc.num_vars and int(nc) == len(enc.clauses)
    assert lines[0].startswith("c ")
    body = [l for l in lines if not l.startswith(("c ", "p "))]
    assert all(l.endswith(" 0") for l in body)
    # one ladder of digit variables per cell: 8 for the target, 2 elsewhere
    assert len(enc.digit_var) == 8 + 29 * 2


def _supported_on(model, instance):
    """Zero out every cell outside the instance's support.

    Keeps the CNF small enough to unit-propagate in-process while still
    running the real constraint encodings over the remaining digits.
    """
    keep = set(instance.support())
    for var in model.variables:
        if var.coords not in keep:
            model = model.restrict(var.coords, 0, 0)
    return model


def test_dimacs_universal_instance_satisfies_min_universal(cat):
    model = _supported_on(min_universal_model(cat), MIN_UNIVERSAL_12)
    enc = export_dimacs(model, total_at_most=12)
    assert any("total count <= 12" in c for c in enc.comments)
    units = enc.encode_instance(MIN_UNIVERSAL_12)
    assign, conflict, all_sat = propagate(enc, units)
    assert not conflict and all_sat
    decoded = enc.decode_solution({v for v, b in assign.items() if b})
    assert decoded == MIN_UNIVERSAL_12


def test_dimacs_infeasible_instance_satisfies_forbid_model(cat):
    model = _supported_on(max_infeasible_model(23, mode="full", cat=cat),
                          MAX_INFEASIBLE_23)
    enc = export_dimacs(model)
    assign, conflict, all_sat = propagate(enc, enc.encode_instance(MAX_INFEASIBLE_23))
    assert not conflict and all_sat
    assert enc.decode_solution(assign) == MAX_INFEASIBLE_23
    # the same encoding rejects one cube too few
    short = MAX_INFEASIBLE_23.with_count(1, 5, 0)
    _, conflict2, _ = propagate(enc, enc.encode_instance(short))
    assert conflict2


def test_dimacs_cover_conflict(cat):
    # seven of a kind plus an incompatible cube cannot compose (1,2)
    stuck = Instance.from_pairs({(1, 2): 7, (2, 1): 1})
    model = _supported_on(existence_model([(1, 2)], cat=cat), stuck)
    enc = export_dimacs(model)
    _, conflict, _ = propagate(enc, enc.encode_instance(stuck))
    assert conflict


def test_dimacs_forbid_conflict(cat):
    # a universal instance violates every forbid constraint
    model = _supported_on(max_infeasible_model(12, mode="full", cat=cat),
                          MIN_UNIVERSAL_12)
    enc = export_dimacs(model)
    _, conflict, _ = propagate(enc, enc.encode_instance(MIN_UNIVERSAL_12))
    assert conflict


# ----------------------------------------------------------------------
# neutral dump


def test_neutral_dump_min_universal(cat):
    lines = export_neutral(min_universal_model(cat)).splitlines()
    assert lines[0] == "model min-universal"
    assert lines[1] == "mode full"
    assert lines[2] == "objective minimize-total"
    assert sum(l.startswith("var ") for l in lines) == 30
    assert sum(l.startswith("cover ") for l in lines) == 7680


def test_neutral_dump_existence(cat):
    lines = export_neutral(existence_model([(1, 2)], cat=cat)).splitlines()
    assert sum(l.startswith("linear total-supply ge 8") for l in lines) == 1
    assert sum(l.startswith("forbid ") for l in lines) == 29
    assert sum(l.startswith("  disjunct ") for l in lines) == 29 * 256
    assert sum(l.startswith("capbound ") for l in lines) == 290
