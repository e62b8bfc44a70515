"""Backtracking engine: verdicts, budgets, symmetry handling, enumeration."""

import functools
import itertools
import multiprocessing
import os
import time
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eightblocks.composability import (
    composable_from_vector,
    solution_set,
    tree_components,
    treecount_from_vector,
)
from eightblocks.errors import InvalidInputError
from eightblocks.experiments import run_max_infeasible
from eightblocks.instances import Instance
from eightblocks.model import (
    LinearConstraint,
    Model,
    VarietyVariable,
    check_assignment,
    existence_model,
    max_infeasible_model,
    min_universal_model,
)
from eightblocks.solver import (
    MAX_SPLIT_PARTS,
    N_CELLS,
    SearchOptions,
    _Compiled,
    _Search,
    _compiled,
    admissible_symmetries,
    enumerate_all,
    solve,
    solve_subproblems,
    split_subproblems,
    workers,
)
from eightblocks.symmetry import (
    canonical_vector,
    cell_perms,
    least_image,
    orbit_vectors,
)
from eightblocks.varieties import CELL_INDEX, CELLS, catalog


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
    res = solve(m)
    assert res.status == "unsat" and res.complete
    assert res.witness is None and res.nodes == 1


def test_singleton_existence_sat_and_deterministic(cat):
    m = existence_model([(3, 4)], mode="capped", cat=cat)
    a = solve(m)
    b = solve(m)
    assert a.status == b.status == "sat" and a.complete
    assert solution_set(a.witness, cat) == {(3, 4)}
    assert a.witness == b.witness and a.nodes == b.nodes


def test_symmetry_off_same_verdicts(cat):
    m = existence_model([(1, 2)], mode="capped", cat=cat)
    on = solve(m, SearchOptions(symmetry=True))
    off = solve(m, SearchOptions(symmetry=False))
    assert on.status == off.status == "sat"
    assert solution_set(off.witness, cat) == {(1, 2)}
    # row-supported size 24 cannot avoid composing something
    r24 = _row_restricted(max_infeasible_model(24, mode="full", cat=cat), 1)
    assert solve(r24, SearchOptions(symmetry=True)).status == "unsat"
    assert solve(r24, SearchOptions(symmetry=False)).status == "unsat"


def test_node_budget_timeout(cat):
    m = existence_model([(1, 2)], mode="capped", cat=cat)
    res = solve(m, SearchOptions(node_budget=2))
    assert res.status == "timeout" and not res.complete
    assert res.witness is None and res.nodes <= 3


def test_node_budget_holds_under_jobs(cat):
    m = max_infeasible_model(24, mode="capped", cat=cat)
    serial = solve(m, SearchOptions(jobs=1, node_budget=2000))
    par = solve(m, SearchOptions(jobs=2, node_budget=2000))
    assert serial.status == par.status == "timeout"
    assert serial.nodes == 2001 and par.nodes <= serial.nodes
    # a budget smaller than the subproblem count leaves some unsearched
    tiny = solve(m, SearchOptions(jobs=2, node_budget=1))
    assert tiny.status == "timeout" and tiny.nodes <= 2
    r23 = _row_restricted(max_infeasible_model(23, mode="full", cat=cat), 1)
    _, complete = enumerate_all(r23, SearchOptions(jobs=2, node_budget=1))
    assert not complete


def test_time_budget_timeout(cat):
    m = max_infeasible_model(24, mode="capped", cat=cat)
    res = solve(m, SearchOptions(time_budget=0.25))
    assert res.status == "timeout" and not res.complete


def test_time_budget_holds_under_jobs(cat):
    # eight subproblems on two workers share one deadline, rather than
    # taking the budget each
    m = max_infeasible_model(24, mode="full", cat=cat)
    start = time.monotonic()
    res = solve(m, SearchOptions(time_budget=1.0, jobs=2))
    assert res.status == "timeout"
    assert time.monotonic() - start < 2.5


def test_enumerate_row_maximizers(cat):
    r23 = _row_restricted(max_infeasible_model(23, mode="full", cat=cat), 1)
    found, complete = enumerate_all(r23)
    assert complete
    # the ten raw maximizers form one orbit under the row stabilizer
    assert len(found) == 1
    entries = sorted(n for _, n in found[0].items())
    assert entries == [1, 1, 7, 7, 7]
    r24 = _row_restricted(max_infeasible_model(24, mode="full", cat=cat), 1)
    nothing, complete24 = enumerate_all(r24)
    assert complete24 and nothing == []


def test_enumerate_matches_orbit_enumeration(cat):
    m = _uniform_model(
        "all-pairs", 1, [LinearConstraint("total", "eq", CELLS, 2)]
    )
    found, complete = enumerate_all(m)
    assert complete
    got = {canonical_vector(w.vector(), cat) for w in found}
    want = {canonical_vector(v, cat) for v, _ in orbit_vectors(2, cat, cap=1)}
    assert got == want and len(got) == 4


def test_parallel_jobs_same_answers(cat):
    m = existence_model([(2, 5)], mode="capped", cat=cat)
    seq = solve(m, SearchOptions(jobs=1))
    par = solve(m, SearchOptions(jobs=2))
    assert seq.status == par.status == "sat"
    assert solution_set(par.witness, cat) == {(2, 5)}
    # the parts search the serial tree, so they meet its witness first,
    # and it is the least image under the parent's admissible group
    vec = par.witness.vector()
    assert vec == seq.witness.vector()
    perms = [cell_perms(cat)[i] for i in admissible_symmetries(m, cat)]
    assert least_image(vec, perms) == vec
    m2 = _uniform_model("all-pairs", 1, [LinearConstraint("total", "eq", CELLS, 2)])
    f1, c1 = enumerate_all(m2, SearchOptions(jobs=1))
    f2, c2 = enumerate_all(m2, SearchOptions(jobs=2))
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
    res = solve(m)
    assert res.status == "optimal" and res.objective == 8
    assert res.witness.size == 8
    assert (1, 2) in solution_set(res.witness, cat)


def _floored():
    """Minimise the total over a floor row of 5 on the last three cells:
    levels 0 to 4 are empty, and 0 to 3 die at their root."""
    return _uniform_model(
        "floored", 2, [LinearConstraint("floor", "ge", CELLS[-3:], 5)],
        objective="minimize-total",
    )


def test_minimize_toy_levels(cat):
    # all six levels share one compile
    _compiled.cache_clear()
    res = solve(_floored())
    assert _compiled.cache_info().misses == 1
    assert res.status == "optimal" and res.objective == 5
    assert res.witness.vector() == (0,) * 27 + (1, 2, 2)
    assert res.nodes == 63
    assert res.prunes == {"prune_linear": 33, "sat_leaves": 1}


def test_minimize_toy_opens_one_pool(cat, monkeypatch):
    pools = []
    real_pool = multiprocessing.Pool

    def counted(*args, **kwargs):
        pools.append(args)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", counted)
    res = solve(_floored(), SearchOptions(jobs=2))
    # one pool serves every level of the call
    assert pools == [(2,)]
    assert res.status == "optimal" and res.objective == 5
    # each root-dead level dies once in each of the three parts
    assert res.nodes == 71
    assert res.prunes == {"prune_linear": 42, "sat_leaves": 1}
    # a pool has no more processes than parts: capped at one,
    # min-universal splits into two
    pools.clear()
    full = min_universal_model(cat)
    m = replace(full, variables=tuple(VarietyVariable(c, 0, 1) for c in CELLS))
    res = solve(m, SearchOptions(jobs=4))
    assert pools == [(2,)]
    assert res.status == "optimal" and res.objective == 12


def test_pool_has_at_most_one_process_per_cpu(monkeypatch):
    sizes = []

    class Recorded:
        """Stands in for a pool: records its size and starts nothing."""

        imap = staticmethod(map)

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(multiprocessing, "Pool", Recorded)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with workers(5000) as pmap:
        assert list(pmap(abs, [-1, 2])) == [1, 2]
    assert sizes == [2]
    # more jobs than one CPU still get a pool, of one process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    res = solve(_floored(), SearchOptions(jobs=5000))
    assert sizes == [2, 1]
    assert res.status == "optimal" and res.objective == 5


def test_unknown_objective_rejected(cat):
    # the total is minimised only
    for objective in ("maximize-entropy", "maximize-total"):
        m = replace(max_infeasible_model(9, cat=cat), objective=objective)
        with pytest.raises(InvalidInputError):
            solve(m)


def test_split_subproblems_partition(cat):
    m = existence_model([(1, 2)], mode="capped", cat=cat)
    subs = split_subproblems(m, depth=2)
    # first two free cells have 9 and 3 values
    assert len(subs) == 27 and len(set(subs)) == 27
    # in the search's value order: the required target (1,2) high to
    # low, the next cell low to high
    assert [s[:2] for s in subs[:4]] == [
        ((8, 8), (0, 0)), ((8, 8), (1, 1)), ((8, 8), (2, 2)), ((7, 7), (0, 0))
    ]
    fully = split_subproblems(_row_restricted(m, 1), depth=40)
    # splitting past the last free variable just returns the leaves
    assert all(all(lo == hi for lo, hi in s) for s in fully)
    assert len(fully) == 9 * 3**4
    # ten capped cells of three values each are too many parts to build
    capped = max_infeasible_model(24, mode="capped", cat=cat)
    assert len(split_subproblems(capped, depth=10)) == 3**10 <= MAX_SPLIT_PARTS
    with pytest.raises(InvalidInputError, match="177147 subproblems"):
        split_subproblems(capped, depth=11)


# ----------------------------------------------------------------------
# the two benchmark searches, pinned


def _count_oracle_calls(monkeypatch):
    """Counter of the solver's calls to the tree oracle: the verdict its
    required targets ask for and the count its forbidden ones do."""
    calls = Counter()

    def counted(kernel):
        def wrapped(*args):
            calls["oracle"] += 1
            return kernel(*args)

        return wrapped

    for name, kernel in (
        ("composable_from_vector", composable_from_vector),
        ("tree_components", tree_components),
    ):
        monkeypatch.setattr(f"eightblocks.solver.{name}", counted(kernel))
    return calls


def test_capped_max_infeasible_40_pinned(cat, monkeypatch):
    calls = _count_oracle_calls(monkeypatch)
    res = run_max_infeasible(40, mode="capped", cat=cat)
    assert res.status == "unsat" and res.complete
    assert res.nodes == 3171
    assert res.prunes == {
        "prune_forbidden_oracle": 999,
        "prune_linear": 500,
        "prune_symmetry": 441,
    }
    assert calls["oracle"] == 10665


def test_capped_one_min_universal_pinned(cat, monkeypatch):
    calls = _count_oracle_calls(monkeypatch)
    full = min_universal_model(cat)
    m = replace(full, variables=tuple(VarietyVariable(c, 0, 1) for c in CELLS))
    res = solve(m)
    assert res.status == "optimal" and res.objective == 12
    assert res.nodes == 4793
    assert res.prunes == {
        "prune_counting": 804,
        "prune_required_oracle": 472,
        "prune_symmetry": 1114,
        "sat_leaves": 1,
    }
    assert res.witness.vector() == (
        0, 0, 0, 1, 1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 0,
        0, 1, 1, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1,
    )
    assert calls["oracle"] == 50872


def test_full_mode_required_screen_pinned(cat, monkeypatch):
    # two cells take counts up to eight, so a required target's summed
    # upper bounds can reach eight while its capped supply cannot; the
    # oracle prunes those nodes itself, 162 of which a capped-supply
    # screen ahead of it would file under prune_counting
    calls = _count_oracle_calls(monkeypatch)
    wide = {(4, 5), (4, 6)}
    m = replace(
        min_universal_model(cat),
        variables=tuple(VarietyVariable(c, 0, 8 if c in wide else 1) for c in CELLS),
    )
    res = solve(m)
    assert res.status == "optimal" and res.objective == 12
    assert res.nodes == 19041
    assert res.prunes == {
        "prune_counting": 5167,
        "prune_required_oracle": 4077,
        "prune_symmetry": 481,
        "sat_leaves": 1,
    }
    assert res.witness.vector() == (
        1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0,
        0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1,
    )
    assert calls["oracle"] == 200186


@pytest.mark.parametrize("depth, nodes", [(1, 3170), (2, 3167)])
def test_split_walks_the_serial_tree(cat, depth, nodes):
    # the parts are the serial search's subtrees: only the split's own
    # nodes are missing, and every prune is the serial pin's
    m = max_infeasible_model(40, mode="capped", cat=cat)
    res = solve_subproblems(m, split_subproblems(m, depth), {}, None)
    assert res.status == "unsat" and res.complete
    assert res.nodes == nodes
    assert res.prunes == {
        "prune_forbidden_oracle": 999,
        "prune_linear": 500,
        "prune_symmetry": 441,
    }


def test_capped_one_min_universal_under_jobs(cat):
    full = min_universal_model(cat)
    m = replace(full, variables=tuple(VarietyVariable(c, 0, 1) for c in CELLS))
    serial = solve(m)
    res = solve(m, SearchOptions(jobs=2))
    assert res.status == "optimal" and res.objective == 12
    # the surrogate floor is already 12, so one level is searched: the
    # serial 4,793 nodes less its root
    assert res.nodes == 4792
    assert res.witness == serial.witness


# ----------------------------------------------------------------------
# forbidden-target bounds against brute force


@pytest.mark.parametrize(
    "free, size, mode",
    [
        (((1, 2), (4, 6), (5, 2), (5, 3), (3, 1), (1, 4), (2, 6)), 9, "capped"),
        (((3, 6), (1, 3), (5, 3), (2, 1), (4, 6), (2, 3), (1, 5)), 8, "capped"),
        (((1, 2), (6, 2), (3, 6), (5, 6), (2, 4)), 8, "full"),
        # forbidden (5, 1) with three cells of its row-6 supply line, where
        # that line's capped supply bound alone would fail nodes and lower
        # the bounds of (5, 1) and of the line's cells
        (((5, 1), (6, 2), (6, 4), (6, 3), (5, 6), (5, 4), (4, 2)), 9, "capped"),
    ],
)
def test_enumeration_matches_brute_force(cat, free, size, mode):
    # a few free cells whose tree counts bound the forbidden targets'
    # own counts in the search (a bound one lower loses solutions of
    # each); the box is walked with the model's literal checker alone,
    # no oracle and no propagation
    m = max_infeasible_model(size, mode=mode, cat=cat)
    for c in CELLS:
        if c not in free:
            m = m.restrict(c, 0, 0)
    ranges = [range(m.variable(c).lo, m.variable(c).hi + 1) for c in free]
    box = set()
    for values in itertools.product(*ranges):
        if sum(values) != size:  # the total-supply row, before the checker
            continue
        vec = [0] * N_CELLS
        for c, n in zip(free, values):
            vec[CELL_INDEX[c]] = n
        if check_assignment(m, Instance.from_vector(tuple(vec))).ok:
            box.add(tuple(vec))
    found, complete = enumerate_all(m, SearchOptions(symmetry=False))
    assert complete and box
    assert {inst.vector() for inst in found} == box


def test_forbidden_bound_wakes_required_targets(cat):
    # no row reads (2, 3), so once the forbidden loop lowers its hi,
    # only the required target it serves is left to run
    bounds = {(1, 2): (0, 8), (2, 3): (0, 7), (1, 4): (1, 1), (3, 1): (1, 1)}
    m = Model(
        "wake",
        tuple(VarietyVariable(c, *bounds.get(c, (0, 0))) for c in CELLS),
        (),
        required=frozenset({(1, 2)}),
        forbidden=frozenset({(2, 3)}),
    )
    s = _Search(_Compiled(m, SearchOptions(symmetry=False), cat), SearchOptions())
    assert _event_driven(s) is None
    # two edges at one triple make a tree beside five lone triples: six
    # trees, so at most five own cubes
    assert s.hi[CELL_INDEX[(2, 3)]] == 5


# ----------------------------------------------------------------------
# event-driven propagation against the full sweep


def _merged_rows(model):
    """Linear constraints per cell multiset as (cells, max lower, min upper)."""
    cells, lows, highs = {}, {}, {}
    for con in model.constraints:
        idxs = tuple(CELL_INDEX[c] for c in con.cells)
        key = tuple(sorted(idxs))
        cells.setdefault(key, idxs)
        if con.sense in ("ge", "eq"):
            lows.setdefault(key, []).append(con.rhs)
        if con.sense in ("le", "eq"):
            highs.setdefault(key, []).append(con.rhs)
    return [
        (
            idxs,
            max(lows[key]) if key in lows else None,
            min(highs[key]) if key in highs else None,
        )
        for key, idxs in cells.items()
    ]


def _full_sweep(s, rows):
    """Reference propagation: every row and required sum on every pass,
    and every forbidden target whose lo has moved.

    Returns the prune key of the contradiction, or None at a fixpoint.
    """
    c = s.c
    again = True
    while again:
        again = False
        for idxs, lo_rhs, hi_rhs in rows:
            slo = sum(s.lo[i] for i in idxs)
            shi = sum(s.hi[i] for i in idxs)
            if lo_rhs is not None:
                if shi < lo_rhs or (hi_rhs is not None and hi_rhs < lo_rhs):
                    return "prune_linear"
                for i in idxs:
                    need = lo_rhs - (shi - s.hi[i])
                    if need > s.lo[i]:
                        if not s._set_lo(i, need):
                            return "prune_linear"
                        again = True
            if hi_rhs is not None:
                if slo > hi_rhs:
                    return "prune_linear"
                for i in idxs:
                    room = hi_rhs - (slo - s.lo[i])
                    if room < s.hi[i]:
                        if not s._set_hi(i, room):
                            return "prune_linear"
                        again = True
        for slot, t in enumerate(c.req_targets):
            if s.req_sum_hi[slot] < 8:
                return "prune_counting"
            if s.req_dirty[slot]:
                s.req_dirty[slot] = False
                if not composable_from_vector(s.hi, t, c.cat):
                    return "prune_required_oracle"
        # a forbidden target's own count stays below its tree count at
        # lo, counted on the multigraph, with no screen
        for slot, t in enumerate(c.forb_targets):
            if s.forb_dirty[slot]:
                s.forb_dirty[slot] = False
                trees = treecount_from_vector(s.lo, t, c.cat)
                if s.lo[t] >= trees:
                    return "prune_forbidden_oracle"
                if s.hi[t] >= trees:
                    assert s._set_hi(t, trees - 1)
                    again = True
    return None


def _event_driven(s):
    """Prune key of the search's own propagation, or None."""
    before = dict(s.stats)
    ok = s._propagate()
    # the pending work is not saved with a node's state, so no call may
    # leave any behind
    assert not any(s.row_dirty)
    assert not any(s.req_dirty) and not any(s.forb_dirty)
    pruned = [k for k, n in s.stats.items() if n != before.get(k, 0)]
    assert len(pruned) == (0 if ok else 1)
    return None if ok else pruned[0]


def _assert_sums_recomputed(s):
    """The incremental sums agree with the bounds they summarise."""
    c = s.c
    assert s.req_sum_hi == [sum(s.hi[k] for k in c.usable[t]) for t in c.req_targets]
    assert s.forb_sum_lo == [sum(s.lo[k] for k in c.usable[t]) for t in c.forb_targets]
    assert s.slo == [sum(s.lo[k] for k in idxs) for idxs, _, _ in c.linear]
    assert s.shi == [sum(s.hi[k] for k in idxs) for idxs, _, _ in c.linear]


def _draw_cut(data, s):
    """Narrow one open domain of the search, as a branch does."""
    open_cells = [k for k in range(len(CELLS)) if s.lo[k] < s.hi[k]]
    k = data.draw(st.sampled_from(open_cells))
    hi = data.draw(st.integers(s.lo[k], s.hi[k]))
    # half the cuts fix the cell; the others may leave lo alone, and a
    # lowered hi alone wakes no forbidden target
    lo = hi if data.draw(st.booleans()) else data.draw(st.integers(s.lo[k], hi))
    assert s._set_lo(k, lo) and s._set_hi(k, hi)
    return k, lo, hi


_SENSES = st.sampled_from(["ge", "le", "eq"])


def _drawn_model(data, kind, cat):
    if kind != "existence":
        return max_infeasible_model(data.draw(st.integers(0, 60)), kind, cat)
    required = data.draw(
        st.lists(st.sampled_from(CELLS), min_size=1, max_size=2, unique=True)
    )
    m = existence_model(required, mode="capped", cat=cat)
    # the shared rows lie on one supply line of a forbidden target, so
    # the lo values they raise are the ones that bound its own count
    own = CELL_INDEX[data.draw(st.sampled_from(sorted(m.forbidden)))]
    _, _, capped = data.draw(st.sampled_from(cat.supply_lines[own]))
    shared = [CELLS[k] for k in (own,) + tuple(capped)]
    other = data.draw(
        st.lists(st.sampled_from(CELLS), min_size=1, max_size=6, unique=True)
    )

    def row(label, cells):
        rhs = data.draw(st.integers(0, 2 * len(cells) + 1))
        return LinearConstraint(label, data.draw(_SENSES), tuple(cells), rhs)

    # two rows over one cell multiset, listed in different orders
    rows = (row("a", shared), row("b", other), row("c", shared[::-1]))
    # emptying cells that serve a required target lets its oracle and
    # its counting screen see short supply
    t = CELL_INDEX[required[0]]
    serving = [CELLS[k] for k in (t,) + tuple(cat.compatible_cells[t])]
    for c in data.draw(st.permutations(serving))[: data.draw(st.integers(0, 21))]:
        m = m.restrict(c, 0, 0)
    return replace(m, constraints=m.constraints + rows)


@pytest.mark.parametrize("kind", ["capped", "full", "existence"])
@given(data=st.data())
def test_event_driven_propagation_matches_full_sweep(cat, kind, data):
    model = _drawn_model(data, kind, cat)
    rows = _merged_rows(model)
    comp = _Compiled(model, SearchOptions(symmetry=False), cat)
    new, ref = _Search(comp, SearchOptions()), _Search(comp, SearchOptions())
    # one dive from the root, each node reached by one cut and
    # propagated by both engines, as the search walks it
    prune = _event_driven(new)
    assert prune == _full_sweep(ref, rows)
    while prune is None and new.lo != new.hi:
        assert (new.lo, new.hi) == (ref.lo, ref.hi)
        # a sibling branch, propagated and backtracked, leaves no trace
        state = new._state()
        _draw_cut(data, new)
        _event_driven(new)
        new._restore(state)
        assert (new.lo, new.hi) == (ref.lo, ref.hi)
        _assert_sums_recomputed(new)
        k, lo, hi = _draw_cut(data, ref)
        assert new._set_lo(k, lo) and new._set_hi(k, hi)
        prune = _event_driven(new)
        assert prune == _full_sweep(ref, rows)
    if prune is None:
        assert (new.lo, new.hi) == (ref.lo, ref.hi)


# ----------------------------------------------------------------------
# watched symmetry dominance against the list scan


def _list_scan_advance(s, states):
    """Reference dominance step: every live comparison on every node.

    Returns the states left live, or None for a dominated node.
    """
    keep = []
    lo, hi = s.lo, s.hi
    for pi, ptr in states:
        while ptr < N_CELLS:
            if lo[ptr] != hi[ptr]:
                break
            src = pi[ptr]
            if lo[src] != hi[src]:
                break
            a = lo[ptr]
            b = lo[src]
            if b < a:
                return None
            if b > a:
                ptr = -1
                break
            ptr += 1
        if 0 <= ptr < N_CELLS:
            keep.append((pi, ptr))
    return keep


def _watched_states(s, watch):
    """States of a watched map, each checked to sit under its blocking cell."""
    lo, hi = s.lo, s.hi
    for cell, chunks in watch.items():
        assert lo[cell] < hi[cell]
        for chunk in chunks:
            blocking = {ptr if lo[ptr] < hi[ptr] else pi[ptr] for pi, ptr in chunk}
            assert blocking == {cell}
    return _multiset(st for chunks in watch.values() for chunk in chunks for st in chunk)


def _multiset(states):
    # a plain dict compares in C; Counter's own == walks both in Python
    return dict(Counter(states))


def _snapshot(watch):
    return {cell: [list(chunk) for chunk in chunks] for cell, chunks in watch.items()}


@functools.cache
def _compiled_with_symmetry(kind, size):
    cat = catalog()
    if kind == "universal":
        full = min_universal_model(cat)
        model = replace(full, variables=tuple(VarietyVariable(c, 0, 1) for c in CELLS))
    else:
        model = max_infeasible_model(size, kind, cat)
    return _Compiled(model, SearchOptions(), cat)


@pytest.mark.parametrize("kind", ["capped", "full", "universal"])
@given(data=st.data())
def test_watched_dominance_matches_list_scan(kind, data):
    # capped at one, min-universal has one model; compiling each model
    # once keeps the examples on the dives
    size = 0 if kind == "universal" else data.draw(st.integers(0, 60))
    comp = _compiled_with_symmetry(kind, size)
    s = _Search(comp, SearchOptions())
    watch = comp.root_watch
    ref = [(pi, 0) for pi in comp.inv_perms]
    # one dive from the root, each node propagated and then advanced by
    # both engines, as the search walks it
    while s._propagate():
        watch, ref = s._advance(watch), _list_scan_advance(s, ref)
        assert (watch is None) == (ref is None)
        if ref is None:
            break
        assert _watched_states(s, watch) == _multiset(ref)
        if s.lo == s.hi:
            break
        # a sibling branch, advanced and backtracked, leaves the map as
        # it was
        before = _snapshot(watch)
        state = s._state()
        _draw_cut(data, s)
        if s._propagate():
            s._advance(watch)
        s._restore(state)
        assert _snapshot(watch) == before
        _assert_sums_recomputed(s)
        _draw_cut(data, s)
