"""Backtracking engine for the count-vector constraint models.

Search walks the 30 table-cell variables with interval domains, running
bound propagation, capped supply cuts and the composability oracles at
every node.  The model's required and forbidden target sets are decided
by the tree oracle, never by their 256-subset families; the linear
constraints and each forbidden target's cap bounds are handled by plain
arithmetic.  Variables are chosen required targets first, then by
smallest domain; required cells try values high to low, others low to
high.

Symmetry handling is dominance-only: at every node each admissible
table symmetry is advanced along a fixed-prefix comparison, and a
branch dies when some image is provably lexicographically smaller.
Completed witnesses are returned in canonical form.  A verdict of
UNSAT therefore always covers the full search space, not just one
fundamental domain.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .composability import composable_from_vector
from .errors import InvalidInputError
from .instances import Instance
from .model import LinearConstraint, Model, cap_bounds, check_assignment
from .symmetry import (
    Symmetry,
    cell_perms,
    group,
    group_index,
    inverse_cell_perms,
    permuted_vector,
)
from .varieties import CELLS, CELL_INDEX, COMPATIBLE_CAP, OWN_CAP, Catalog, catalog

N_CELLS = len(CELLS)


@dataclass(frozen=True)
class SearchOptions:
    symmetry: bool = True
    node_budget: int | None = None
    time_budget: float | None = None
    jobs: int = 1

    def __post_init__(self):
        if self.node_budget is not None and self.node_budget < 0:
            raise InvalidInputError("node budget must not be negative")
        if self.time_budget is not None and self.time_budget < 0:
            raise InvalidInputError("time budget must not be negative")
        if self.jobs < 1:
            raise InvalidInputError("jobs must be at least 1")


@dataclass(frozen=True)
class SearchResult:
    status: str  # 'sat' | 'unsat' | 'optimal' | 'timeout'
    witness: Instance | None
    objective: int | None
    nodes: int
    prunes: dict[str, int]
    wall_time: float
    complete: bool


class _Budget(Exception):
    pass


# ----------------------------------------------------------------------
# admissible symmetries


def admissible_symmetries(
    model: Model, cat: Catalog | None = None
) -> tuple[Symmetry, ...]:
    """Group elements that keep the model invariant.

    An element qualifies when its cell action preserves every domain,
    maps the required and forbidden target sets onto themselves, and
    maps each linear constraint onto one of the others.  Covering and
    forbidding families need no check: they are carried along with
    their targets, and the capped supply bounds are consequences of
    the forbidden families they accompany.
    """
    cat = cat or catalog()
    syms = group(cat)
    perms = cell_perms(cat)
    doms = tuple((v.lo, v.hi) for v in model.variables)
    req = frozenset(CELL_INDEX[c] for c in model.required)
    forb = frozenset(CELL_INDEX[c] for c in model.forbidden)
    linear_sigs = frozenset(
        (con.sense, con.rhs, frozenset(CELL_INDEX[c] for c in con.cells))
        for con in model.constraints
    )
    out = []
    for s, p in zip(syms, perms):
        if any(doms[p[k]] != doms[k] for k in range(N_CELLS)):
            continue
        if frozenset(p[k] for k in req) != req:
            continue
        if frozenset(p[k] for k in forb) != forb:
            continue
        ok = all(
            (sense, rhs, frozenset(p[k] for k in cells)) in linear_sigs
            for (sense, rhs, cells) in linear_sigs
        )
        if ok:
            out.append(s)
    return tuple(out)


# ----------------------------------------------------------------------
# compilation


class _Compiled:
    def __init__(self, model: Model, options: SearchOptions, cat: Catalog):
        self.model = model
        self.cat = cat
        self.lo0 = [v.lo for v in model.variables]
        self.hi0 = [v.hi for v in model.variables]
        # usable cells of a target: itself plus its compatible cells
        self.usable = [
            (t,) + tuple(cat.compatible_cells[t]) for t in range(N_CELLS)
        ]

        self.linear = [
            (con.sense, tuple(CELL_INDEX[c] for c in con.cells), con.rhs)
            for con in model.constraints
        ]
        self.req_targets = [k for k, c in enumerate(CELLS) if c in model.required]
        self.forb_targets = [k for k, c in enumerate(CELLS) if c in model.forbidden]
        self.required_idx = frozenset(self.req_targets)
        self.cap_lines = [
            (
                CELL_INDEX[b.own_cell],
                tuple(CELL_INDEX[c] for c in b.capped_cells),
                b.cap,
                b.limit,
            )
            for t in self.forb_targets
            for b in cap_bounds(CELLS[t], cat)
        ]
        self.req_of_cell: list[list[int]] = [[] for _ in range(N_CELLS)]
        for slot, t in enumerate(self.req_targets):
            for k in self.usable[t]:
                self.req_of_cell[k].append(slot)
        self.forb_of_cell: list[list[int]] = [[] for _ in range(N_CELLS)]
        for slot, t in enumerate(self.forb_targets):
            for k in self.usable[t]:
                self.forb_of_cell[k].append(slot)

        positions = (
            [group_index(cat)[s] for s in admissible_symmetries(model, cat)]
            if options.symmetry
            else []
        )
        self.perms = [cell_perms(cat)[i] for i in positions]
        # dominance comparison needs inverses; drop the identity
        identity = tuple(range(N_CELLS))
        inverses = inverse_cell_perms(cat)
        self.inv_perms = [
            inverses[i] for i in positions if inverses[i] != identity
        ]

    def canonical_witness(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        if not self.perms:
            return vec
        return min(permuted_vector(vec, p) for p in self.perms)


# ----------------------------------------------------------------------
# the search proper


class _Search:
    def __init__(self, comp: _Compiled, options: SearchOptions):
        self.c = comp
        self.lo = list(comp.lo0)
        self.hi = list(comp.hi0)
        self.trail: list[tuple[int, int, int]] = []
        self.stats: Counter[str] = Counter()
        self.req_sum_hi = [
            sum(self.hi[k] for k in comp.usable[t]) for t in comp.req_targets
        ]
        self.forb_sum_lo = [
            sum(self.lo[k] for k in comp.usable[t]) for t in comp.forb_targets
        ]
        self.req_dirty = [True] * len(comp.req_targets)
        self.forb_dirty = [True] * len(comp.forb_targets)
        self.deadline = (
            time.monotonic() + options.time_budget
            if options.time_budget is not None
            else None
        )
        self.node_budget = options.node_budget
        self.witness: tuple[int, ...] | None = None
        self.all_witnesses: set[tuple[int, ...]] | None = None

    # -- trail ----------------------------------------------------------

    def _undo(self, mark: int):
        t = self.trail
        while len(t) > mark:
            kind, a, old = t.pop()
            if kind == 0:
                delta = old - self.lo[a]
                self.lo[a] = old
                for slot in self.c.forb_of_cell[a]:
                    self.forb_sum_lo[slot] += delta
            elif kind == 1:
                delta = old - self.hi[a]
                self.hi[a] = old
                for slot in self.c.req_of_cell[a]:
                    self.req_sum_hi[slot] += delta
            elif kind == 2:
                self.req_dirty[a] = bool(old)
            else:
                self.forb_dirty[a] = bool(old)

    def _set_lo(self, k: int, v: int) -> bool:
        if v <= self.lo[k]:
            return True
        if v > self.hi[k]:
            return False
        self.trail.append((0, k, self.lo[k]))
        delta = v - self.lo[k]
        self.lo[k] = v
        for slot in self.c.forb_of_cell[k]:
            self.forb_sum_lo[slot] += delta
            if not self.forb_dirty[slot]:
                self.trail.append((3, slot, 0))
                self.forb_dirty[slot] = True
        return True

    def _set_hi(self, k: int, v: int) -> bool:
        if v >= self.hi[k]:
            return True
        if v < self.lo[k]:
            return False
        self.trail.append((1, k, self.hi[k]))
        delta = v - self.hi[k]
        self.hi[k] = v
        for slot in self.c.req_of_cell[k]:
            self.req_sum_hi[slot] += delta
            if not self.req_dirty[slot]:
                self.trail.append((2, slot, 0))
                self.req_dirty[slot] = True
        return True

    # -- propagation ----------------------------------------------------

    def _capped_supply(self, vec: list[int], t: int) -> int:
        s = vec[t]
        if s > OWN_CAP:
            s = OWN_CAP
        cap = COMPATIBLE_CAP
        for k in self.c.usable[t][1:]:
            n = vec[k]
            s += n if n < cap else cap
        return s

    def _propagate(self) -> bool:
        c = self.c
        again = True
        while again:
            again = False
            for sense, idxs, rhs in c.linear:
                slo = shi = 0
                for i in idxs:
                    slo += self.lo[i]
                    shi += self.hi[i]
                if sense != "le":
                    if shi < rhs:
                        self.stats["prune_linear"] += 1
                        return False
                    for i in idxs:
                        need = rhs - (shi - self.hi[i])
                        if need > self.lo[i]:
                            if not self._set_lo(i, need):
                                self.stats["prune_linear"] += 1
                                return False
                            again = True
                if sense != "ge":
                    if slo > rhs:
                        self.stats["prune_linear"] += 1
                        return False
                    for i in idxs:
                        room = rhs - (slo - self.lo[i])
                        if room < self.hi[i]:
                            if not self._set_hi(i, room):
                                self.stats["prune_linear"] += 1
                                return False
                            again = True
            for own, cells4, cap, limit in c.cap_lines:
                base = self.lo[own]
                for k in cells4:
                    m = self.lo[k]
                    base += m if m < cap else cap
                if base > limit:
                    self.stats["prune_capbound"] += 1
                    return False
                room_own = limit - (base - self.lo[own])
                if room_own < self.hi[own]:
                    if not self._set_hi(own, room_own):
                        self.stats["prune_capbound"] += 1
                        return False
                    again = True
                for k in cells4:
                    m = self.lo[k]
                    m = m if m < cap else cap
                    room = limit - (base - m)
                    if room < cap and room < self.hi[k]:
                        if not self._set_hi(k, room):
                            self.stats["prune_capbound"] += 1
                            return False
                        again = True
            for slot, t in enumerate(c.req_targets):
                if self.req_sum_hi[slot] < 8:
                    self.stats["prune_counting"] += 1
                    return False
                if self.req_dirty[slot]:
                    self.trail.append((2, slot, 1))
                    self.req_dirty[slot] = False
                    # one cube covers at most two target corners, so the
                    # capped supply must reach eight before the oracle can
                    if self._capped_supply(self.hi, t) < 8:
                        self.stats["prune_counting"] += 1
                        return False
                    if not composable_from_vector(self.hi, t, c.cat):
                        self.stats["prune_required_oracle"] += 1
                        return False
            for slot, t in enumerate(c.forb_targets):
                if self.forb_dirty[slot]:
                    self.trail.append((3, slot, 1))
                    self.forb_dirty[slot] = False
                    if (
                        self.forb_sum_lo[slot] >= 8
                        and self._capped_supply(self.lo, t) >= 8
                        and composable_from_vector(self.lo, t, c.cat)
                    ):
                        self.stats["prune_forbidden_oracle"] += 1
                        return False
        return True

    # -- symmetry dominance ---------------------------------------------

    def _advance(
        self, states: list[tuple[tuple[int, ...], int]]
    ) -> list[tuple[tuple[int, ...], int]] | None:
        """Advance prefix comparisons; None signals a dominated node."""
        keep: list[tuple[tuple[int, ...], int]] = []
        lo, hi = self.lo, self.hi
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
                    self.stats["prune_symmetry"] += 1
                    return None
                if b > a:
                    ptr = -1  # image provably larger: drop this element
                    break
                ptr += 1
            if 0 <= ptr < N_CELLS:
                keep.append((pi, ptr))
        return keep

    # -- main recursion --------------------------------------------------

    def _tick(self):
        self.stats["nodes"] += 1
        if self.node_budget is not None and self.stats["nodes"] > self.node_budget:
            raise _Budget
        if self.deadline is not None and self.stats["nodes"] % 512 == 0:
            if time.monotonic() > self.deadline:
                raise _Budget

    def _pick_var(self) -> int:
        unfixed = [k for k in range(N_CELLS) if self.lo[k] < self.hi[k]]
        # settle the targets that must be composable before the rest
        for k in unfixed:
            if k in self.c.required_idx:
                return k
        span = min(self.hi[k] - self.lo[k] for k in unfixed)
        best, best_score = -1, -1
        for k in unfixed:
            if self.hi[k] - self.lo[k] != span:
                continue
            score = 0
            for slot in self.c.req_of_cell[k]:
                if self.req_sum_hi[slot] - 8 <= 1:
                    score += 1
            for slot in self.c.forb_of_cell[k]:
                if 8 - self.forb_sum_lo[slot] <= 1:
                    score += 1
            if score > best_score:
                best, best_score = k, score
        return best

    def _values(self, k: int):
        if k in self.c.required_idx:
            return range(self.hi[k], self.lo[k] - 1, -1)
        return range(self.lo[k], self.hi[k] + 1)

    def _search(self, states: list[tuple[tuple[int, ...], int]]) -> bool:
        """Returns True to stop the whole search (decision satisfied)."""
        self._tick()
        mark = len(self.trail)
        if not self._propagate():
            self._undo(mark)
            return False
        nst = self._advance(states)
        if nst is None:
            self._undo(mark)
            return False
        if all(self.lo[k] == self.hi[k] for k in range(N_CELLS)):
            stop = self._leaf()
            self._undo(mark)
            return stop
        k = self._pick_var()
        for v in self._values(k):
            m2 = len(self.trail)
            ok = self._set_lo(k, v) and self._set_hi(k, v)
            if ok and self._search(nst):
                self._undo(mark)
                return True
            self._undo(m2)
        self._undo(mark)
        return False

    def _leaf(self) -> bool:
        vec = tuple(self.lo)
        res = check_assignment(self.c.model, Instance.from_vector(vec))
        if not res.ok:
            self.stats["leaf_reject"] += 1
            return False
        self.stats["sat_leaves"] += 1
        canon = self.c.canonical_witness(vec)
        if self.all_witnesses is not None:
            self.all_witnesses.add(canon)
            return False
        self.witness = canon
        return True

    def run_decision(self) -> tuple[str, tuple[int, ...] | None]:
        try:
            found = self._search([(pi, 0) for pi in self.c.inv_perms])
        except _Budget:
            return "timeout", None
        return ("sat", self.witness) if found else ("unsat", None)

    def run_enumerate(self) -> tuple[bool, list[tuple[int, ...]]]:
        self.all_witnesses = set()
        try:
            self._search([(pi, 0) for pi in self.c.inv_perms])
            complete = True
        except _Budget:
            complete = False
        return complete, sorted(self.all_witnesses)


# ----------------------------------------------------------------------
# public drivers


def _decision_once(
    model: Model, options: SearchOptions, cat: Catalog
) -> tuple[str, tuple[int, ...] | None, Counter]:
    comp = _Compiled(model, options, cat)
    s = _Search(comp, options)
    status, vec = s.run_decision()
    return status, vec, s.stats


def _surrogate_floor(model: Model, cat: Catalog) -> int:
    """Provable lower bound on the total count over all solutions."""
    lo_total = sum(v.lo for v in model.variables)
    best = lo_total
    for con in model.constraints:
        if con.sense in ("ge", "eq") and frozenset(con.cells) == frozenset(CELLS):
            best = max(best, con.rhs)
    req = [CELL_INDEX[c] for c in model.required]
    if req:
        occ = [0] * N_CELLS
        demand = 0
        for t in req:
            demand += 8
            occ[t] += 1
            for k in cat.compatible_cells[t]:
                occ[k] += 1
        best = max(best, math.ceil(demand / max(occ)))
    return best


def _remaining_options(
    options: SearchOptions, used_nodes: int, start: float
) -> SearchOptions:
    nb = options.node_budget
    tb = options.time_budget
    return replace(
        options,
        node_budget=None if nb is None else max(0, nb - used_nodes),
        time_budget=None if tb is None else max(0.0, tb - (time.monotonic() - start)),
    )


def _split_values(model: Model) -> tuple[tuple[int, int], list[int]] | None:
    for v in model.variables:
        if v.lo < v.hi:
            return v.coords, list(range(v.hi, v.lo - 1, -1))
    return None


def split_subproblems(model: Model, depth: int = 1) -> list[Model]:
    """Partition of the model by fixing the first free cells, in search order."""
    if depth < 0:
        raise InvalidInputError(f"negative split depth {depth}")
    subs = [model]
    for _ in range(depth):
        nxt = []
        for m in subs:
            sv = _split_values(m)
            if sv is None:
                nxt.append(m)
                continue
            cell, values = sv
            for val in values:
                nxt.append(m.restrict(cell, val, val))
        subs = nxt
    return subs


def _subproblem_tasks(
    subs: list[Model], options: SearchOptions
) -> list[tuple[Model, SearchOptions]]:
    """Serial options per subproblem, together spending no more nodes
    than one serial search of the parent may.

    A search with node budget b counts at most b + 1 nodes, so the
    parent's b + 1 are dealt out evenly and a share s becomes budget
    s - 1.  Subproblems whose share is zero are left out; the caller
    reports them as not searched.
    """
    opts = replace(options, jobs=1)
    nb = options.node_budget
    if nb is None:
        return [(m, opts) for m in subs]
    q, r = divmod(nb + 1, len(subs))
    shares = [q + (i < r) for i in range(len(subs))]
    return [
        (m, replace(opts, node_budget=share - 1))
        for m, share in zip(subs, shares)
        if share
    ]


def _run_subproblems(
    model: Model, options: SearchOptions, cat: Catalog, run: Callable
) -> tuple[list, bool]:
    """Results of ``run(model, options, cat)`` over the model's subproblems,
    and whether every subproblem was run.

    One job runs the model itself in-process, so node counts match a
    plain search.  More jobs split it on its first free cell and map the
    subproblems over a process pool, dealing out the node budget with
    ``_subproblem_tasks``.
    """
    if options.jobs == 1:
        return [run(model, options, cat)], True
    subs = split_subproblems(model, depth=1)
    tasks = [(run, m, opts) for m, opts in _subproblem_tasks(subs, options)]
    with ProcessPoolExecutor(max_workers=options.jobs) as pool:
        results = list(pool.map(_run_in_worker, tasks))
    return results, len(tasks) == len(subs)


def _run_in_worker(task):
    run, model, options = task
    return run(model, options, catalog())


def _decide(
    model: Model, options: SearchOptions, cat: Catalog
) -> tuple[str, tuple[int, ...] | None, Counter]:
    results, all_run = _run_subproblems(model, options, cat, _decision_once)
    stats: Counter = Counter()
    status_all = "unsat" if all_run else "timeout"
    witness = None
    for status, vec, st in results:
        stats.update(st)
        if status == "sat" and status_all != "sat":
            status_all, witness = "sat", vec
        elif status == "timeout" and status_all == "unsat":
            status_all = "timeout"
    if witness is not None:
        # restricted subproblems carry smaller admissible groups, so
        # their canonical forms must be re-reduced under the parent's
        witness = _Compiled(model, options, cat).canonical_witness(witness)
    return status_all, witness, stats


def solve(
    model: Model, options: SearchOptions | None = None, cat: Catalog | None = None
) -> SearchResult:
    """Decide or optimize the model; verdicts are final unless 'timeout'."""
    options = options or SearchOptions()
    cat = cat or catalog()
    start = time.monotonic()

    def finish(status, vec, stats, objective=None):
        wit = Instance.from_vector(vec) if vec is not None else None
        if wit is not None:
            confirm = check_assignment(model, wit)
            if not confirm.ok:
                raise AssertionError(
                    f"engine returned a bad witness: {confirm.violations[:3]}"
                )
        return SearchResult(
            status=status,
            witness=wit,
            objective=objective,
            nodes=stats.get("nodes", 0),
            prunes={k: v for k, v in sorted(stats.items()) if k != "nodes"},
            wall_time=time.monotonic() - start,
            complete=status in ("sat", "unsat", "optimal"),
        )

    if model.objective is None:
        return finish(*_decide(model, options, cat))

    if model.objective not in ("minimize-total", "maximize-total"):
        raise InvalidInputError(f"unknown objective {model.objective!r}")

    total_stats: Counter = Counter()
    minimize = model.objective == "minimize-total"
    if minimize:
        bound = _surrogate_floor(model, cat)
        step = 1
        sense = "le"
    else:
        bound = sum(v.hi for v in model.variables)
        step = -1
        sense = "ge"
    lo_total = sum(v.lo for v in model.variables)
    hi_total = sum(v.hi for v in model.variables)
    while lo_total <= bound <= hi_total:
        level = replace(
            model,
            constraints=model.constraints
            + (LinearConstraint("objective-bound", sense, CELLS, bound),),
            objective=None,
        )
        opts = _remaining_options(options, total_stats.get("nodes", 0), start)
        status, vec, stats = _decide(level, opts, cat)
        total_stats.update(stats)
        if status == "sat":
            got = sum(vec)
            return finish("optimal", vec, total_stats, objective=got)
        if status == "timeout":
            return finish("timeout", None, total_stats)
        bound += step
    return finish("unsat", None, total_stats)


def enumerate_all(
    model: Model, options: SearchOptions | None = None, cat: Catalog | None = None
) -> tuple[list[Instance], bool]:
    """All solutions up to the admissible symmetries, plus a completeness flag."""
    options = options or SearchOptions()
    cat = cat or catalog()
    results, complete = _run_subproblems(model, options, cat, _enumerate_once)
    parent = _Compiled(model, options, cat)
    out = []
    found = {parent.canonical_witness(v) for _, vecs in results for v in vecs}
    for vec in sorted(found):
        inst = Instance.from_vector(vec)
        if not check_assignment(model, inst).ok:
            raise AssertionError("enumeration produced a bad witness")
        out.append(inst)
    return out, complete and all(flag for flag, _ in results)


def _enumerate_once(
    model: Model, options: SearchOptions, cat: Catalog
) -> tuple[bool, list[tuple[int, ...]]]:
    return _Search(_Compiled(model, options, cat), options).run_enumerate()
