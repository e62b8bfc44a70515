"""Backtracking engine for the count-vector constraint models.

Search walks the 30 table-cell variables with interval domains, running
bound propagation and the composability oracles at every node.  The
model's required and forbidden target sets are decided by the tree
oracle, never by their 256-subset families; the linear constraints are
handled by plain arithmetic, one interval row per cell multiset.  A
required target whose upper bounds over the cells that can serve it sum
below eight is settled without the oracle.  A forbidden target gets a
bound, not just a verdict.  It composes exactly when its own count
reaches the number of tree components of its shared-triple multigraph,
and that number never rises when a count rises, so every completion
keeps the own count below the number at the lower bounds: the target's
``hi`` drops to one less, and the node fails when its ``lo`` already
reaches it.  A tree component of n nodes has n - 1 edges and any other
of m nodes at least m, so the number is at least eight less the
compatible cells' lower bounds.  Where that exceeds the target's
``hi`` (the lower bounds of its serving cells, its own ``hi`` in place
of its ``lo``, sum below eight), the count is skipped.  Variables are
chosen required targets first, then by smallest domain; required cells
try values high to low, others low to high.

The tree-count bound implies each of a forbidden target's ten capped
supply bounds: the four cells of one supply line are pairwise
incompatible, so their shared pairs split the target's eight triples,
and those four edges alone leave 8 - sum(min(x_k, 2)) tree components.
Adding edges never raises that number, so no line needs a propagator
of its own.

Propagation is event-driven: a constraint is re-examined only when a
bound it reads has moved since it last ran.  Linear constraints over
one cell multiset are merged into one interval row, whose lower- and
upper-bound sums are kept up to date in place; a change to either
bound of a member cell marks the row dirty.  A raised ``lo`` also
marks the forbidden targets the cell serves, and a lowered ``hi`` the
required ones.  Each pass runs the dirty rows in order, then the dirty
required and forbidden targets, until nothing is pending: a forbidden
target's lowered ``hi`` can mark rows and required targets after their
turn.

Backtracking copies instead of trailing.  A branching node saves its
fixpoint once: both bounds, the oracles' incremental sums and the
rows' interval sums.  It puts that state back between children, so a
child never restores itself; its parent does.  The dirty rows and the
two oracle dirty-flag lists are pending work, never saved: every
propagation drains all three, or clears them on a contradiction, so a
restored fixpoint has nothing pending, and each clean required target's
sum is still the one that last passed.  Nothing is trailed.

Symmetry handling is dominance-only: each admissible table symmetry
compares the assignment with its image cell by cell, and a branch dies
when some image is provably lexicographically smaller.  A comparison
stops at the first cell pair not yet both fixed, so it is filed under
the one cell that blocks it (the compared cell while that is free, else
its image's source), and a node advances only the comparisons filed
under cells that are now fixed.  Domains only narrow down a branch, so
a comparison whose blocking cell is still free cannot move.  The map
from cells to comparisons is copy-on-write: a node hands its children
a shallow copy with the advanced comparisons filed anew, and never
changes the map it was given, so nothing is trailed and backtracking
just drops the child's map.  A leaf that survives has finished every
comparison, so it is the least image of its orbit and is returned as
it stands.  A verdict of UNSAT therefore always covers the full search
space, not just one fundamental domain.

A split run is one search cut into parts.  `split_subproblems` fixes
the first free cells, each in the search's own value order, and each
part is a set of start domains for the one compiled parent search,
pruned with the parent's whole group.  That is sound for any partition
(Crawford et al., KR 1996): a pruned assignment has a strictly smaller
image under a parent-admissible symmetry, that image lies in exactly
one part, and there its lex-leader survives.  The parts together keep
exactly the parent's lex-leaders, so an UNSAT over all parts is final,
every satisfying leaf is in the parent's canonical form, and
enumeration meets each orbit once.  Where the split cells are the ones
the search would branch on first, the parts are its subtrees.

The one objective, ``minimize-total``, is searched one bound level at a
time from the surrogate floor up, and a level is a start parameter too:
the compiled objective model carries an open row over all cells, and
each level's search closes its upper side at the level's bound.  Every
permutation maps that row to itself, so the group is the same at every
level.  The parts of a split and the levels of an objective thus share
one compile per process, and one call runs all its searches on one
worker pool.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import time
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache, partial

from .composability import composable_from_vector, counting_floor, tree_components
from .errors import InvalidInputError
from .instances import Instance
from .model import Model, check_assignment
from .symmetry import cell_perms, inverse_cell_perms
from .varieties import CELLS, CELL_INDEX, Catalog, catalog

N_CELLS = len(CELLS)

#: symmetry dominance states ``(pi, ptr)`` filed by the cell that blocks
#: them, each cell holding a tuple of chunks that are never changed
_Watch = dict[int, tuple[list[tuple[tuple[int, ...], int]], ...]]

#: interval domain of every cell, in cell order
_Domains = tuple[tuple[int, int], ...]

#: most parts a split may have; the packaged runs use at most 729
MAX_SPLIT_PARTS = 100_000


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
) -> tuple[int, ...]:
    """Positions in `cell_perms` of the group elements that keep the
    model invariant.

    An element qualifies when its cell action preserves every domain,
    maps the required and forbidden target sets onto themselves, and
    maps each linear constraint onto one of the others.  Covering and
    forbidding families need no check: they are carried along with
    their targets.  Nor do the capped supply bounds, which follow from
    the forbids they accompany and which the search never reads.
    """
    cat = cat or catalog()
    perms = cell_perms(cat)
    doms = tuple((v.lo, v.hi) for v in model.variables)
    req = frozenset(CELL_INDEX[c] for c in model.required)
    forb = frozenset(CELL_INDEX[c] for c in model.forbidden)
    linear_sigs = frozenset(
        (con.sense, con.rhs, frozenset(CELL_INDEX[c] for c in con.cells))
        for con in model.constraints
    )
    out = []
    for i, p in enumerate(perms):
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
            out.append(i)
    return tuple(out)


# ----------------------------------------------------------------------
# compilation


class _Compiled:
    def __init__(self, model: Model, options: SearchOptions, cat: Catalog):
        self.model = model
        self.cat = cat
        # usable cells of a target: itself plus its compatible cells
        self.usable = [
            (t,) + tuple(cat.compatible_cells[t]) for t in range(N_CELLS)
        ]

        # constraints over one cell multiset merge into one interval row
        # (cells, lo_rhs, hi_rhs); None marks an open side
        rows: dict[tuple[int, ...], list] = {}
        for con in model.constraints:
            idxs = tuple(CELL_INDEX[c] for c in con.cells)
            row = rows.setdefault(tuple(sorted(idxs)), [idxs, None, None])
            if con.sense != "le":
                row[1] = con.rhs if row[1] is None else max(row[1], con.rhs)
            if con.sense != "ge":
                row[2] = con.rhs if row[2] is None else min(row[2], con.rhs)
        # an objective's level bound lands on the all-cells row, open
        # here and closed by each level's search
        if model.objective is not None:
            every = tuple(range(N_CELLS))
            rows.setdefault(every, [every, None, None])
            self.level_row = list(rows).index(every)
        self.linear = [tuple(row) for row in rows.values()]
        self.rows_of_cell: list[list[int]] = [[] for _ in range(N_CELLS)]
        for r, (idxs, _, _) in enumerate(self.linear):
            for k in idxs:
                self.rows_of_cell[k].append(r)
        self.req_targets = [k for k, c in enumerate(CELLS) if c in model.required]
        self.forb_targets = [k for k, c in enumerate(CELLS) if c in model.forbidden]
        self.required_idx = frozenset(self.req_targets)
        self.req_of_cell: list[list[int]] = [[] for _ in range(N_CELLS)]
        for slot, t in enumerate(self.req_targets):
            for k in self.usable[t]:
                self.req_of_cell[k].append(slot)
        self.forb_of_cell: list[list[int]] = [[] for _ in range(N_CELLS)]
        for slot, t in enumerate(self.forb_targets):
            for k in self.usable[t]:
                self.forb_of_cell[k].append(slot)

        # dominance comparison needs inverses; drop the identity
        syms = admissible_symmetries(model, cat) if options.symmetry else ()
        inverses = inverse_cell_perms(cat)
        identity = tuple(range(N_CELLS))
        self.inv_perms = [inverses[i] for i in syms if inverses[i] != identity]
        # every comparison starts at cell 0, so cell 0 blocks them all
        self.root_watch: _Watch = (
            {0: ([(pi, 0) for pi in self.inv_perms],)} if self.inv_perms else {}
        )


@lru_cache(maxsize=1)
def _compiled(model: Model, symmetry: bool) -> _Compiled:
    """The model's one compiled search per process, shared by every part
    of a split and every level of an objective; a `_Compiled` is never
    changed after construction."""
    return _Compiled(model, SearchOptions(symmetry=symmetry), catalog())


# ----------------------------------------------------------------------
# the search proper


def _value_order(lo: int, hi: int, required: bool) -> range:
    """Values a branching cell tries: a required target's high to low,
    any other cell's low to high."""
    return range(hi, lo - 1, -1) if required else range(lo, hi + 1)


class _Search:
    def __init__(
        self,
        comp: _Compiled,
        options: SearchOptions,
        deadline=None,
        domains=None,
        bound: int | None = None,
    ):
        self.c = comp
        # a part of a split starts from its own domains
        start = comp.model.domains() if domains is None else domains
        self.lo = [lo for lo, _ in start]
        self.hi = [hi for _, hi in start]
        # an objective level closes the upper side of the all-cells row
        self.bound = bound
        self.linear = comp.linear
        if bound is not None:
            r = comp.level_row
            idxs, lo_rhs, hi_rhs = comp.linear[r]
            hi_rhs = bound if hi_rhs is None else min(hi_rhs, bound)
            self.linear = list(comp.linear)
            self.linear[r] = (idxs, lo_rhs, hi_rhs)
        self.stats: Counter[str] = Counter()
        self.req_sum_hi = [
            sum(self.hi[k] for k in comp.usable[t]) for t in comp.req_targets
        ]
        self.forb_sum_lo = [
            sum(self.lo[k] for k in comp.usable[t]) for t in comp.forb_targets
        ]
        self.slo = [sum(self.lo[k] for k in idxs) for idxs, _, _ in comp.linear]
        self.shi = [sum(self.hi[k] for k in idxs) for idxs, _, _ in comp.linear]
        # pending work; every _propagate call empties all three, so none
        # is saved with a node's state
        self.req_dirty = [True] * len(comp.req_targets)
        self.forb_dirty = [True] * len(comp.forb_targets)
        self.row_dirty = [True] * len(comp.linear)
        # a time.monotonic() value shared by every search of one call
        self.deadline = deadline
        self.node_budget = options.node_budget
        self.witness: tuple[int, ...] | None = None
        self.all_witnesses: set[tuple[int, ...]] | None = None

    # -- node state -----------------------------------------------------

    def _state(self) -> tuple[list[int], ...]:
        return (
            self.lo[:], self.hi[:], self.req_sum_hi[:],
            self.forb_sum_lo[:], self.slo[:], self.shi[:],
        )

    def _restore(self, state: tuple[list[int], ...]):
        # slice assignment keeps the lists that callers hold
        (
            self.lo[:], self.hi[:], self.req_sum_hi[:],
            self.forb_sum_lo[:], self.slo[:], self.shi[:],
        ) = state

    def _set_lo(self, k: int, v: int) -> bool:
        if v <= self.lo[k]:
            return True
        if v > self.hi[k]:
            return False
        delta = v - self.lo[k]
        self.lo[k] = v
        c = self.c
        for slot in c.forb_of_cell[k]:
            self.forb_sum_lo[slot] += delta
            self.forb_dirty[slot] = True
        for r in c.rows_of_cell[k]:
            self.slo[r] += delta
            self.row_dirty[r] = True
        return True

    def _set_hi(self, k: int, v: int) -> bool:
        if v >= self.hi[k]:
            return True
        if v < self.lo[k]:
            return False
        delta = v - self.hi[k]
        self.hi[k] = v
        c = self.c
        for slot in c.req_of_cell[k]:
            self.req_sum_hi[slot] += delta
            self.req_dirty[slot] = True
        for r in c.rows_of_cell[k]:
            self.shi[r] += delta
            self.row_dirty[r] = True
        return True

    # -- propagation ----------------------------------------------------

    def _fail(self, prune: str) -> bool:
        self.stats[prune] += 1
        for dirty in (self.row_dirty, self.req_dirty, self.forb_dirty):
            dirty[:] = [False] * len(dirty)
        return False

    def _propagate(self) -> bool:
        c = self.c
        lo, hi = self.lo, self.hi
        linear = self.linear
        dirty = self.row_dirty
        while True:
            # a row marked while the sweep is past it waits for the next
            # pass, so rows see the same states as in a full sweep
            for r, woken in enumerate(dirty):
                if not woken:
                    continue
                dirty[r] = False
                idxs, lo_rhs, hi_rhs = linear[r]
                slo = self.slo[r]
                shi = self.shi[r]
                if lo_rhs is not None:
                    if shi < lo_rhs or (hi_rhs is not None and hi_rhs < lo_rhs):
                        return self._fail("prune_linear")
                    for i in idxs:
                        need = lo_rhs - (shi - hi[i])
                        if need > lo[i] and not self._set_lo(i, need):
                            return self._fail("prune_linear")
                if hi_rhs is not None:
                    if slo > hi_rhs:
                        return self._fail("prune_linear")
                    for i in idxs:
                        room = hi_rhs - (slo - lo[i])
                        if room < hi[i] and not self._set_hi(i, room):
                            return self._fail("prune_linear")
            # a clean target's sum has not moved since it last passed
            for slot, t in enumerate(c.req_targets):
                if self.req_dirty[slot]:
                    self.req_dirty[slot] = False
                    if self.req_sum_hi[slot] < 8:
                        return self._fail("prune_counting")
                    if not composable_from_vector(hi, t, c.cat):
                        return self._fail("prune_required_oracle")
            # a forbidden target's own count stays below its tree count
            # at lo, which exceeds hi[t] below the screen
            for slot, t in enumerate(c.forb_targets):
                if self.forb_dirty[slot]:
                    self.forb_dirty[slot] = False
                    if self.forb_sum_lo[slot] - lo[t] + hi[t] < 8:
                        continue
                    tc = tree_components(lo, t, c.cat, hi[t] + 1)
                    if tc <= lo[t]:
                        return self._fail("prune_forbidden_oracle")
                    if tc <= hi[t]:
                        self._set_hi(t, tc - 1)  # above lo[t], so it holds
            # a lowered hi marks rows and required targets only
            if True not in dirty and True not in self.req_dirty:
                return True

    # -- symmetry dominance ---------------------------------------------

    def _advance(self, watch: _Watch) -> _Watch | None:
        """Advance the comparisons filed under cells now fixed.

        Returns the child's map, leaving the caller's as it was, or
        None for a dominated node.
        """
        lo, hi = self.lo, self.hi
        child = None
        refiled: dict[int, list[tuple[tuple[int, ...], int]]] = {}
        for cell, chunks in watch.items():
            if lo[cell] != hi[cell]:
                continue
            if child is None:
                child = dict(watch)
            del child[cell]
            for chunk in chunks:
                for pi, ptr in chunk:
                    while True:
                        if lo[ptr] != hi[ptr]:
                            key = ptr
                            break
                        src = pi[ptr]
                        if lo[src] != hi[src]:
                            key = src
                            break
                        a = lo[ptr]
                        b = lo[src]
                        if b < a:
                            self.stats["prune_symmetry"] += 1
                            return None
                        ptr += 1
                        if b > a or ptr == N_CELLS:
                            # image provably larger, or equal: drop it
                            key = -1
                            break
                    if key >= 0:
                        refiled.setdefault(key, []).append((pi, ptr))
        if child is None:
            return watch
        for key, states in refiled.items():
            child[key] = child.get(key, ()) + (states,)
        return child

    # -- main recursion --------------------------------------------------

    def _tick(self):
        self.stats["nodes"] += 1
        if self.node_budget is not None and self.stats["nodes"] > self.node_budget:
            raise _Budget
        # the first node looks too, so a search begun late stops at once
        if self.deadline is not None and self.stats["nodes"] % 512 == 1:
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

    def _search(self, watch: _Watch) -> bool:
        """Returns True to stop the whole search (decision satisfied).
        The caller restores whatever state the node leaves."""
        self._tick()
        if not self._propagate():
            return False
        nst = self._advance(watch)
        if nst is None:
            return False
        if all(self.lo[k] == self.hi[k] for k in range(N_CELLS)):
            return self._leaf()
        k = self._pick_var()
        state = self._state()
        for v in _value_order(self.lo[k], self.hi[k], k in self.c.required_idx):
            # v lies in the restored domain, so neither call can fail
            self._set_lo(k, v)
            self._set_hi(k, v)
            if self._search(nst):
                return True
            self._restore(state)
        return False

    def _leaf(self) -> bool:
        vec = tuple(self.lo)
        ok = check_assignment(self.c.model, Instance.from_vector(vec)).ok
        # the level bound is checked apart from the row that propagates it
        if ok and self.bound is not None:
            ok = sum(vec) <= self.bound
        if not ok:
            self.stats["leaf_reject"] += 1
            return False
        self.stats["sat_leaves"] += 1
        if self.all_witnesses is not None:
            self.all_witnesses.add(vec)
            return False
        self.witness = vec
        return True

    def run_decision(self) -> tuple[str, tuple[int, ...] | None, Counter]:
        try:
            status = "sat" if self._search(self.c.root_watch) else "unsat"
        except _Budget:
            status = "timeout"
        return status, self.witness, self.stats

    def run_enumerate(self) -> tuple[bool, list[tuple[int, ...]]]:
        self.all_witnesses = set()
        try:
            self._search(self.c.root_watch)
            complete = True
        except _Budget:
            complete = False
        return complete, sorted(self.all_witnesses)


# ----------------------------------------------------------------------
# public drivers


def _surrogate_floor(model: Model) -> int:
    """Provable lower bound on the total count over all solutions."""
    best = sum(v.lo for v in model.variables)
    for con in model.constraints:
        if con.sense in ("ge", "eq") and frozenset(con.cells) == frozenset(CELLS):
            best = max(best, con.rhs)
    req = [CELL_INDEX[c] for c in model.required]
    return max(best, counting_floor(req))


def split_subproblems(model: Model, depth: int = 1) -> list[_Domains]:
    """Partition of the model's domains by fixing the first ``depth``
    free cells, each in the search's own value order.  A split into more
    than `MAX_SPLIT_PARTS` parts is refused before any part is built."""
    if depth < 0:
        raise InvalidInputError(f"negative split depth {depth}")
    doms = model.domains()
    cells = [k for k, (lo, hi) in enumerate(doms) if lo < hi][:depth]
    parts = math.prod(doms[k][1] - doms[k][0] + 1 for k in cells)
    if parts > MAX_SPLIT_PARTS:
        raise InvalidInputError(
            f"split depth {depth} makes {parts} subproblems;"
            f" at most {MAX_SPLIT_PARTS} are allowed"
        )
    orders = [_value_order(*doms[k], CELLS[k] in model.required) for k in cells]
    subs = []
    for values in itertools.product(*orders):
        part = list(doms)
        for k, v in zip(cells, values):
            part[k] = (v, v)
        subs.append(tuple(part))
    return subs


def _deadline(options: SearchOptions, start: float) -> float | None:
    return None if options.time_budget is None else start + options.time_budget


def _usable_cpus() -> int:
    """CPUs this process may run on; every CPU where the platform has no
    affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_size(jobs: int) -> int:
    """Processes `workers(jobs)` runs items on: one per job, at most one
    per usable CPU."""
    return min(jobs, _usable_cpus())


@contextmanager
def workers(jobs: int) -> Iterator[Callable]:
    """A lazy map in item order for one call: builtin ``map`` for one
    job, else ``imap`` over one process pool of `pool_size(jobs)`
    processes.  Leaving the block terminates the pool, so no item runs
    on: neither those not yet started nor the running ones."""
    if jobs == 1:
        yield map
        return
    with multiprocessing.Pool(pool_size(jobs)) as pool:
        yield pool.imap


def _subproblem_tasks(
    model: Model,
    subs: dict[int, _Domains],
    options: SearchOptions,
    deadline: float | None,
    bound: int | None = None,
) -> dict[int, tuple[Model, _Domains, SearchOptions, float | None, int | None]]:
    """Serial search tasks by subproblem index, each the parent model
    with the part's start domains and the objective level's bound,
    together spending no more nodes than one serial search of the parent
    may, and sharing its deadline.

    A search with node budget b counts at most b + 1 nodes, so the
    parent's b + 1 are dealt out evenly and a share s becomes budget
    s - 1.  Subproblems whose share is zero get no task; the caller
    reports them as not searched.
    """
    opts = replace(options, jobs=1)
    nb = options.node_budget
    if nb is None:
        return {i: (model, doms, opts, deadline, bound) for i, doms in subs.items()}
    q, r = divmod(nb + 1, len(subs) or 1)
    shares = [q + (n < r) for n in range(len(subs))]
    return {
        i: (model, doms, replace(opts, node_budget=share - 1), deadline, bound)
        for (i, doms), share in zip(subs.items(), shares)
        if share
    }


def _searched(run: Callable, task: tuple):
    model, domains, options, deadline, bound = task
    comp = _compiled(model, options.symmetry)
    return run(_Search(comp, options, deadline, domains, bound))


def _decide(
    pmap: Callable,
    model: Model,
    subs: list[_Domains],
    options: SearchOptions,
    deadline: float | None,
    stored: dict[int, tuple],
    record: Callable | None,
    bound: int | None = None,
) -> tuple[str, tuple[int, ...] | None, Counter]:
    """Status, witness and stats merged over a partition, in its order.

    Subproblem i gives ``stored[i]`` if present, else a fresh search
    run through ``pmap``, a `workers` map, whose result goes to
    ``record(i, result)`` first.  The first ``sat`` ends the merge with
    that part's witness, which is already in the parent's canonical
    form; the caller's leaving its `workers` block stops the rest.
    """
    pending = {i: doms for i, doms in enumerate(subs) if i not in stored}
    tasks = _subproblem_tasks(model, pending, options, deadline, bound)
    fresh = pmap(partial(_searched, _Search.run_decision), tasks.values())
    stats: Counter = Counter()
    status_all = "unsat"
    for i in range(len(subs)):
        if i in tasks:
            result = next(fresh)
            if record is not None:
                record(i, result)
        else:
            # no record and no share of the node budget: not searched
            result = stored.get(i, ("timeout", None, Counter()))
        status, vec, st = result
        stats.update(st)
        if status == "sat":
            return "sat", vec, stats
        if status == "timeout":
            status_all = "timeout"
    return status_all, None, stats


def _result(
    model: Model, start: float, status: str, vec, stats: Counter, objective=None
) -> SearchResult:
    wit = Instance.from_vector(vec) if vec is not None else None
    if wit is not None and not (confirm := check_assignment(model, wit)).ok:
        raise AssertionError(f"engine returned a bad witness: {confirm.violations[:3]}")
    return SearchResult(
        status=status,
        witness=wit,
        objective=objective,
        nodes=stats.get("nodes", 0),
        prunes={k: v for k, v in sorted(stats.items()) if k != "nodes"},
        wall_time=time.monotonic() - start,
        complete=status in ("sat", "unsat", "optimal"),
    )


def solve(model: Model, options: SearchOptions | None = None) -> SearchResult:
    """Decide or optimize the model; verdicts are final unless 'timeout'.

    The objective is searched one bound level at a time, from the
    surrogate floor up.  The budgets cover the whole call: every job and
    objective level.
    """
    options = options or SearchOptions()
    # one job searches the model itself, so node counts match a plain
    # search; more jobs split it on its first free cell
    subs = split_subproblems(model, int(options.jobs > 1))
    if model.objective is None:
        return solve_subproblems(model, subs, {}, None, options)
    if model.objective != "minimize-total":
        raise InvalidInputError(f"unknown objective {model.objective!r}")

    start = time.monotonic()
    deadline = _deadline(options, start)
    total_stats: Counter = Counter()
    hi_total = sum(v.hi for v in model.variables)
    nb = options.node_budget
    with workers(max(1, min(options.jobs, len(subs)))) as pmap:
        for bound in range(_surrogate_floor(model), hi_total + 1):
            left = None if nb is None else max(0, nb - total_stats["nodes"])
            opts = replace(options, node_budget=left)
            status, vec, stats = _decide(
                pmap, model, subs, opts, deadline, {}, None, bound
            )
            total_stats.update(stats)
            if status == "sat":
                return _result(model, start, "optimal", vec, total_stats, sum(vec))
            if status == "timeout":
                return _result(model, start, "timeout", None, total_stats)
    return _result(model, start, "unsat", None, total_stats)


def solve_subproblems(
    model: Model,
    subs: list[_Domains],
    stored: dict[int, tuple],
    record: Callable | None,
    options: SearchOptions | None = None,
) -> SearchResult:
    """Decide a decision model from a partition of it, as `solve` does.

    ``stored`` maps subproblem indices to results ``(status, witness
    vector, stats)`` already known; the rest are searched, and
    ``record`` sees each fresh result as `_decide` merges it.
    """
    options = options or SearchOptions()
    start = time.monotonic()
    deadline = _deadline(options, start)
    with workers(max(1, min(options.jobs, len(subs) - len(stored)))) as pmap:
        decided = _decide(pmap, model, subs, options, deadline, stored, record)
    return _result(model, start, *decided)


def enumerate_all(
    model: Model, options: SearchOptions | None = None
) -> tuple[list[Instance], bool]:
    """All solutions up to the admissible symmetries, plus a completeness flag."""
    options = options or SearchOptions()
    subs = split_subproblems(model, int(options.jobs > 1))
    deadline = _deadline(options, time.monotonic())
    tasks = _subproblem_tasks(model, dict(enumerate(subs)), options, deadline)
    run = partial(_searched, _Search.run_enumerate)
    complete = len(tasks) == len(subs)
    found = set()
    with workers(max(1, min(options.jobs, len(tasks)))) as pmap:
        for flag, vecs in pmap(run, tasks.values()):
            complete = complete and flag
            found.update(vecs)
    out = []
    for vec in sorted(found):
        inst = Instance.from_vector(vec)
        if not check_assignment(model, inst).ok:
            raise AssertionError("enumeration produced a bad witness")
        out.append(inst)
    return out, complete
