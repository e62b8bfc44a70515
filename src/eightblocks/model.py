"""Declarative constraint models over variety count vectors.

A model fixes one integer variable per table cell, a list of plain
linear comparisons, and two disjoint target sets: ``required`` cells
must be composable, ``forbidden`` cells must not be.  Models are data;
solving and exporting live elsewhere.

Composability of a target is equivalent to the full family of covering
conditions over the 256 subsets of its corner triples: every subset
must be coverable by at least as many usable cubes as it has members.
Forbidding a target asserts the negation, a 256-way disjunction, and
brings ten capped supply bounds that the forbid implies; they are kept
only as literal checks.  These literal families exist only in
:func:`expanded_constraints`, which :func:`check_assignment` and the
exports read; the solver decides the targets with the composability
oracle instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from .cubes import Triple
from .errors import InvalidInputError
from .instances import Instance
from .varieties import CELLS, CELL_INDEX, COMPATIBLE_CAP, OWN_CAP, Catalog, catalog

Cell = tuple[int, int]

MODES = ("capped", "full")


@dataclass(frozen=True)
class VarietyVariable:
    coords: Cell
    lo: int
    hi: int

    def __post_init__(self):
        if self.coords not in CELL_INDEX:
            raise InvalidInputError(f"no table cell {self.coords}")
        if not (0 <= self.lo <= self.hi):
            raise InvalidInputError(
                f"bad domain [{self.lo},{self.hi}] for {self.coords}"
            )


@dataclass(frozen=True)
class LinearConstraint:
    """sum of the named cells  <sense>  rhs, unit coefficients."""

    label: str
    sense: str  # 'ge' | 'le' | 'eq'
    cells: tuple[Cell, ...]
    rhs: int

    def __post_init__(self):
        if self.sense not in ("ge", "le", "eq"):
            raise InvalidInputError(f"unknown sense {self.sense!r}")


@dataclass(frozen=True)
class HallConstraint:
    """Usable supply for a subset of the target's corner triples.

    cells lists the target itself plus every compatible variety whose
    shared pair meets the subset; their total count must reach rhs,
    the subset size.
    """

    target: Cell
    triples: tuple[Triple, ...]
    cells: tuple[Cell, ...]
    rhs: int


@dataclass(frozen=True)
class ForbiddenConstraint:
    """Target not composable: some covering condition of its family fails.

    ``covers`` is the target's :func:`hall_family`; the forbid holds when
    the supply of at least one subset stays below its size.
    """

    target: Cell
    covers: tuple[HallConstraint, ...]


@dataclass(frozen=True)
class CapBoundConstraint:
    """Necessary condition at a forbidden target, one table line at a time.

    own + sum over the line's compatible cells of min(count, cap) must
    stay below the eight corners, else the target is composable outright.
    The forbid implies it, so it is kept only as a literal check for
    `check_assignment` and the exports; the solver reads none.
    """

    target: Cell
    axis: str  # 'row' | 'col'
    line: int
    own_cell: Cell
    capped_cells: tuple[Cell, ...]
    cap: int = COMPATIBLE_CAP
    limit: int = OWN_CAP - 1


Constraint = LinearConstraint | HallConstraint | ForbiddenConstraint | CapBoundConstraint


@dataclass(frozen=True)
class Model:
    name: str
    variables: tuple[VarietyVariable, ...]  # one per cell, canonical order
    constraints: tuple[LinearConstraint, ...]
    objective: str | None = None  # None or 'minimize-total'
    required: frozenset[Cell] = field(default_factory=frozenset)
    forbidden: frozenset[Cell] = field(default_factory=frozenset)
    mode: str = "full"

    def __post_init__(self):
        for con in self.constraints:
            if not isinstance(con, LinearConstraint):
                raise InvalidInputError(
                    f"model constraints are linear; got {type(con).__name__}"
                )
        both = self.required & self.forbidden
        if both:
            raise InvalidInputError(f"cells both required and forbidden: {sorted(both)}")

    def variable(self, cell: Cell) -> VarietyVariable:
        return self.variables[CELL_INDEX[cell]]

    def domains(self) -> tuple[tuple[int, int], ...]:
        return tuple((v.lo, v.hi) for v in self.variables)

    def restrict(self, cell: Cell, lo: int, hi: int) -> "Model":
        """Copy of the model with one domain tightened."""
        k = CELL_INDEX[cell]
        old = self.variables[k]
        nlo, nhi = max(old.lo, lo), min(old.hi, hi)
        if nlo > nhi:
            raise InvalidInputError(f"empty domain for {cell}: [{nlo},{nhi}]")
        new_vars = (
            self.variables[:k]
            + (VarietyVariable(cell, nlo, nhi),)
            + self.variables[k + 1 :]
        )
        return replace(self, variables=new_vars)


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    violations: tuple[str, ...]


# ----------------------------------------------------------------------
# constraint families


def _subset_cells(
    target: Cell, mask: int, cat: Catalog
) -> tuple[tuple[Triple, ...], tuple[Cell, ...]]:
    t = CELL_INDEX[target]
    nodes = cat.triple_nodes[t]
    triples = tuple(nodes[k] for k in range(8) if mask >> k & 1)
    cells: list[Cell] = []
    if mask:
        cells.append(target)  # the target's own cubes cover every triple
    for w in cat.compatible_cells[t]:
        a, b = cat.shared_pairs[t][w]
        if mask >> a & 1 or mask >> b & 1:
            cells.append(CELLS[w])
    return triples, tuple(cells)


def hall_family(target: Cell, cat: Catalog | None = None) -> tuple[HallConstraint, ...]:
    """All 256 covering conditions of one target, empty subset included."""
    return _hall_family(target, cat or catalog())


@lru_cache(maxsize=None)
def _hall_family(target: Cell, cat: Catalog) -> tuple[HallConstraint, ...]:
    out = []
    for mask in range(256):
        triples, cells = _subset_cells(target, mask, cat)
        out.append(
            HallConstraint(
                target=target, triples=triples, cells=cells, rhs=len(triples)
            )
        )
    return tuple(out)


def cap_bounds(
    target: Cell, cat: Catalog | None = None
) -> tuple[CapBoundConstraint, ...]:
    """The ten per-line supply caps a forbidden target must satisfy."""
    cat = cat or catalog()
    return tuple(
        CapBoundConstraint(
            target=target,
            axis=axis,
            line=line,
            own_cell=target,
            capped_cells=tuple(CELLS[k] for k in cells),
        )
        for axis, line, cells in cat.supply_lines[CELL_INDEX[target]]
    )


@lru_cache(maxsize=None)
def _forbidden_family(target: Cell, cat: Catalog) -> tuple[Constraint, ...]:
    return (ForbiddenConstraint(target, _hall_family(target, cat)),) + cap_bounds(
        target, cat
    )


def expanded_constraints(
    model: Model, cat: Catalog | None = None
) -> tuple[Constraint, ...]:
    """The model's constraints written out literally.

    The linear constraints come first, then for each cell in CELLS
    order the covering family of a required cell, or the forbid
    disjunction and ten cap bounds of a forbidden cell.
    """
    cat = cat or catalog()
    out: list[Constraint] = list(model.constraints)
    for c in CELLS:
        if c in model.required:
            out.extend(_hall_family(c, cat))
        elif c in model.forbidden:
            out.extend(_forbidden_family(c, cat))
    return tuple(out)


# ----------------------------------------------------------------------
# model builders


def _validated_cells(cells) -> frozenset[Cell]:
    out = set()
    for c in cells:
        c = tuple(c)
        if c not in CELL_INDEX:
            raise InvalidInputError(f"no table cell {c}")
        out.add(c)
    return frozenset(out)


def _check_mode(mode: str):
    if mode not in MODES:
        raise InvalidInputError(f"unknown domain mode {mode!r}; pick from {MODES}")


def existence_model(
    required, mode: str = "capped", cat: Catalog | None = None
) -> Model:
    """Instance whose composable targets are exactly `required`.

    Non-required counts stay below the self-build threshold; in capped
    mode they are further cut to two, which loses no witnesses: a
    matching never uses more than two cubes of a non-target variety,
    and shrinking counts cannot make a forbidden target composable.
    """
    _check_mode(mode)
    req = _validated_cells(required)
    other_hi = COMPATIBLE_CAP if mode == "capped" else OWN_CAP - 1
    variables = tuple(
        VarietyVariable(c, 0, OWN_CAP if c in req else other_hi)
        for c in CELLS
    )
    constraints: list[LinearConstraint] = []
    if req:
        # some target must be composed, which takes eight cubes
        constraints.append(
            LinearConstraint("total-supply", "ge", CELLS, OWN_CAP)
        )
    label = ",".join(f"({i},{j})" for i, j in sorted(req)) or "none"
    return Model(
        name=f"existence[{label}|{mode}]",
        variables=variables,
        constraints=tuple(constraints),
        objective=None,
        required=req,
        forbidden=frozenset(CELLS) - req,
        mode=mode,
    )


def max_infeasible_model(
    size: int, mode: str = "full", cat: Catalog | None = None
) -> Model:
    """Instance of exactly `size` cubes with no composable target at all."""
    _check_mode(mode)
    if size < 0:
        raise InvalidInputError(f"negative size {size}")
    hi = COMPATIBLE_CAP if mode == "capped" else OWN_CAP - 1
    hi = min(hi, size)
    variables = tuple(VarietyVariable(c, 0, hi) for c in CELLS)
    return Model(
        name=f"max-infeasible[{size}|{mode}]",
        variables=variables,
        constraints=(LinearConstraint("total-supply", "eq", CELLS, size),),
        objective=None,
        required=frozenset(),
        forbidden=frozenset(CELLS),
        mode=mode,
    )


def min_universal_model(cat: Catalog | None = None) -> Model:
    """Smallest instance composable for every target; pure covering model."""
    variables = tuple(
        VarietyVariable(c, 0, OWN_CAP) for c in CELLS
    )
    return Model(
        name="min-universal",
        variables=variables,
        constraints=(),
        objective="minimize-total",
        required=frozenset(CELLS),
        forbidden=frozenset(),
        mode="full",
    )


# ----------------------------------------------------------------------
# assignment checking


def check_assignment(model: Model, instance: Instance) -> CheckResult:
    """Literal evaluation of every domain and expanded constraint, no oracles."""
    vec = instance.vector()
    at = {c: vec[CELL_INDEX[c]] for c in CELLS}
    bad: list[str] = []
    for v in model.variables:
        n = at[v.coords]
        if not (v.lo <= n <= v.hi):
            bad.append(f"domain {v.coords}: {n} outside [{v.lo},{v.hi}]")
    for con in expanded_constraints(model):
        if isinstance(con, LinearConstraint):
            s = sum(at[c] for c in con.cells)
            ok = (
                s >= con.rhs
                if con.sense == "ge"
                else s <= con.rhs
                if con.sense == "le"
                else s == con.rhs
            )
            if not ok:
                bad.append(f"linear {con.label}: sum={s} {con.sense} {con.rhs} fails")
        elif isinstance(con, HallConstraint):
            s = sum(at[c] for c in con.cells)
            if s < con.rhs:
                names = ",".join("".join(tr) for tr in con.triples)
                bad.append(
                    f"cover {con.target} [{names}]: supply {s} < {con.rhs}"
                )
        elif isinstance(con, ForbiddenConstraint):
            hit = any(sum(at[c] for c in h.cells) < h.rhs for h in con.covers)
            if not hit:
                bad.append(f"forbid {con.target}: every triple subset is supplied")
        elif isinstance(con, CapBoundConstraint):
            s = at[con.own_cell] + sum(
                min(at[c], con.cap) for c in con.capped_cells
            )
            if s > con.limit:
                bad.append(
                    f"capbound {con.target} {con.axis} {con.line}: {s} > {con.limit}"
                )
    return CheckResult(ok=not bad, violations=tuple(bad))
