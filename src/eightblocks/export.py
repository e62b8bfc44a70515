"""Model export: CPLEX-style LP, DIMACS CNF, and a neutral text dump.

All three writers read the model's expanded constraint list, so the
256-subset covering and forbid families of its targets appear written
out.  The LP writer handles purely linear models (required targets and
linear comparisons).  Forbidden targets, with their disjunctions and
capped bounds, have no linear form here and are rejected rather than
approximated.

The CNF writer uses an order encoding for counts (one boolean per
threshold, x >= v) and capped totalizer trees for sums.  A tree capped
at c supports any threshold test up to c; digits above the cap are
never created.  No solver is bundled; the output is meant for external
tooling and for the round-trip tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping

from .errors import UnsupportedModelError
from .instances import Instance
from .model import (
    CapBoundConstraint,
    ForbiddenConstraint,
    HallConstraint,
    LinearConstraint,
    Model,
    expanded_constraints,
)
from .varieties import CELLS, CELL_INDEX

Cell = tuple[int, int]


def _var_name(cell: Cell) -> str:
    return f"x_{cell[0]}_{cell[1]}"


# ----------------------------------------------------------------------
# LP


def export_lp(model: Model) -> str:
    """Integer program in LP format; linear constraints only."""
    if model.forbidden:
        raise UnsupportedModelError(
            "forbidden targets have no linear LP form; "
            "export the CNF encoding instead"
        )
    lines = [f"\\ model: {model.name}", "Minimize"]
    if model.objective == "minimize-total":
        terms = " + ".join(_var_name(c) for c in CELLS)
        lines.append(f" obj: {terms}")
    elif model.objective is None:
        # feasibility problem: constant objective keeps the section valid
        lines.append(f" obj: 0 {_var_name(CELLS[0])}")
    else:
        raise UnsupportedModelError(f"unknown objective {model.objective!r}")
    lines.append("Subject To")
    op = {"ge": ">=", "le": "<=", "eq": "="}
    k = 0
    for con in expanded_constraints(model):
        k += 1
        if isinstance(con, LinearConstraint):
            terms = " + ".join(_var_name(c) for c in con.cells)
            lines.append(f" c{k}_{con.label.replace(' ', '_')}: {terms} {op[con.sense]} {con.rhs}")
        elif isinstance(con, HallConstraint):
            if con.rhs == 0:
                continue
            terms = " + ".join(_var_name(c) for c in con.cells)
            i, j = con.target
            lines.append(f" c{k}_cover_{i}_{j}: {terms} >= {con.rhs}")
    lines.append("Bounds")
    for v in model.variables:
        lines.append(f" {v.lo} <= {_var_name(v.coords)} <= {v.hi}")
    lines.append("Generals")
    lines.append(" " + " ".join(_var_name(c) for c in CELLS))
    lines.append("End")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# CNF


@dataclass
class DimacsEncoding:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    digit_var: dict[tuple[Cell, int], int]  # (cell, v) -> id for "count >= v"
    domains: dict[Cell, tuple[int, int]]
    comments: tuple[str, ...]

    def text(self) -> str:
        out = [f"c {line}" for line in self.comments]
        out.append(f"p cnf {self.num_vars} {len(self.clauses)}")
        for cl in self.clauses:
            out.append(" ".join(str(lit) for lit in cl) + " 0")
        return "\n".join(out) + "\n"

    def decode_solution(self, true_vars: Iterable[int] | Mapping[int, bool]) -> Instance:
        if isinstance(true_vars, Mapping):
            truth = {v for v, b in true_vars.items() if b}
        else:
            truth = set(true_vars)
        vec = [0] * len(CELLS)
        for (cell, v), var in self.digit_var.items():
            if var in truth:
                vec[CELL_INDEX[cell]] += 1
        return Instance.from_vector(vec)

    def encode_instance(self, instance: Instance) -> tuple[int, ...]:
        """Unit literals fixing every count digit to match the instance."""
        vec = instance.vector()
        units = []
        for (cell, v), var in sorted(self.digit_var.items(), key=lambda kv: kv[1]):
            units.append(var if vec[CELL_INDEX[cell]] >= v else -var)
        return tuple(units)


class _CnfBuilder:
    def __init__(self):
        self.next_var = 0
        self.clauses: list[tuple[int, ...]] = []
        self._tree_memo: dict[tuple, tuple[int, ...]] = {}

    def new_var(self) -> int:
        self.next_var += 1
        return self.next_var

    def add(self, *lits: int):
        self.clauses.append(tuple(lits))

    def contradiction(self):
        p = self.new_var()
        self.add(p)
        self.add(-p)

    def merge(self, a: tuple[int, ...], b: tuple[int, ...], cap: int) -> tuple[int, ...]:
        """Totalizer merge of two unary digit vectors, output capped."""
        if not a:
            return b[:cap]
        if not b:
            return a[:cap]
        la, lb = len(a), len(b)
        out_len = min(la + lb, cap)
        r = tuple(self.new_var() for _ in range(out_len))
        # counts combine upward: a>=i and b>=j force r>=i+j
        for i in range(la + 1):
            for j in range(lb + 1):
                m = i + j
                if 1 <= m <= out_len:
                    lits = []
                    if i:
                        lits.append(-a[i - 1])
                    if j:
                        lits.append(-b[j - 1])
                    lits.append(r[m - 1])
                    self.add(*lits)
        # and downward: r>=i+j+1 needs a>=i+1 or b>=j+1
        for i in range(la + 1):
            for j in range(lb + 1):
                m = i + j + 1
                if m > out_len:
                    continue
                # i == la and j == lb would put m past out_len, so at
                # least one positive literal is always present
                lits = [-r[m - 1]]
                if i < la:
                    lits.append(a[i])
                if j < lb:
                    lits.append(b[j])
                self.add(*lits)
        return r

    def sum_tree(self, leaves: tuple[tuple[int, ...], ...], cap: int) -> tuple[int, ...]:
        key = (leaves, cap)
        got = self._tree_memo.get(key)
        if got is not None:
            return got
        queue = [lv[:cap] for lv in leaves]
        if not queue:
            result: tuple[int, ...] = ()
        else:
            # pair shortest first for balance, deterministically
            while len(queue) > 1:
                queue.sort(key=len)
                a = queue.pop(0)
                b = queue.pop(0)
                queue.append(self.merge(a, b, cap))
            result = queue[0]
        self._tree_memo[key] = result
        return result


def export_dimacs(model: Model, total_at_most: int | None = None) -> DimacsEncoding:
    """Order-encoded CNF of the model.

    Optimization models have no CNF objective; pass total_at_most to get
    the decision version "all constraints and total count <= bound".
    """
    if model.objective is not None and total_at_most is None:
        raise UnsupportedModelError(
            "CNF has no objective; pass total_at_most for the decision version"
        )
    for v in model.variables:
        if v.lo != 0:
            raise UnsupportedModelError(
                f"nonzero lower bound on {v.coords} is not supported in CNF export"
            )
    b = _CnfBuilder()
    digit_var: dict[tuple[Cell, int], int] = {}
    cell_digits: dict[Cell, tuple[int, ...]] = {}
    comments = [f"model: {model.name}", "order encoding: var means count >= value"]
    for v in model.variables:
        digits = []
        for val in range(1, v.hi + 1):
            var = b.new_var()
            digit_var[(v.coords, val)] = var
            digits.append(var)
            comments.append(f"var {var} : cell ({v.coords[0]},{v.coords[1]}) >= {val}")
        cell_digits[v.coords] = tuple(digits)
        for k in range(1, len(digits)):
            b.add(-digits[k], digits[k - 1])

    def leaves_for(cells: tuple[Cell, ...], per_cell_cap: int | None = None):
        out = []
        for c in cells:
            d = cell_digits[c]
            if per_cell_cap is not None:
                d = d[:per_cell_cap]
            if d:
                out.append(d)
        return tuple(out)

    def require_ge(cells: tuple[Cell, ...], rhs: int, per_cell_cap: int | None = None):
        if rhs <= 0:
            return
        leaves = leaves_for(cells, per_cell_cap)
        if sum(len(lv) for lv in leaves) < rhs:
            b.contradiction()
            return
        digits = b.sum_tree(leaves, rhs)
        b.add(digits[rhs - 1])

    def require_le(cells: tuple[Cell, ...], rhs: int, per_cell_cap: int | None = None):
        leaves = leaves_for(cells, per_cell_cap)
        if sum(len(lv) for lv in leaves) <= rhs:
            return
        if rhs < 0:
            b.contradiction()
            return
        digits = b.sum_tree(leaves, rhs + 1)
        b.add(-digits[rhs])

    def upper_digit(cells: tuple[Cell, ...], rhs: int) -> int | None:
        """Literal asserting sum <= rhs, or None when that is unavoidable."""
        leaves = leaves_for(cells)
        if sum(len(lv) for lv in leaves) <= rhs:
            return None
        digits = b.sum_tree(leaves, rhs + 1)
        return -digits[rhs]

    for con in expanded_constraints(model):
        if isinstance(con, LinearConstraint):
            if con.sense in ("ge", "eq"):
                require_ge(con.cells, con.rhs)
            if con.sense in ("le", "eq"):
                require_le(con.cells, con.rhs)
        elif isinstance(con, HallConstraint):
            require_ge(con.cells, con.rhs)
        elif isinstance(con, ForbiddenConstraint):
            lits = []
            trivially_true = False
            for h in con.covers:
                if h.rhs == 0:
                    continue  # the empty subset cannot fall short
                lit = upper_digit(h.cells, h.rhs - 1)
                if lit is None:
                    trivially_true = True
                    break
                lits.append(lit)
            if trivially_true:
                continue
            if lits:
                b.add(*lits)
            else:
                b.contradiction()
        elif isinstance(con, CapBoundConstraint):
            # min(count, cap) in unary is just the first cap digits
            own = leaves_for((con.own_cell,))
            rest = leaves_for(con.capped_cells, per_cell_cap=con.cap)
            leaves = own + rest
            if sum(len(lv) for lv in leaves) > con.limit:
                digits = b.sum_tree(leaves, con.limit + 1)
                b.add(-digits[con.limit])

    if total_at_most is not None:
        require_le(CELLS, total_at_most)
        comments.insert(1, f"decision bound: total count <= {total_at_most}")

    return DimacsEncoding(
        num_vars=b.next_var,
        clauses=tuple(b.clauses),
        digit_var=digit_var,
        domains={v.coords: (v.lo, v.hi) for v in model.variables},
        comments=tuple(comments),
    )


# ----------------------------------------------------------------------
# neutral dump


def export_neutral(model: Model) -> str:
    """Line-oriented dump of the whole model, for diffing and archival."""
    out = [
        f"model {model.name}",
        f"mode {model.mode}",
        f"objective {model.objective or 'none'}",
    ]
    for v in model.variables:
        out.append(f"var {v.coords[0]} {v.coords[1]} {v.lo} {v.hi}")

    def cells_tok(cells: tuple[Cell, ...]) -> str:
        return " ".join(f"{i},{j}" for i, j in cells) or "-"

    def triples_tok(triples) -> str:
        return ",".join("".join(tr) for tr in triples) or "-"

    for con in expanded_constraints(model):
        if isinstance(con, LinearConstraint):
            out.append(
                f"linear {con.label.replace(' ', '_')} {con.sense} {con.rhs} "
                f"{cells_tok(con.cells)}"
            )
        elif isinstance(con, HallConstraint):
            i, j = con.target
            out.append(
                f"cover {i} {j} {con.rhs} {triples_tok(con.triples)} "
                f"{cells_tok(con.cells)}"
            )
        elif isinstance(con, ForbiddenConstraint):
            i, j = con.target
            out.append(f"forbid {i} {j} {len(con.covers)}")
            for h in con.covers:
                # a disjunct bounds the subset's supply by its size minus one
                out.append(
                    f"  disjunct {h.rhs - 1} {triples_tok(h.triples)} "
                    f"{cells_tok(h.cells)}"
                )
        elif isinstance(con, CapBoundConstraint):
            i, j = con.target
            out.append(
                f"capbound {i} {j} {con.axis} {con.line} cap={con.cap} "
                f"limit={con.limit} {cells_tok(con.capped_cells)}"
            )
    return "\n".join(out) + "\n"
