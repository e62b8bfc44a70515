"""Variety catalog: the 30 rotation classes and their 6x6 table.

A variety is a rotation class of bijective face colorings; two varieties
are compatible when their corner-triple sets share exactly two triples.
The catalog arranges all 30 varieties in a six-by-six table (diagonal
unused) such that the cell at (j, i) holds the mirror of the cell at
(i, j) and the five varieties of any row or column are pairwise
incompatible.  Cell (1, 2) is pinned to a fixed chiral class so the
layout is reproducible, the remaining cells are found by backtracking in
canonical order, and every candidate layout must reproduce a battery of
known composability facts before it is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import cubes
from .cubes import Coloring, Triple
from .errors import InvalidInputError, TableConstructionError
from .graphs import tree_component_count

#: Off-diagonal table cells in row-major order; instances and search
#: vectors are flattened in this order throughout the package.
CELLS: tuple[tuple[int, int], ...] = tuple(
    (i, j) for i in range(1, 7) for j in range(1, 7) if i != j
)
CELL_INDEX = {c: k for k, c in enumerate(CELLS)}

#: Most cubes of the target's own variety that a perfect matching of a
#: target's eight corner triples can use: there are eight corners.
OWN_CAP = 8

#: Most cubes of one compatible variety that a perfect matching can use.
#: Every copy of a compatible variety shows the same two of the target's
#: corner triples and no other, so at most two copies are ever matched.
#: With OWN_CAP this makes capping counts exact for every composability
#: question: a capped count vector composes a target exactly when the
#: raw one does.
COMPATIBLE_CAP = 2

#: Corner-triple set pinned to table cell (1, 2).  This constant fixes
#: which member of a chiral pair is called (1, 2); every other cell is
#: derived from it.
PINNED_TRIPLES_12: frozenset[Triple] = frozenset(
    [
        ("p", "q", "t"),
        ("p", "s", "u"),
        ("p", "t", "s"),
        ("p", "u", "q"),
        ("q", "r", "t"),
        ("q", "u", "r"),
        ("r", "s", "t"),
        ("r", "u", "s"),
    ]
)


@dataclass(frozen=True)
class Variety:
    """One rotation class, addressed by its table cell."""

    coords: tuple[int, int]
    index: int
    coloring: Coloring
    triples: frozenset[Triple]

    def __str__(self) -> str:
        return f"({self.coords[0]},{self.coords[1]})"


# Reference counts by table cell.  They cross-validate a candidate
# table before it is accepted, and `experiments` bundles them as its
# reference instances.

#: nine cubes spread over seven varieties; composes (1,2) but not (2,3)
NINE_CUBE_COUNTS = {
    (1, 2): 2, (2, 6): 1, (3, 5): 1, (3, 6): 1, (5, 6): 2, (6, 4): 1, (6, 5): 1,
}
#: largest known instance composing nothing: one row, entries 7,7,7,1,1
INFEASIBLE_23_COUNTS = {(1, 2): 7, (1, 3): 7, (1, 4): 7, (1, 5): 1, (1, 6): 1}
#: twelve cubes on two diagonal blocks; composes every variety
UNIVERSAL_12_COUNTS = {
    (1, 2): 1, (1, 3): 1, (2, 1): 1, (2, 3): 1, (3, 1): 1, (3, 2): 1,
    (4, 5): 1, (4, 6): 1, (5, 4): 1, (5, 6): 1, (6, 4): 1, (6, 5): 1,
}


class Catalog:
    """Immutable bundle of the 30 varieties plus precomputed incidence data."""

    def __init__(self) -> None:
        reps, class_of, triples, share, mirror_of = _enumerate_classes()
        layout = _build_table(reps, triples, share, mirror_of)

        self.varieties: tuple[Variety, ...] = tuple(
            Variety(
                coords=cell,
                index=k,
                coloring=reps[layout[cell]],
                triples=triples[layout[cell]],
            )
            for k, cell in enumerate(CELLS)
        )
        self._by_coords = {v.coords: v for v in self.varieties}
        # cell of each of the 720 face colorings: the 24 orientations of
        # every variety, so a lookup replaces canonicalizing a coloring
        cell_of_class = {layout[cell]: k for k, cell in enumerate(CELLS)}
        self.cell_of_coloring: dict[Coloring, int] = {
            c: cell_of_class[k] for c, k in class_of.items()
        }
        self._by_triples = {v.triples: v for v in self.varieties}

        # cell-indexed incidence tables used by the oracles and the solver
        n = len(CELLS)
        self.share_table: tuple[tuple[int, ...], ...] = tuple(
            tuple(
                len(self.varieties[a].triples & self.varieties[b].triples)
                if a != b
                else 8
                for b in range(n)
            )
            for a in range(n)
        )
        self.compatible_cells: tuple[tuple[int, ...], ...] = tuple(
            tuple(b for b in range(n) if b != a and self.share_table[a][b] == 2)
            for a in range(n)
        )
        self.incompatible_cells: tuple[tuple[int, ...], ...] = tuple(
            tuple(b for b in range(n) if b != a and self.share_table[a][b] == 0)
            for a in range(n)
        )
        # supply_lines[t]: (axis, line, cells) for every row and then every
        # column other than the target's own, listing the four compatible
        # cells on that line; the capped supply bounds sum over these
        self.supply_lines: tuple[
            tuple[tuple[str, int, tuple[int, ...]], ...], ...
        ] = tuple(
            tuple(
                (axis, line, tuple(k for k in self.compatible_cells[t]
                                   if CELLS[k][pos] == line))
                for axis, pos in (("row", 0), ("col", 1))
                for line in range(1, 7)
                if line != CELLS[t][pos]
            )
            for t in range(n)
        )
        # supply_caps[k]: (target, cap) for every target a cube of cell k
        # can serve, its own cell first; the capped supply of a target
        # sums min(count, cap) over the cells serving it
        self.supply_caps: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            ((k, OWN_CAP),) + tuple((t, COMPATIBLE_CAP) for t in self.compatible_cells[k])
            for k in range(n)
        )
        self.triple_nodes: tuple[tuple[Triple, ...], ...] = tuple(
            tuple(sorted(v.triples)) for v in self.varieties
        )
        # shared_pair[t][w]: node indices of the two triples variety w shares
        # with target t, in the target's triple_nodes numbering
        pair_table = []
        for t in range(n):
            pos = {tr: k for k, tr in enumerate(self.triple_nodes[t])}
            row: list[tuple[int, int] | None] = [None] * n
            for w in self.compatible_cells[t]:
                a, b = sorted(
                    pos[tr]
                    for tr in self.varieties[w].triples & self.varieties[t].triples
                )
                row[w] = (a, b)
            pair_table.append(tuple(row))
        self.shared_pairs: tuple[tuple[tuple[int, int] | None, ...], ...] = tuple(
            pair_table
        )
        # tree_tables[t]: the bitmask tree kernel's tables for target t,
        # built by composability on the target's first use, not here
        self.tree_tables: list[tuple | None] = [None] * n
        # node_corners[t]: (triple node, corner) pairs of target t, in
        # placement order, built by composability on first use
        self.node_corners: list[tuple | None] = [None] * n

    # ------------------------------------------------------------------
    # lookups

    @property
    def cells(self) -> tuple[tuple[int, int], ...]:
        return CELLS

    def variety(self, i: int, j: int) -> Variety:
        try:
            return self._by_coords[(i, j)]
        except KeyError:
            raise InvalidInputError(f"no table cell ({i},{j})") from None

    def by_coloring(self, coloring) -> Variety:
        return self.varieties[self.cell_of_coloring[cubes.validate_coloring(coloring)]]

    def mirror(self, v: Variety) -> Variety:
        return self._by_triples[frozenset(cubes.mirror_triple(t) for t in v.triples)]

    def share_count(self, a: Variety, b: Variety) -> int:
        if a.index == b.index:
            raise InvalidInputError("shared-triple count needs two distinct varieties")
        return self.share_table[a.index][b.index]

    def compatible(self, v: Variety) -> tuple[Variety, ...]:
        return tuple(self.varieties[k] for k in self.compatible_cells[v.index])

    def incompatible(self, v: Variety) -> tuple[Variety, ...]:
        return tuple(self.varieties[k] for k in self.incompatible_cells[v.index])

    # ------------------------------------------------------------------
    # single-cube operations

    def swap_neighbors(self, v: Variety) -> frozenset[Variety]:
        """Varieties reached by exchanging the colors of two adjacent faces."""
        out = set()
        for a, b in cubes.adjacent_slot_pairs():
            c = list(v.coloring)
            c[a], c[b] = c[b], c[a]
            out.add(self.by_coloring(tuple(c)))
        out.discard(v)
        return frozenset(out)

    def rotation_neighbors(self, v: Variety) -> frozenset[Variety]:
        """Varieties reached by cycling the three colors around one corner."""
        out = set()
        for signs in cubes.CORNER_SIGNS:
            i, j, k = cubes.CORNER_SLOTS[signs]
            for src in ((j, k, i), (k, i, j)):
                c = list(v.coloring)
                c[i], c[j], c[k] = (v.coloring[x] for x in src)
                out.add(self.by_coloring(tuple(c)))
        out.discard(v)
        return frozenset(out)


@lru_cache(maxsize=1)
def catalog() -> Catalog:
    """The shared catalog instance; built once per process."""
    return Catalog()


# ----------------------------------------------------------------------
# construction internals


def _enumerate_classes():
    """Rotation classes of the 720 colorings, sorted by canonical coloring.

    Also returns the class index of every coloring.
    """
    canon = {c: cubes.canonical_coloring(c) for c in cubes.all_colorings()}
    reps = tuple(sorted(set(canon.values())))
    if len(reps) != 30:
        raise TableConstructionError(f"expected 30 rotation classes, found {len(reps)}")
    rep_index = {r: k for k, r in enumerate(reps)}
    class_of = {c: rep_index[r] for c, r in canon.items()}
    triples = tuple(cubes.corner_triples(r) for r in reps)
    share = tuple(
        tuple(len(triples[a] & triples[b]) for b in range(30)) for a in range(30)
    )
    by_triples = {t: k for k, t in enumerate(triples)}
    mirror_of = tuple(
        by_triples[frozenset(cubes.mirror_triple(t) for t in triples[k])]
        for k in range(30)
    )
    for k in range(30):
        if mirror_of[k] == k or mirror_of[mirror_of[k]] != k:
            raise TableConstructionError("mirror pairing is not a fixed-point-free involution")
    return reps, class_of, triples, share, mirror_of


_UPPER_CELLS = tuple((i, j) for i in range(1, 7) for j in range(i + 1, 7))


def _build_table(reps, triples, share, mirror_of) -> dict[tuple[int, int], int]:
    """Backtracking layout search with cross-validation of each solution.

    Cells are filled in upper-triangle order with candidates tried in
    canonical-coloring order, the lower triangle always holding mirrors,
    so solutions appear deterministically.  The first layout that also
    reproduces the reference composability facts is returned.
    """
    try:
        pinned = next(k for k in range(30) if triples[k] == PINNED_TRIPLES_12)
    except StopIteration:
        raise TableConstructionError("pinned triple set for cell (1,2) not found")

    assignment: dict[tuple[int, int], int] = {}
    used = [False] * 30

    def fits(i: int, j: int, cand: int) -> bool:
        for (a, b), w in assignment.items():
            if (a == i or b == j) and share[cand][w] != 0:
                return False
        return True

    def place(cell, cand):
        assignment[cell] = cand
        used[cand] = True

    def remove(cell, cand):
        del assignment[cell]
        used[cand] = False

    solutions_seen = 0

    def backtrack(k: int) -> dict[tuple[int, int], int] | None:
        nonlocal solutions_seen
        if k == len(_UPPER_CELLS):
            solutions_seen += 1
            if _layout_checks_pass(assignment, triples, share):
                return dict(assignment)
            return None
        i, j = _UPPER_CELLS[k]
        for cand in range(30):
            if used[cand] or used[mirror_of[cand]]:
                continue
            if not fits(i, j, cand) or not fits(j, i, mirror_of[cand]):
                continue
            place((i, j), cand)
            place((j, i), mirror_of[cand])
            found = backtrack(k + 1)
            if found is not None:
                return found
            remove((i, j), cand)
            remove((j, i), mirror_of[cand])
        return None

    place((1, 2), pinned)
    place((2, 1), mirror_of[pinned])
    layout = backtrack(1)
    if layout is None:
        raise TableConstructionError(
            f"no table layout passed cross-validation ({solutions_seen} candidates)"
        )
    return layout


def _class_composable(layout, triples, share, counts, target_cell) -> bool:
    """Tree-criterion composability for a raw candidate layout."""
    t = layout[target_cell]
    nodes = sorted(triples[t])
    pos = {tr: k for k, tr in enumerate(nodes)}
    own = 0
    edges = []
    for cell, n in counts.items():
        w = layout[cell]
        if w == t:
            own += n
        elif share[w][t] == 2:
            a, b = sorted(pos[tr] for tr in triples[w] & triples[t])
            edges.append((a, b, n))
    return own >= tree_component_count(8, edges)


def _layout_checks_pass(assignment, triples, share) -> bool:
    """Reference facts every acceptable layout must reproduce."""
    # nine-cube example: (1,2) composable, (2,3) not, and the shared-triple
    # multigraph for target (1,2) leaves exactly the (p,s,u) node isolated
    if not _class_composable(assignment, triples, share, NINE_CUBE_COUNTS, (1, 2)):
        return False
    if _class_composable(assignment, triples, share, NINE_CUBE_COUNTS, (2, 3)):
        return False
    t = assignment[(1, 2)]
    covered: set[Triple] = set()
    for cell, n in NINE_CUBE_COUNTS.items():
        w = assignment[cell]
        if w != t and share[w][t] == 2 and n:
            covered |= triples[w] & triples[t]
    isolated = triples[t] - covered
    if isolated != {("p", "s", "u")}:
        return False
    # 23-cube row pattern generates nothing at all
    for cell in CELLS:
        if _class_composable(assignment, triples, share, INFEASIBLE_23_COUNTS, cell):
            return False
    # 12-cube two-block pattern generates everything
    for cell in CELLS:
        if not _class_composable(assignment, triples, share, UNIVERSAL_12_COUNTS, cell):
            return False
    return True
