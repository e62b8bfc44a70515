"""Exact composability oracles and certificates.

A target variety is composable from an instance when eight of its cubes
can be oriented into a 2x2x2 solid showing the target's face colors.
Two independent routes decide this:

* matching route: bipartite graph between usable cubes and the eight
  corner triples of the target; composable iff a matching of size eight
  exists.
* tree route: multigraph on the eight target triples with one edge per
  compatible cube joining its two shared triples; composable iff the
  number of cubes of the target variety is at least the number of tree
  components.

Both routes are kept separate so they can cross-check each other.  A
matching report (``max_matching``) carries both certificates: a perfect
matching yields the arrangement (``arrangement_from_report``), and a
short one the violated triple subset (``hall_set``, a closure over node
masks from the unmatched triples, and ``witness_from_report``).
``check`` matches each target once and derives its verdict and
whichever certificate it prints from that one report;
``extract_arrangement`` and ``hall_witness`` are the per-target
wrappers.  The matching stops as soon as all eight triples are held.
The tree route has two kernels.  ``tree_components``, the counting
form, runs the component closure on bitmasks through per-target tables
that each catalog builds on a target's first use, builds no multigraph,
and stops counting at a cap the caller names.  The solver, the census,
the row scan and the small-size sweep ask it for a verdict
(``composable_from_vector``, tree components at most the own count),
and the solver's forbidden targets for a bound: the count at the lower
bounds caps a forbidden target's own count.  ``treecount_from_vector``
is the one multigraph builder and counts tree components with
``graphs.tree_component_count``; the per-call
``is_composable_treecount`` (and so ``check``'s cross-check) and the
bulk scan use it, the bulk scan once per capped count pattern (each
compatible count capped at two, which cannot change a tree count), not
once per count vector.

Capped counts give the same verdicts as raw ones.  A perfect matching
uses at most ``OWN_CAP`` cubes of the target and ``COMPATIBLE_CAP`` of
each compatible cell, so the matching graph lists no more copies than
that, and a target whose capped supply falls short of eight corners is
not composable; ``composable_targets`` runs the bitmask kernel only on
the targets that pass this screen.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from collections.abc import Collection, Iterator, Sequence

from . import cubes
from .cubes import Coloring, Triple
from .errors import CertificateError, InvalidInputError
from .graphs import (
    maximum_bipartite_matching,
    tree_component_count as _tree_count_raw,
)
from .instances import Instance
from .varieties import CELLS, CELL_INDEX, COMPATIBLE_CAP, OWN_CAP, Catalog, catalog


def _cell_index(target: tuple[int, int]) -> int:
    try:
        return CELL_INDEX[tuple(target)]
    except KeyError:
        raise InvalidInputError(f"no table cell {target!r}") from None


# ----------------------------------------------------------------------
# matching route


@dataclass(frozen=True)
class MatchingReport:
    """Outcome of the bipartite matching for one target."""

    target: tuple[int, int]
    size: int
    #: per triple node: ((cell coords, copy index) or None)
    matched: tuple[tuple[tuple[int, int], int] | None, ...]

    @property
    def composable(self) -> bool:
        return self.size == 8


#: neighbour list of a target cube: every triple node of the target
_ALL_NODES = tuple(range(8))


def bipartite_adjacency(
    instance: Instance, target: tuple[int, int], cat: Catalog | None = None
) -> tuple[list[tuple[tuple[int, int], int]], list[tuple[int, ...]]]:
    """Usable cubes and their triple-node adjacency for one target.

    Cubes of the target variety reach all eight nodes, compatible cubes
    reach exactly their two shared nodes, everything else is left out.
    Cube order follows the cell order, copies numbered from zero.  Only
    the first ``OWN_CAP`` copies of the target and ``COMPATIBLE_CAP`` of
    each compatible cell are listed, so the graph has at most 48 cubes
    whatever the counts.  The matching is unchanged: twin copies come one
    after another, and a copy past its cap can never augment (its cell's
    nodes are all held by earlier twins, or an earlier twin already
    failed), so it stays unmatched and reaches nothing in the deficiency
    search either.
    """
    cat = cat or catalog()
    t = _cell_index(target)
    cubes_out: list[tuple[tuple[int, int], int]] = []
    adjacency: list[tuple[int, ...]] = []
    vec = instance.vector()
    for k, n in enumerate(vec):
        if not n:
            continue
        if k == t:
            nbrs = _ALL_NODES
            cap = OWN_CAP
        else:
            nbrs = cat.shared_pairs[t][k]
            if nbrs is None:
                continue
            cap = COMPATIBLE_CAP
        for copy in range(min(n, cap)):
            cubes_out.append((CELLS[k], copy))
            adjacency.append(nbrs)
    return cubes_out, adjacency


def max_matching(
    instance: Instance, target: tuple[int, int], cat: Catalog | None = None
) -> MatchingReport:
    cat = cat or catalog()
    cubes_list, adjacency = bipartite_adjacency(instance, target, cat)
    size, match_of_right = maximum_bipartite_matching(adjacency, 8)
    matched = tuple(
        cubes_list[u] if u != -1 else None for u in match_of_right
    )
    return MatchingReport(target=tuple(target), size=size, matched=matched)


def is_composable_matching(
    instance: Instance, target: tuple[int, int], cat: Catalog | None = None
) -> bool:
    return max_matching(instance, target, cat).composable


@dataclass(frozen=True)
class HallWitness:
    """Triple subset with too few usable cubes."""

    target: tuple[int, int]
    triples: frozenset[Triple]
    usable_cubes: int

    @property
    def violated(self) -> bool:
        return len(self.triples) > self.usable_cubes


def usable_cube_count(
    instance: Instance,
    target: tuple[int, int],
    triple_subset: frozenset[Triple],
    cat: Catalog | None = None,
) -> int:
    """Cubes carrying at least one triple of the subset at a target corner."""
    cat = cat or catalog()
    t = _cell_index(target)
    if not triple_subset:
        return 0
    total = 0
    vec = instance.vector()
    for k, n in enumerate(vec):
        if not n:
            continue
        if k == t:
            total += n
            continue
        pair = cat.shared_pairs[t][k]
        if pair is None:
            continue
        nodes = cat.triple_nodes[t]
        if nodes[pair[0]] in triple_subset or nodes[pair[1]] in triple_subset:
            total += n
    return total


def hall_set(report: MatchingReport, cat: Catalog) -> int:
    """Triple nodes of the deficient set, as a node mask; 0 if composable.

    The alternating-path closure from the unmatched triple nodes, run on
    8-bit node masks.  Every copy of a cell reaches the same nodes (all
    eight for the target's own cubes, the shared pair for a compatible
    cell), so once a cell's nodes meet the reached set, every node its
    matched copies hold is reached too.  The reached nodes N satisfy
    |N| > usable cubes, since every cube reaching N holds one of them.
    """
    t = _cell_index(report.target)
    free = 0
    held: dict[tuple[int, int], int] = {}  # cell -> nodes its copies hold
    for v, assigned in enumerate(report.matched):
        if assigned is None:
            free |= 1 << v
        else:
            held[assigned[0]] = held.get(assigned[0], 0) | 1 << v
    pairs = cat.shared_pairs[t]
    reach = []  # (nodes the cell's copies reach, nodes they hold)
    for cell, nodes in held.items():
        k = CELL_INDEX[cell]
        if k == t:
            reach.append((0xFF, nodes))
        else:
            a, b = pairs[k]
            reach.append((1 << a | 1 << b, nodes))
    reached = free
    while True:
        grown = reached
        for cell_nodes, nodes in reach:
            if cell_nodes & grown:
                grown |= nodes
        if grown == reached:
            return reached
        reached = grown


def witness_from_report(
    instance: Instance, report: MatchingReport, cat: Catalog
) -> HallWitness | None:
    """The Hall witness of a matching report, or None when it is perfect.

    The triples are the report's ``hall_set``; their usable cubes are
    recounted on the instance, and a subset that fails to violate the
    count condition raises CertificateError.
    """
    if report.composable:
        return None
    mask = hall_set(report, cat)
    nodes = cat.triple_nodes[_cell_index(report.target)]
    subset = frozenset(nodes[v] for v in range(8) if mask >> v & 1)
    witness = HallWitness(
        target=report.target,
        triples=subset,
        usable_cubes=usable_cube_count(instance, report.target, subset, cat),
    )
    if not witness.violated:
        raise CertificateError("internal: deficient set fails to violate the count condition")
    return witness


def hall_witness(
    instance: Instance, target: tuple[int, int], cat: Catalog | None = None
) -> HallWitness | None:
    """A violated triple subset, or None when the target is composable."""
    cat = cat or catalog()
    return witness_from_report(instance, max_matching(instance, target, cat), cat)


def hall_satisfied(
    instance: Instance, target: tuple[int, int], cat: Catalog | None = None
) -> bool:
    """Check every one of the 256 triple subsets directly."""
    cat = cat or catalog()
    t = _cell_index(target)
    nodes = cat.triple_nodes[t]
    # per-cell node masks for fast subset overlap
    vec = instance.vector()
    own = vec[t]
    masked: list[tuple[int, int]] = []  # (mask, count)
    for k, n in enumerate(vec):
        if n and k != t:
            pair = cat.shared_pairs[t][k]
            if pair is not None:
                masked.append(((1 << pair[0]) | (1 << pair[1]), n))
    for mask in range(256):
        need = mask.bit_count()
        have = own if mask else 0
        for m, n in masked:
            if m & mask:
                have += n
        if have < need:
            return False
    return True


# ----------------------------------------------------------------------
# tree route


def is_composable_treecount(
    instance: Instance, target: tuple[int, int], cat: Catalog | None = None
) -> bool:
    t = _cell_index(target)
    vec = instance.vector()
    return vec[t] >= treecount_from_vector(vec, t, cat or catalog())


# vector-level variants used by scans and the solver; same mathematics,
# no Instance wrapper on the hot path


def treecount_from_vector(
    vec: Sequence[int], target_index: int, cat: Catalog
) -> int:
    """Tree components of the target's shared-triple multigraph.

    The one place that builds the multigraph: each compatible cell with
    a positive count is an edge between its two shared triples.
    """
    pairs = cat.shared_pairs[target_index]
    edges = []
    for k in cat.compatible_cells[target_index]:
        n = vec[k]
        if n:
            a, b = pairs[k]
            edges.append((a, b, n))
    return _tree_count_raw(8, edges)


#: ``bytes.translate`` tables turning a count into a binary digit: "1"
#: when the cell's edge is present (count at least 1) or multiple (at
#: least 2)
_PRESENT_DIGITS = b"0" + b"1" * 255
_MULTI_DIGITS = b"00" + b"1" * 254

#: bit of cell 0 in a cell mask that ``int(..., 2)`` reads from a count
#: vector's digits, the first digit being the most significant
_TOP = len(CELLS) - 1


def _tree_tables(
    cat: Catalog, target_index: int
) -> tuple[array, bytes, bytes, bytes]:
    """Build and store the tree kernel's tables for one target.

    The edges of the target's shared-triple graph are its compatible
    cells, cell ``k`` at bit ``_TOP - k`` of a cell mask.  The tables
    are ``inc[C]``, the edges with an endpoint in the node set ``C``
    (an array, as 256 int objects per target would raise peak memory),
    and for each ten-bit third of a cell mask, the node set its edges
    touch.  Every entry extends a smaller one by one member.
    """
    pairs = cat.shared_pairs[target_index]
    ends = [0] * len(CELLS)  # the nodes of the edge at each bit
    for k in cat.compatible_cells[target_index]:
        a, b = pairs[k]
        ends[_TOP - k] = 1 << a | 1 << b
    at = [0] * 8  # the edges at each node
    for bit, pair in enumerate(ends):
        for v in range(8):
            if pair >> v & 1:
                at[v] |= 1 << bit
    inc = [0] * 256
    for c in range(1, 256):
        low = c & -c
        inc[c] = inc[c ^ low] | at[low.bit_length() - 1]
    thirds = []
    for first in (0, 10, 20):
        touched = bytearray(1024)
        for e in range(1, 1024):
            low = e & -e
            touched[e] = touched[e ^ low] | ends[first + low.bit_length() - 1]
        thirds.append(bytes(touched))
    tables = (array("I", inc), *thirds)
    cat.tree_tables[target_index] = tables
    return tables


def tree_components(
    vec: Sequence[int], target_index: int, cat: Catalog, stop: int
) -> int:
    """Tree components of the target's shared-triple multigraph, counted
    up to ``stop``: ``min(treecount_from_vector(vec, t, cat), stop)``.

    Builds no multigraph.  The cells with a count and those with two or
    more are two cell masks; each component is grown from its least node
    to a fixpoint through the target's tables, and it is a tree when none
    of its edges is multiple and it has one edge fewer than nodes.  The
    count stops as soon as it reaches ``stop``, which is at least one.
    """
    tables = cat.tree_tables[target_index] or _tree_tables(cat, target_index)
    inc, ends0, ends1, ends2 = tables
    try:
        raw = bytes(vec)
    except ValueError:  # a count past 255; only 0, 1 and more matter
        raw = bytes(min(n, 2) for n in vec)
    present = int(raw.translate(_PRESENT_DIGITS), 2)
    multi = int(raw.translate(_MULTI_DIGITS), 2)
    left = 255
    trees = 0
    while left:
        c = left & -left
        while True:
            e = present & inc[c]
            grown = c | ends0[e & 1023] | ends1[e >> 10 & 1023] | ends2[e >> 20]
            if grown == c:
                break
            c = grown
        left ^= c
        if not e & multi and e.bit_count() == c.bit_count() - 1:
            trees += 1
            if trees == stop:
                return trees
    return trees


def composable_from_vector(
    vec: Sequence[int], target_index: int, cat: Catalog
) -> bool:
    """Tree-route verdict for one target of a list or tuple of counts:
    ``vec[t] >= treecount_from_vector(vec, t, cat)``, on the counting
    form, which stops once the trees outnumber the target's own cubes.
    There are at most eight tree components."""
    own = vec[target_index]
    return own >= 8 or tree_components(vec, target_index, cat, own + 1) <= own


def composable_targets(vec: Sequence[int], cat: Catalog) -> Iterator[int]:
    """Indices of the targets the count vector composes, in cell order.

    Each target's capped supply (own count capped at ``OWN_CAP``, each
    compatible count at ``COMPATIBLE_CAP``) is summed first; a target
    whose supply falls short of eight cannot be matched, so the tree
    route runs only on the others.  The verdicts are those of
    ``composable_from_vector``, which is inlined here.
    """
    supply = [0] * len(CELLS)
    for k, n in enumerate(vec):
        if n:
            for t, cap in cat.supply_caps[k]:
                supply[t] += n if n < cap else cap
    for t, s in enumerate(supply):
        if s >= 8:
            own = vec[t]
            if own >= 8 or tree_components(vec, t, cat, own + 1) <= own:
                yield t


# ----------------------------------------------------------------------
# count-based sufficient bound


def count_bound(
    instance: Instance, target: tuple[int, int], cat: Catalog | None = None
) -> int:
    """Supply bound from capped row or column counts.

    Own count plus the best single row or column of compatible supply,
    each source capped at two (one cube covers at most two target
    triples).  A value of eight or more guarantees composability; smaller
    values decide nothing.
    """
    cat = cat or catalog()
    t = _cell_index(target)
    vec = instance.vector()
    return vec[t] + max(
        sum(min(vec[k], COMPATIBLE_CAP) for k in cells)
        for _, _, cells in cat.supply_lines[t]
    )


# ----------------------------------------------------------------------
# solution sets


def solution_set(
    instance: Instance, cat: Catalog | None = None, oracle: str = "matching"
) -> frozenset[tuple[int, int]]:
    """All table cells whose solid the instance can compose."""
    cat = cat or catalog()
    if oracle == "matching":
        test = is_composable_matching
    elif oracle == "treecount":
        test = is_composable_treecount
    else:
        raise InvalidInputError(f"unknown oracle {oracle!r}")
    return frozenset(c for c in CELLS if test(instance, c, cat))


def classify_solutions(solutions: Collection[tuple[int, int]]) -> str:
    """Class of an instance with the given solution set."""
    if not solutions:
        return "infeasible"
    if len(solutions) == len(CELLS):
        return "universal"
    return "other"


def classify(
    instance: Instance, cat: Catalog | None = None, oracle: str = "matching"
) -> str:
    return classify_solutions(solution_set(instance, cat, oracle))


def counting_floor(targets: Collection[int], cat: Catalog | None = None) -> int:
    """Smallest conceivable size of an instance composable for every
    target cell index in ``targets``.

    Every target needs eight corner contributions and a cube serves at
    most the targets among its own variety and the compatible ones, so
    the largest such share caps what one cube yields.
    """
    if not targets:
        return 0
    cat = cat or catalog()
    occ = [0] * len(CELLS)
    for t in targets:
        occ[t] += 1
        for k in cat.compatible_cells[t]:
            occ[k] += 1
    return math.ceil(8 * len(targets) / max(occ))


def universal_lower_bound(cat: Catalog | None = None) -> int:
    """Smallest conceivable size of an instance that generates all varieties."""
    return counting_floor(range(len(CELLS)), cat)


# ----------------------------------------------------------------------
# bulk scans
#
# Corpus-wide oracle sweeps need verdicts for millions of (instance,
# target) pairs.  On a fixed small support the tree count depends only
# on which compatible counts are 1 and which are more (a tree component
# has every edge multiplicity 1), so it is computed once per capped
# pattern; the matching question dualizes to a minimum vertex cover in
# which each cube class is either taken whole or pays for all corner
# nodes it reaches.  Both routes therefore vectorize over the axis of
# count combinations.  The per-call oracles above stay the ground truth;
# scans are expected to anchor bulk results against them on samples.


@dataclass(frozen=True)
class BulkVerdicts:
    """Verdict arrays for every count combination of one support.

    Rows follow the input combination order, columns follow CELLS.
    ``supply_bound`` holds the capped row/column bound; at least eight
    implies composable, less decides nothing.
    """

    support: tuple[tuple[int, int], ...]
    tree: object  # bool array, combinations x cells
    matching: object  # bool array, combinations x cells
    supply_bound: object  # int array, combinations x cells


def bulk_target_verdicts(
    support: Sequence[tuple[int, int]],
    counts: Sequence[Sequence[int]],
    cat: Catalog | None = None,
) -> BulkVerdicts:
    """Evaluate both oracles for many count vectors on a common support.

    ``counts`` is a combinations x support matrix of positive cube
    counts; zero is not allowed because the tree route's capped patterns
    range over {1, 2} for every support cell.  The cover
    enumeration is exponential in the support size, so this is meant for
    supports of a handful of cells.
    """
    import numpy as np

    cat = cat or catalog()
    sup = tuple(tuple(c) for c in support)
    if len(set(sup)) != len(sup):
        raise InvalidInputError("support lists a cell twice")
    if len(sup) > 12:
        raise InvalidInputError("bulk scan is limited to small supports")
    sup_idx = [_cell_index(c) for c in sup]
    arr = np.asarray(counts, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != len(sup):
        raise InvalidInputError("counts must be a combinations x support matrix")
    if arr.size and int(arr.min()) < 1:
        raise InvalidInputError("bulk scan needs every support count positive")
    m = arr.shape[0]
    caps = np.minimum(arr, 2)
    zeros = np.zeros(m, dtype=np.int64)
    tree = np.zeros((m, len(CELLS)), dtype=bool)
    matching = np.zeros((m, len(CELLS)), dtype=bool)
    supply = np.zeros((m, len(CELLS)), dtype=np.int64)

    for t in range(len(CELLS)):
        own_pos = None
        compat: list[tuple[int, int, int]] = []
        for pos, k in enumerate(sup_idx):
            if k == t:
                own_pos = pos
            else:
                pair = cat.shared_pairs[t][k]
                if pair is not None:
                    compat.append((pos, pair[0], pair[1]))
        own = arr[:, own_pos] if own_pos is not None else zeros

        # tree route: a tree component has every edge multiplicity 1, so
        # capping each compatible count at 2 keeps every tree count; one
        # kernel call per pattern in {1,2}^compatible covers all rows
        pattern = np.zeros(m, dtype=np.int64)
        for bit, (pos, _, _) in enumerate(compat):
            pattern |= (caps[:, pos] - 1) << bit
        tree_comps = np.empty(1 << len(compat), dtype=np.int64)
        vec = [0] * len(CELLS)
        for p in range(len(tree_comps)):
            for bit, (pos, _, _) in enumerate(compat):
                vec[sup_idx[pos]] = 1 + (p >> bit & 1)
            tree_comps[p] = treecount_from_vector(vec, t, cat)
        tree[:, t] = own >= tree_comps[pattern]

        # matching route: minimum vertex cover picks a subset of cube
        # classes whole and buys every corner node the rest can reach;
        # a perfect matching exists iff no cover costs less than eight
        active: list[tuple[int, int]] = []
        if own_pos is not None:
            active.append((own_pos, 0xFF))
        for pos, a, b in compat:
            active.append((pos, (1 << a) | (1 << b)))
        cover = None
        for chosen in range(1 << len(active)):
            node_mask = 0
            cols = []
            for bit, (pos, mask) in enumerate(active):
                if chosen >> bit & 1:
                    cols.append(pos)
                else:
                    node_mask |= mask
            cost = arr[:, cols].sum(axis=1) + node_mask.bit_count()
            cover = cost if cover is None else np.minimum(cover, cost)
        matching[:, t] = cover >= 8

        # capped row/column supply bound, same lines as count_bound
        best = zeros
        for _, _, cells in cat.supply_lines[t]:
            cols = [pos for pos, k in enumerate(sup_idx) if k in cells]
            if cols:
                best = np.maximum(best, caps[:, cols].sum(axis=1))
        supply[:, t] = own + best

    return BulkVerdicts(support=sup, tree=tree, matching=matching, supply_bound=supply)


# ----------------------------------------------------------------------
# arrangements


@dataclass(frozen=True)
class Placement:
    """One cube assigned to one solid corner with a fixed orientation."""

    corner: tuple[int, int, int]
    source: tuple[int, int]
    copy: int
    coloring: Coloring


@dataclass(frozen=True)
class Arrangement:
    target: tuple[int, int]
    solid_coloring: Coloring
    placements: tuple[Placement, ...]


def _node_corners(cat: Catalog, target_index: int) -> tuple:
    """Build and store the target's ``(triple node, corner)`` table.

    Each of the eight triple nodes shows at one corner of the target's
    solid; the entries are ordered by corner, largest first, which is
    the order an arrangement lists its placements in.
    """
    solid = cat.varieties[target_index].coloring
    corner_of_triple = {
        cubes.corner_triple(solid, signs): signs for signs in cubes.CORNER_SIGNS
    }
    table = tuple(
        sorted(
            enumerate(corner_of_triple[tr] for tr in cat.triple_nodes[target_index]),
            key=lambda entry: entry[1],
            reverse=True,
        )
    )
    cat.node_corners[target_index] = table
    return table


def arrangement_from_report(report: MatchingReport, cat: Catalog) -> Arrangement:
    """The arrangement a perfect matching report describes.

    Each cube goes to the corner of the triple node it is matched to and
    is rotated so its three corner faces coincide with the solid's
    colors, which pins the orientation completely.  Raises
    CertificateError when the report is not a perfect matching.
    """
    if not report.composable:
        raise CertificateError(f"target {report.target} is not composable here")
    t = _cell_index(report.target)
    solid = cat.varieties[t].coloring
    placements = []
    for node_idx, signs in cat.node_corners[t] or _node_corners(cat, t):
        source, copy = report.matched[node_idx]
        base = cat.variety(*source).coloring
        # the slots of the cube that carry the corner's three colors
        # name the one rotation that can bring them there
        held = tuple(base.index(solid[s]) for s in cubes.CORNER_SLOTS[signs])
        rot = cubes.CORNER_ROTATIONS.get((signs, held))
        if rot is None:
            triple = cat.triple_nodes[t][node_idx]
            raise CertificateError(
                f"internal: matched cube {source} cannot realize {triple} at {signs}"
            )
        oriented = cubes.apply_face_perm(base, rot)
        placements.append(
            Placement(corner=signs, source=source, copy=copy, coloring=oriented)
        )
    return Arrangement(
        target=report.target, solid_coloring=solid, placements=tuple(placements)
    )


def extract_arrangement(
    instance: Instance, target: tuple[int, int], cat: Catalog | None = None
) -> Arrangement:
    """Concrete witness arrangement for a composable target.

    Raises CertificateError when the target is not composable.
    """
    cat = cat or catalog()
    return arrangement_from_report(max_matching(instance, target, cat), cat)


def verify_arrangement(
    instance: Instance,
    target: tuple[int, int],
    arrangement: Arrangement,
    cat: Catalog | None = None,
) -> None:
    """Independent check of an arrangement; raises CertificateError on failure.

    Verifies corner coverage, exact face-color agreement on every exposed
    face, truthful source varieties and multiset usage within the instance.
    """
    cat = cat or catalog()
    if tuple(arrangement.target) != tuple(target):
        raise CertificateError("arrangement targets a different variety")
    solid = cat.variety(*target).coloring
    if arrangement.solid_coloring != solid:
        raise CertificateError("solid coloring is not the target's canonical coloring")
    if len(arrangement.placements) != 8:
        raise CertificateError("an arrangement needs exactly eight placements")
    corners_seen = set()
    usage: dict[tuple[int, int], set[int]] = {}
    for p in arrangement.placements:
        if p.corner not in cubes.CORNER_SLOTS:
            raise CertificateError(f"unknown corner {p.corner!r}")
        if p.corner in corners_seen:
            raise CertificateError(f"corner {p.corner} used twice")
        corners_seen.add(p.corner)
        coloring = cubes.validate_coloring(p.coloring)
        if cat.cell_of_coloring[coloring] != cat.variety(*p.source).index:
            raise CertificateError(
                f"placement at {p.corner} is not an orientation of variety {p.source}"
            )
        for slot in cubes.CORNER_SLOTS[p.corner]:
            if coloring[slot] != solid[slot]:
                raise CertificateError(
                    f"face mismatch at corner {p.corner}, slot {cubes.FACES[slot]}"
                )
        copies = usage.setdefault(tuple(p.source), set())
        if p.copy in copies:
            raise CertificateError(f"cube copy {p.source}#{p.copy} used twice")
        copies.add(p.copy)
    for source, copies in usage.items():
        available = instance.count(*source)
        if len(copies) > available or any(c >= available or c < 0 for c in copies):
            raise CertificateError(
                f"instance provides {available} cubes of {source}, arrangement wants {sorted(copies)}"
            )
