"""Recoloring and mirror symmetries acting on varieties and instances.

The group is the direct product of the 720 color permutations with the
two-element mirror flip, 1440 elements in all.  Each element permutes
the 30 table cells; that permutation action is what instance
canonicalization, stabilizers and orbit enumeration work with.

Cell sets are handled as bitmasks in which cell k is bit 29 - k, so
integer order on masks is the lexicographic order of 0/1 cell vectors
and the lex-least member of an orbit is its smallest mask.  The images
of a set under all 1440 elements at once are kept bit-sliced in one
integer: its bytes, read in native order as 32-bit words, are 1440
lanes, and lane i holds the mask of the set's image under group
element i.  `_lane_images` holds that integer for each single cell; the
lanes of a set are the sum over its cells (the bits are disjoint, so
nothing carries).  The canonical mask of a set is its least lane and
its stabilizer is the lanes equal to its own mask; both come from
big-integer arithmetic and byte searches that run in C.

Orbits of cell sets are listed by augmentation, one cell at a time,
filtered by a cheap invariant: a cell's score in a set counts the set's
other cells in each orbital, that is each orbit of ordered pairs of
distinct cells (`_orbital_weights`).  A set grown by a cell that another
of its cells outscores is never canonicalized; most of the least-lane
work of a census goes away that way.  The module stays on the standard
library: importing numpy would add about 10 MB to the resident size of
every process that enumerates orbits.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from collections.abc import Collection, Iterable, Iterator, Sequence

from . import cubes
from .cubes import Coloring
from .errors import InvalidInputError
from .instances import Instance
from .varieties import CELLS, CELL_INDEX, Catalog, Variety, catalog

_TOP = len(CELLS) - 1  # bit of cell 0; cell k is bit _TOP - k
_ORDER = 2 * math.factorial(len(cubes.COLORS))  # lanes per image integer


@dataclass(frozen=True)
class Symmetry:
    """A recoloring (image of p,q,r,s,t,u in order) plus optional mirror."""

    color_map: tuple[str, ...]
    mirrored: bool = False

    def __post_init__(self):
        if sorted(self.color_map) != sorted(cubes.COLORS):
            raise InvalidInputError(f"not a color permutation: {self.color_map!r}")

    @classmethod
    def identity(cls) -> "Symmetry":
        return cls(color_map=cubes.COLORS, mirrored=False)

    def apply_to_coloring(self, coloring: Coloring) -> Coloring:
        table = dict(zip(cubes.COLORS, self.color_map))
        out = tuple(table[c] for c in coloring)
        if self.mirrored:
            out = cubes.mirror_coloring(out)
        return out

    def apply_to_variety(self, v: Variety, cat: Catalog | None = None) -> Variety:
        cat = cat or catalog()
        return cat.by_coloring(self.apply_to_coloring(v.coloring))

    def compose(self, other: "Symmetry") -> "Symmetry":
        """Symmetry equal to applying `other` first, then self."""
        table = dict(zip(cubes.COLORS, self.color_map))
        combined = tuple(table[c] for c in other.color_map)
        return Symmetry(color_map=combined, mirrored=self.mirrored ^ other.mirrored)


@lru_cache(maxsize=4)
def group(cat: Catalog | None = None) -> tuple[Symmetry, ...]:
    """All 1440 symmetries in deterministic order."""
    out = []
    for perm in itertools.permutations(cubes.COLORS):
        for mirrored in (False, True):
            out.append(Symmetry(color_map=perm, mirrored=mirrored))
    return tuple(out)


@lru_cache(maxsize=4)
def cell_perms(cat: Catalog | None = None) -> tuple[tuple[int, ...], ...]:
    """Cell permutation induced by each group element, aligned with group().

    perm[k] is the cell index the variety at cell k is sent to.
    """
    cat = cat or catalog()
    mirror_cell = tuple(cat.mirror(v).index for v in cat.varieties)
    cell_of = cat.cell_of_coloring
    out = []
    for perm in itertools.permutations(cubes.COLORS):
        table = dict(zip(cubes.COLORS, perm))
        plain = tuple(
            cell_of[tuple(table[c] for c in v.coloring)] for v in cat.varieties
        )
        flipped = tuple(mirror_cell[x] for x in plain)
        out.append(plain)
        out.append(flipped)
    assert len(set(out)) == len(out), "cell action is expected to be faithful"
    return tuple(out)


@lru_cache(maxsize=4)
def inverse_cell_perms(cat: Catalog | None = None) -> tuple[tuple[int, ...], ...]:
    out = []
    for p in cell_perms(cat):
        inv = [0] * len(p)
        for i, t in enumerate(p):
            inv[t] = i
        out.append(tuple(inv))
    return tuple(out)


@lru_cache(maxsize=4)
def group_index(cat: Catalog | None = None) -> dict[Symmetry, int]:
    """Position of each symmetry in group(), cell_perms() and their inverses."""
    return {s: i for i, s in enumerate(group(cat))}


@lru_cache(maxsize=4)
def _lane_images(cat: Catalog | None = None) -> tuple[int, ...]:
    """Per cell, its image masks under every group element, one 32-bit lane each."""
    perms = cell_perms(cat)
    assert len(perms) == _ORDER
    return tuple(
        int.from_bytes(
            array("I", [1 << (_TOP - p[c]) for p in perms]).tobytes(), sys.byteorder
        )
        for c in range(len(CELLS))
    )


def _set_images(cells: Iterable[int], cat: Catalog | None = None) -> int:
    lanes = _lane_images(cat)
    return sum(lanes[c] for c in cells)


def _cells(mask: int) -> tuple[int, ...]:
    return tuple(k for k in range(len(CELLS)) if mask >> (_TOP - k) & 1)


@lru_cache(maxsize=1)
def _halvings() -> tuple[tuple[int, int, int], ...]:
    """(lanes kept, mask of their bits, bit 31 of each) per halving of the lanes."""
    out = []
    lanes = _ORDER
    while lanes % 2 == 0:
        lanes //= 2
        guard = (1 << 31).to_bytes(4, sys.byteorder) * lanes
        out.append((lanes, (1 << 32 * lanes) - 1, int.from_bytes(guard, sys.byteorder)))
    return tuple(out)


def _least_lane(images: int) -> int:
    """Smallest lane of a bit-sliced image integer: the set's canonical mask.

    While the number of lanes is even, the low half is compared with the
    high half lane by lane in one subtraction: bit 31 of (a | 1 << 31) - b
    is set exactly when a >= b, and as masks use 30 bits no borrow
    crosses a lane.  That bit, spread over its lane, keeps b there.  The
    odd number of lanes left is read back as an array.
    """
    lanes = _ORDER
    for lanes, low, guard in _halvings():
        a, b = images & low, images >> 32 * lanes
        ge = ((a | guard) - b & guard) >> 31
        images = a ^ (a ^ b) & ((ge << 32) - ge)
    return min(memoryview(images.to_bytes(4 * lanes, sys.byteorder)).cast("I"))


@lru_cache(maxsize=4)
def _orbital_weights(cat: Catalog | None = None) -> tuple[tuple[int, ...], ...]:
    """Per cell pair (x, y), 32 ** i when (x, y) lies in the i-th orbital
    (orbit of ordered pairs of distinct cells) and 0 when x == y.

    The group is transitive on cells, so any g sending x to cell 0 sends
    (x, y) to (0, g(y)), and the orbital is the orbit of g(y) under the
    stabilizer of cell 0.  The weights are group invariant, and so is a
    cell's score in a set: the sum of its column over the set, which
    packs how many of the set's other cells lie in each orbital, five
    bits apiece.
    """
    perms = cell_perms(cat)
    fixing = [p for p in perms if p[0] == 0]
    sender = {p.index(0): p for p in perms}
    assert len(sender) == len(CELLS), "the group is expected to be transitive"
    orbital: dict[int, int] = {}  # orbit number under `fixing`, {0} first
    for c in range(len(CELLS)):
        if c not in orbital:
            number = len(set(orbital.values()))
            orbital.update((p[c], number) for p in fixing)
    return tuple(
        tuple(
            0 if x == y else 32 ** (orbital[sender[x][y]] - 1)
            for y in range(len(CELLS))
        )
        for x in range(len(CELLS))
    )


def _stabilizer_indices(cells: Collection[int], cat: Catalog | None = None) -> list[int]:
    """Ascending group positions of the elements mapping `cells` onto itself."""
    data = _set_images(cells, cat).to_bytes(4 * _ORDER, sys.byteorder)
    key = sum(1 << (_TOP - c) for c in cells).to_bytes(4, sys.byteorder)
    hits = []
    at = data.find(key)
    while at >= 0:
        if at % 4:  # the key straddles two lanes
            at = data.find(key, at + 1)
        else:
            hits.append(at // 4)
            at = data.find(key, at + 4)
    return hits


def apply_to_instance(
    sym: Symmetry, instance: Instance, cat: Catalog | None = None
) -> Instance:
    cat = cat or catalog()
    perm = cell_perms(cat)[group_index(cat)[sym]]
    vec = instance.vector()
    moved = [0] * len(CELLS)
    for k, n in enumerate(vec):
        moved[perm[k]] = n
    return Instance.from_vector(moved)


def permuted_vector(
    vec: Sequence[int], perm: Sequence[int]
) -> tuple[int, ...]:
    moved = [0] * len(perm)
    for k, n in enumerate(vec):
        moved[perm[k]] = n
    return tuple(moved)


def least_image(
    vec: Sequence[int], perms: Sequence[Sequence[int]]
) -> tuple[int, ...]:
    """Lexicographically smallest image of a count vector under the given
    cell permutations; the vector itself when there are none."""
    vec = tuple(vec)
    return min((permuted_vector(vec, p) for p in perms), default=vec)


def canonical_vector(
    vec: Sequence[int], cat: Catalog | None = None
) -> tuple[int, ...]:
    """Lexicographically smallest image of a count vector under the group."""
    return least_image(vec, cell_perms(cat or catalog()))


def canonical_instance(instance: Instance, cat: Catalog | None = None) -> Instance:
    return Instance.from_vector(canonical_vector(instance.vector(), cat))


def orbit_size(instance: Instance, cat: Catalog | None = None) -> int:
    cat = cat or catalog()
    vec = instance.vector()
    perms = cell_perms(cat)
    # an element fixing the vector fixes its support
    support = [k for k, n in enumerate(vec) if n]
    fixed = sum(
        1
        for i in _stabilizer_indices(support, cat)
        if permuted_vector(vec, perms[i]) == vec
    )
    total = len(perms)
    assert total % fixed == 0
    return total // fixed


def stabilizer(
    cells: Iterable[tuple[int, int]], cat: Catalog | None = None
) -> tuple[Symmetry, ...]:
    """All symmetries mapping the given cell set onto itself."""
    cat = cat or catalog()
    wanted = {CELL_INDEX[tuple(c)] for c in cells}
    syms = group(cat)
    return tuple(syms[i] for i in _stabilizer_indices(wanted, cat))


def stabilizer_perms(
    cells: Iterable[tuple[int, int]], cat: Catalog | None = None
) -> tuple[tuple[int, ...], ...]:
    cat = cat or catalog()
    wanted = {CELL_INDEX[tuple(c)] for c in cells}
    perms = cell_perms(cat)
    return tuple(perms[i] for i in _stabilizer_indices(wanted, cat))


# ----------------------------------------------------------------------
# orbit enumeration (supports first, then count distributions)


def canonical_supports(
    max_size: int, cat: Catalog | None = None
) -> list[tuple[int, ...]]:
    """Lex-least representative of every orbit of cell subsets up to max_size.

    Augmentation, one size at a time: every representative S of size j
    gains each absent cell k, the child is replaced by the least mask
    among its images and duplicates collapse in a set.  A child is
    skipped, before any image is taken, when some cell of S outscores k
    in it (`_orbital_weights`).  No orbit is lost: take a member C and a
    top-scoring cell x of it; some g maps C - x onto a listed
    representative, and as scores are invariant g(x) tops g(C), so that
    representative's child by g(x) is kept.  Sorting the masks lists the
    representatives in lexicographic order of their 0/1 cell vectors.
    """
    cat = cat or catalog()
    images = _lane_images(cat)
    weights = _orbital_weights(cat)
    layer = {0}
    found: list[int] = []
    for _ in range(min(max_size, len(CELLS))):
        grown = set()
        for mask in layer:
            cells = _cells(mask)
            base = _set_images(cells, cat)
            # score[c]: c's score in S, or in S + c for c outside S; a
            # cell x of S scores score[x] + weights[k][x] in S + k
            rows = [weights[y] for y in cells]
            score = [sum(col) for col in zip(*rows)] if rows else [0] * len(CELLS)
            for k in range(len(CELLS)):
                if k in cells or any(
                    score[x] + weights[k][x] > score[k] for x in cells
                ):
                    continue
                grown.add(_least_lane(base + images[k]))
        found.extend(grown)
        layer = grown
    return [_cells(mask) for mask in sorted(found)]


def _compositions(total: int, parts: int, cap: int) -> Iterator[tuple[int, ...]]:
    """All ways to write total as `parts` integers in 1..cap, in lex order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    lo = max(1, total - cap * (parts - 1))
    hi = min(cap, total - (parts - 1))
    for first in range(lo, hi + 1):
        for rest in _compositions(total - first, parts - 1, cap):
            yield (first,) + rest


def orbit_vectors(
    size: int, cat: Catalog | None = None, cap: int | None = None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """(count vector, orbit size) for one representative of every orbit.

    Representatives are grouped by their canonical support; within a
    support only distributions that are lex-least under the support's
    stabilizer survive.  Covers every orbit exactly once.
    """
    cat = cat or catalog()
    if cap is None:
        cap = size
    if size == 0:
        yield tuple([0] * len(CELLS)), 1
        return
    group_order = len(cell_perms(cat))
    supports = canonical_supports(min(size, len(CELLS)), cat)
    inv = inverse_cell_perms(cat)
    compositions: dict[int, list[tuple[int, ...]]] = {}
    for S in supports:
        k = len(S)
        if k > size or k * cap < size:
            continue
        if k not in compositions:
            compositions[k] = list(_compositions(size, k, cap))
        stab_inv = [inv[i] for i in _stabilizer_indices(S, cat)]
        # elements fixing the support pointwise fix any vector on it
        pointwise = sum(1 for pi in stab_inv if all(pi[c] == c for c in S))
        nontrivial = [pi for pi in stab_inv if any(pi[c] != c for c in S)]
        for parts in compositions[k]:
            at = dict(zip(S, parts))
            fixed = pointwise
            smallest = True
            for pi in nontrivial:
                moved = tuple(at[pi[c]] for c in S)
                if moved < parts:
                    smallest = False
                    break
                if moved == parts:
                    fixed += 1
            if smallest:
                vec = [0] * len(CELLS)
                for c, v in at.items():
                    vec[c] = v
                yield tuple(vec), group_order // fixed


def count_orbits(size: int, cat: Catalog | None = None) -> int:
    """Orbit count of size-`size` multisets by averaging fixed points."""
    cat = cat or catalog()
    perms = cell_perms(cat)
    total = 0
    for p in perms:
        lens = _cycle_lengths(p)
        dp = [0] * (size + 1)
        dp[0] = 1
        for L in lens:
            nxt = [0] * (size + 1)
            for s in range(size + 1):
                if dp[s]:
                    reach = s
                    while reach <= size:
                        nxt[reach] += dp[s]
                        reach += L
            dp = nxt
        total += dp[size]
    assert total % len(perms) == 0
    return total // len(perms)


def _cycle_lengths(p: Sequence[int]) -> list[int]:
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
                length += 1
            out.append(length)
    return out
