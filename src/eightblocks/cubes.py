"""Face-slot geometry for a single cube.

A coloring is a tuple of six colors indexed by the fixed face slots
U, D, F, B, L, R (up, down, front, back, left, right).  Rotations are
represented as lookup tables over those slots, so applying one never
touches coordinates at runtime.  The eight corners carry their three
incident slots in clockwise order as seen from outside the cube; that
orientation convention is what makes corner triples well defined.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import InvalidInputError

COLORS = ("p", "q", "r", "s", "t", "u")
FACES = ("U", "D", "F", "B", "L", "R")
FACE_INDEX = {f: i for i, f in enumerate(FACES)}

Coloring = tuple[str, ...]
Triple = tuple[str, str, str]

# Outward normals per slot: U=+z, D=-z, B=+y, F=-y, R=+x, L=-x.
_SLOT_OF_AXIS = {
    (0, 1): "R", (0, -1): "L",
    (1, 1): "B", (1, -1): "F",
    (2, 1): "U", (2, -1): "D",
}


def _build_corners() -> tuple[tuple[tuple[int, int, int], tuple[int, int, int]], ...]:
    corners = []
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                fx = _SLOT_OF_AXIS[(0, sx)]
                fy = _SLOT_OF_AXIS[(1, sy)]
                fz = _SLOT_OF_AXIS[(2, sz)]
                # (fx, fy, fz) runs counterclockwise from outside when the
                # sign product is +1, clockwise when it is -1.
                if sx * sy * sz == -1:
                    order = (fx, fy, fz)
                else:
                    order = (fx, fz, fy)
                slot_idx = tuple(FACE_INDEX[f] for f in order)
                corners.append(((sx, sy, sz), slot_idx))
    return tuple(corners)


#: Eight corners as (sign vector, clockwise slot triple seen from outside).
CORNERS = _build_corners()

CORNER_SIGNS = tuple(signs for signs, _ in CORNERS)
CORNER_SLOTS = dict(CORNERS)

FacePerm = tuple[int, ...]

IDENTITY_PERM: FacePerm = tuple(range(6))


def compose_perms(first: FacePerm, then: FacePerm) -> FacePerm:
    """Permutation equal to applying `first`, then `then`."""
    return tuple(first[then[i]] for i in range(6))


def apply_face_perm(coloring: Coloring, perm: FacePerm) -> Coloring:
    return tuple(coloring[perm[i]] for i in range(6))


def _perm_from_moves(moves: dict[str, str]) -> FacePerm:
    # moves maps slot -> slot it travels to; stored inverted so that
    # apply_face_perm reads source slots directly.
    inv = [0] * 6
    for src, dst in moves.items():
        inv[FACE_INDEX[dst]] = FACE_INDEX[src]
    return tuple(inv)


_QUARTER_Z = _perm_from_moves({"R": "B", "B": "L", "L": "F", "F": "R", "U": "U", "D": "D"})
_QUARTER_X = _perm_from_moves({"B": "U", "U": "F", "F": "D", "D": "B", "R": "R", "L": "L"})

#: Reflection through the plane separating L from R.
MIRROR_PERM: FacePerm = _perm_from_moves(
    {"L": "R", "R": "L", "U": "U", "D": "D", "F": "F", "B": "B"}
)


def _rotation_closure() -> tuple[FacePerm, ...]:
    seen = {IDENTITY_PERM}
    frontier = [IDENTITY_PERM]
    while frontier:
        nxt = []
        for perm in frontier:
            for gen in (_QUARTER_Z, _QUARTER_X):
                composed = compose_perms(perm, gen)
                if composed not in seen:
                    seen.add(composed)
                    nxt.append(composed)
        frontier = nxt
    return tuple(sorted(seen))


#: All 24 rotations as face-slot lookup tables.
ROTATIONS = _rotation_closure()
assert len(ROTATIONS) == 24

#: Rotation by corner and the source slots it brings to that corner's
#: three slots; three faces pin a rotation, so no two rotations share a key.
CORNER_ROTATIONS = {
    (signs, tuple(rot[s] for s in slots)): rot
    for signs, slots in CORNERS
    for rot in ROTATIONS
}
assert len(CORNER_ROTATIONS) == 8 * 24


def validate_coloring(coloring) -> Coloring:
    c = tuple(coloring)
    if len(c) != 6 or sorted(c) != sorted(COLORS):
        raise InvalidInputError(f"not a bijective six-color face assignment: {c!r}")
    return c


def rotations_of(coloring: Coloring) -> tuple[Coloring, ...]:
    return tuple(apply_face_perm(coloring, r) for r in ROTATIONS)


def canonical_coloring(coloring: Coloring) -> Coloring:
    """Lexicographically smallest face tuple over all 24 rotations."""
    return min(rotations_of(coloring))


def mirror_coloring(coloring: Coloring) -> Coloring:
    return apply_face_perm(coloring, MIRROR_PERM)


def canonical_triple(triple) -> Triple:
    """Rotate a cyclic color triple so the smallest color leads."""
    a, b, c = triple
    if a == b or b == c or a == c:
        raise InvalidInputError(f"corner triple with repeated color: {triple!r}")
    for x in (a, b, c):
        if x not in COLORS:
            raise InvalidInputError(f"unknown color {x!r} in triple {triple!r}")
    smallest = min(a, b, c)
    if a == smallest:
        return (a, b, c)
    if b == smallest:
        return (b, c, a)
    return (c, a, b)


def mirror_triple(triple: Triple) -> Triple:
    """Same three colors read in the opposite cyclic direction."""
    a, b, c = canonical_triple(triple)
    return (a, c, b)


def corner_triple(coloring: Coloring, signs: tuple[int, int, int]) -> Triple:
    """Canonical clockwise triple shown at the given corner."""
    i, j, k = CORNER_SLOTS[signs]
    return canonical_triple((coloring[i], coloring[j], coloring[k]))


def corner_triples(coloring: Coloring) -> frozenset[Triple]:
    """The eight corner triples of a coloring."""
    c = validate_coloring(coloring)
    return frozenset(corner_triple(c, signs) for signs in CORNER_SIGNS)


@lru_cache(maxsize=1)
def all_triples() -> tuple[Triple, ...]:
    """All 40 canonical triples over the six colors, sorted."""
    out = {
        canonical_triple(t)
        for t in itertools.permutations(COLORS, 3)
    }
    return tuple(sorted(out))


@lru_cache(maxsize=1)
def adjacent_slot_pairs() -> tuple[tuple[int, int], ...]:
    """The 12 unordered pairs of edge-adjacent face slots."""
    pairs = set()
    for _, (i, j, k) in CORNERS:
        pairs.update({tuple(sorted(p)) for p in ((i, j), (j, k), (i, k))})
    out = tuple(sorted(pairs))
    assert len(out) == 12
    return out


def all_colorings() -> tuple[Coloring, ...]:
    """All 720 bijective face colorings."""
    return tuple(itertools.permutations(COLORS))
