"""Recoloring and mirror symmetries acting on varieties and instances.

The group is the direct product of the 720 color permutations with the
two-element mirror flip, 1440 elements in all.  Each element permutes
the 30 table cells; that permutation action is what instance
canonicalization, stabilizers and orbit enumeration work with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from collections.abc import Iterable, Iterator, Sequence

from . import cubes
from .cubes import Coloring
from .errors import InvalidInputError
from .instances import Instance
from .varieties import CELLS, CELL_INDEX, Catalog, Variety, catalog


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
    out = []
    for perm in itertools.permutations(cubes.COLORS):
        table = dict(zip(cubes.COLORS, perm))
        plain = tuple(
            cat.by_coloring(tuple(table[c] for c in v.coloring)).index
            for v in cat.varieties
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


def apply_to_instance(
    sym: Symmetry, instance: Instance, cat: Catalog | None = None
) -> Instance:
    cat = cat or catalog()
    syms = group(cat)
    perm = cell_perms(cat)[syms.index(sym)]
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


def canonical_vector(
    vec: Sequence[int], cat: Catalog | None = None
) -> tuple[int, ...]:
    """Lexicographically smallest image of a count vector under the group."""
    cat = cat or catalog()
    vec = tuple(vec)
    return min(permuted_vector(vec, p) for p in cell_perms(cat))


def canonical_instance(instance: Instance, cat: Catalog | None = None) -> Instance:
    return Instance.from_vector(canonical_vector(instance.vector(), cat))


def orbit_size(instance: Instance, cat: Catalog | None = None) -> int:
    cat = cat or catalog()
    vec = instance.vector()
    fixed = sum(1 for p in cell_perms(cat) if permuted_vector(vec, p) == vec)
    total = len(cell_perms(cat))
    assert total % fixed == 0
    return total // fixed


def stabilizer(
    cells: Iterable[tuple[int, int]], cat: Catalog | None = None
) -> tuple[Symmetry, ...]:
    """All symmetries mapping the given cell set onto itself."""
    cat = cat or catalog()
    wanted = frozenset(CELL_INDEX[tuple(c)] for c in cells)
    syms = group(cat)
    perms = cell_perms(cat)
    return tuple(
        syms[i]
        for i in range(len(syms))
        if frozenset(perms[i][k] for k in wanted) == wanted
    )


def stabilizer_perms(
    cells: Iterable[tuple[int, int]], cat: Catalog | None = None
) -> tuple[tuple[int, ...], ...]:
    cat = cat or catalog()
    wanted = frozenset(CELL_INDEX[tuple(c)] for c in cells)
    return tuple(
        p
        for p in cell_perms(cat)
        if frozenset(p[k] for k in wanted) == wanted
    )


# ----------------------------------------------------------------------
# orbit enumeration (supports first, then count distributions)


def canonical_supports(
    max_size: int, cat: Catalog | None = None
) -> list[tuple[int, ...]]:
    """Lex-least representative of every orbit of cell subsets up to max_size.

    Depth-first over cells in canonical order with incremental prefix
    dominance tests against every group permutation: a branch dies as
    soon as some permuted image is provably lexicographically smaller.
    """
    cat = cat or catalog()
    inv = inverse_cell_perms(cat)
    n = len(CELLS)
    x: list[int | None] = [None] * n
    chosen: list[int] = []
    out: list[tuple[int, ...]] = []

    def advance(pi: tuple[int, ...], ptr: int) -> tuple[int, int]:
        # compare x against its pi-image from position ptr on; returns
        # (new ptr, verdict): -1 prune, +1 image larger (drop perm), 0 open
        while ptr < n:
            a = x[ptr]
            b = x[pi[ptr]]
            if a is None or b is None:
                return ptr, 0
            if b < a:
                return ptr, -1
            if b > a:
                return ptr, 1
            ptr += 1
        return ptr, 0

    def rec(k: int, live: list[tuple[tuple[int, ...], int]]):
        if k == n:
            if chosen:
                out.append(tuple(chosen))
            return
        for val in (0, 1):
            if val and len(chosen) >= max_size:
                continue
            x[k] = val
            if val:
                chosen.append(k)
            keep: list[tuple[tuple[int, ...], int]] = []
            dead = False
            for pi, ptr in live:
                nptr, verdict = advance(pi, ptr)
                if verdict == -1:
                    dead = True
                    break
                if verdict == 0:
                    keep.append((pi, nptr))
            if not dead:
                rec(k + 1, keep)
            if val:
                chosen.pop()
            x[k] = None

    rec(0, [(pi, 0) for pi in inv])
    return out


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
    for S in supports:
        k = len(S)
        if k > size or k * cap < size:
            continue
        Sset = frozenset(S)
        stab_inv = [
            pi
            for pi in inv
            if frozenset(pi[c] for c in S) == Sset
        ]
        # elements fixing the support pointwise fix any vector on it
        pointwise = sum(1 for pi in stab_inv if all(pi[c] == c for c in S))
        nontrivial = [pi for pi in stab_inv if any(pi[c] != c for c in S)]
        for parts in _compositions(size, k, cap):
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
