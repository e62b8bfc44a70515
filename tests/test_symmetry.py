import hashlib
import math
import random
from collections import Counter
from itertools import combinations

from hypothesis import given
from hypothesis import strategies as st

from eightblocks import composability as co
from eightblocks import symmetry as sym
from eightblocks.instances import Instance
from eightblocks.varieties import CELL_INDEX, CELLS


def test_group_order_and_faithfulness(cat):
    g = sym.group(cat)
    assert len(g) == 1440
    perms = sym.cell_perms(cat)
    assert len(perms) == 1440
    assert len(set(perms)) == 1440  # acts faithfully on the table cells
    assert tuple(range(30)) in perms  # identity


def test_symmetry_composition_matches_cell_action(cat):
    g = sym.group(cat)
    perms = sym.cell_perms(cat)
    rng = random.Random(11)
    for _ in range(40):
        a, b = rng.randrange(1440), rng.randrange(1440)
        composed = g[a].compose(g[b])
        idx = sym.group_index(cat)[composed]
        pa, pb, pc = perms[a], perms[b], perms[idx]
        assert all(pc[k] == pa[pb[k]] for k in range(30))


def test_inverse_perms(cat):
    perms = sym.cell_perms(cat)
    inv = sym.inverse_cell_perms(cat)
    for p, q in random.Random(12).sample(list(zip(perms, inv)), 50):
        assert all(q[p[k]] == k for k in range(30))


def test_canonical_vector_is_orbit_invariant(cat):
    rng = random.Random(13)
    perms = sym.cell_perms(cat)
    for _ in range(20):
        inst = Instance.from_pairs(
            (c, rng.randint(1, 4)) for c in rng.sample(CELLS, rng.randint(1, 5))
        )
        vec = inst.vector()
        canon = sym.canonical_vector(vec, cat)
        assert canon <= vec
        for p in rng.sample(perms, 30):
            assert sym.canonical_vector(sym.permuted_vector(vec, p), cat) == canon


def test_solution_sets_transform_with_the_group(cat):
    # a symmetry relabels which targets are composable but not how many
    rng = random.Random(14)
    g = sym.group(cat)
    for _ in range(8):
        inst = Instance.from_pairs(
            (c, rng.randint(1, 6)) for c in rng.sample(CELLS, rng.randint(2, 6))
        )
        base = co.solution_set(inst, cat)
        s = g[rng.randrange(1440)]
        moved = sym.apply_to_instance(s, inst, cat)
        expected = frozenset(s.apply_to_variety(cat.variety(*c), cat).coords for c in base)
        assert co.solution_set(moved, cat) == expected


def test_orbit_size_divides_group_order(cat):
    rng = random.Random(15)
    perms = sym.cell_perms(cat)
    for _ in range(10):
        inst = Instance.from_pairs(
            (c, rng.randint(1, 3)) for c in rng.sample(CELLS, rng.randint(1, 4))
        )
        n = sym.orbit_size(inst, cat)
        assert 1440 % n == 0
        direct = {sym.permuted_vector(inst.vector(), p) for p in perms}
        assert len(direct) == n


def test_empty_set_stabilizer_is_whole_group(cat):
    assert len(sym.stabilizer(frozenset(), cat)) == 1440
    assert len(sym.stabilizer(frozenset(CELLS), cat)) == 1440


def test_stabilizer_preserves_the_cell_set(cat):
    cells = frozenset({(1, 2), (1, 3)})
    idx = frozenset(CELL_INDEX[c] for c in cells)
    for p in sym.stabilizer_perms(cells, cat):
        assert frozenset(p[k] for k in idx) == idx


def test_canonical_supports_cover_all_small_subsets(cat):
    # one listed support per orbit of subsets with at most 2 cells
    supports = sym.canonical_supports(2, cat)
    perms = sym.cell_perms(cat)

    def orbit_key(cells):
        return min(tuple(sorted(p[k] for k in cells)) for p in perms)

    listed = [orbit_key(s) for s in supports]
    assert len(listed) == len(set(listed))
    reachable = set()
    for size in (1, 2):  # the empty support is handled outside the DFS
        for combo in combinations(range(30), size):
            reachable.add(orbit_key(combo))
    assert set(listed) == reachable
    # single-cell orbit plus the four pair types: swap, rotation,
    # mirror pair, same line
    assert len(listed) == 5


def _dfs_canonical_supports(max_size, cat):
    """Reference enumeration: depth first over cells with incremental
    prefix-dominance tests against every group element; a branch dies as
    soon as some image is provably lexicographically smaller."""
    inv = sym.inverse_cell_perms(cat)
    n = len(CELLS)
    x = [None] * n
    chosen = []
    out = []

    def advance(pi, ptr):
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

    def rec(k, live):
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
            keep = []
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


def test_canonical_supports_match_the_dfs_reference(cat):
    for max_size in (1, 2, 3, 4):
        assert sym.canonical_supports(max_size, cat) == _dfs_canonical_supports(
            max_size, cat
        )


def _unfiltered_canonical_supports(max_size, cat):
    """Reference enumeration: augmentation without the score filter, in
    which every child of every representative is canonicalized."""
    images = sym._lane_images(cat)
    layer = {0}
    found = []
    for _ in range(max_size):
        grown = set()
        for mask in layer:
            cells = sym._cells(mask)
            base = sym._set_images(cells, cat)
            for k in range(len(CELLS)):
                if k not in cells:
                    grown.add(sym._least_lane(base + images[k]))
        found.extend(grown)
        layer = grown
    return [sym._cells(mask) for mask in sorted(found)]


def test_filtered_augmentation_matches_the_unfiltered_reference(cat):
    for max_size in range(1, 7):
        assert sym.canonical_supports(max_size, cat) == (
            _unfiltered_canonical_supports(max_size, cat)
        )


def test_orbital_weights_are_group_invariant(cat):
    w = sym._orbital_weights(cat)
    cells = range(len(CELLS))
    for p in sym.cell_perms(cat):
        assert all(w[p[x]][p[y]] == w[x][y] for x in cells for y in cells)
    # zero on the diagonal; the pairs of distinct cells fall into the
    # four orbitals of the 2-cell supports
    assert {w[x][x] for x in cells} == {0}
    assert {w[x][y] for x in cells for y in cells if x != y} == {1, 32, 32**2, 32**3}


def test_octet_supports_canonicalize_few_children(cat, monkeypatch):
    # the score filter leaves 10,758 of the 58,645 children of the
    # representatives of sizes 0 to 7 to be canonicalized
    calls = []
    least_lane = sym._least_lane

    def counted(images):
        calls.append(images)
        return least_lane(images)

    monkeypatch.setattr(sym, "_least_lane", counted)
    assert len(sym.canonical_supports(8, cat)) == 7123
    assert len(calls) == 10758


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_cell_perm_tables_pinned(cat):
    assert _digest(sym.cell_perms(cat)) == (
        "58b8a90f5a0c90b700a664dbeb4b9a9203a189c5f361c11d7fd5fd5a8ce66315"
    )
    assert _digest(sym.inverse_cell_perms(cat)) == (
        "4bc4a5c0ab088a65fb4133bfb39ad65261dcff357640a6e4984b242fd874bcb9"
    )


def test_octet_supports_and_orbits_pinned(cat):
    supports = sym.canonical_supports(8, cat)
    sizes = Counter(len(s) for s in supports)
    assert sizes == {1: 1, 2: 4, 3: 12, 4: 48, 5: 165, 6: 567, 7: 1703, 8: 4623}
    assert len(supports) == 7123
    assert _digest(supports) == (
        "38948ac4f82c2dd298a7df28be5cf2a642a0d92bd150fb8bf423386f16616fcf"
    )
    assert _digest(list(sym.orbit_vectors(8, cat))) == (
        "de934b49b0478ae14e5ea9878b024173c361feafb0e37f6caf575c8664bc8800"
    )


@given(st.dictionaries(st.integers(0, len(CELLS) - 1), st.integers(1, 3), max_size=8))
def test_lane_images_match_the_naive_images(cat, counts):
    perms = sym.cell_perms(cat)
    cells = sorted(counts)
    images = [frozenset(p[k] for k in cells) for p in perms]
    # the least lane is the lex-least 0/1 vector among the images
    least = sym._least_lane(sym._set_images(cells, cat))
    assert tuple(least >> (len(CELLS) - 1 - k) & 1 for k in range(len(CELLS))) == min(
        tuple(int(k in image) for k in range(len(CELLS))) for image in images
    )
    wanted = frozenset(cells)
    assert sym._stabilizer_indices(cells, cat) == [
        i for i, image in enumerate(images) if image == wanted
    ]
    vec = tuple(counts.get(k, 0) for k in range(len(CELLS)))
    fixed = sum(1 for p in perms if sym.permuted_vector(vec, p) == vec)
    assert sym.orbit_size(Instance.from_vector(vec), cat) == len(perms) // fixed


def test_orbit_vectors_partition_the_multisets(cat):
    for size in (0, 1, 2, 3):
        reps = list(sym.orbit_vectors(size, cat))
        # one representative per orbit, counted by the averaging formula
        assert len(reps) == sym.count_orbits(size, cat)
        # orbit sizes add up to the number of raw multisets
        assert sum(o for _, o in reps) == math.comb(30 + size - 1, size)
        # representatives are canonical and pairwise distinct
        vecs = {v for v, _ in reps}
        assert len(vecs) == len(reps)
        for v, _ in reps:
            assert sym.canonical_vector(v, cat) == v
            assert sum(v) == size


def test_orbit_vectors_respect_cap(cat):
    capped = list(sym.orbit_vectors(2, cat, cap=1))
    assert all(max(v) <= 1 for v, _ in capped)
    # orbits of 2-subsets: pairs sharing 0 or 2 triples, ordered or not
    assert sum(o for _, o in capped) == math.comb(30, 2)


def test_burnside_octet_count(cat):
    assert sym.count_orbits(8, cat) == 30510


def test_canonical_instance(cat):
    inst = Instance.from_pairs({(5, 6): 2, (6, 5): 1})
    canon = sym.canonical_instance(inst, cat)
    assert canon.vector() == sym.canonical_vector(inst.vector(), cat)
    assert sym.canonical_instance(canon, cat) == canon
