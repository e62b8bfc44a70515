import itertools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eightblocks import composability as co, cubes
from eightblocks.errors import CertificateError, InvalidInputError
from eightblocks.graphs import maximum_bipartite_matching
from eightblocks.instances import Instance
from eightblocks.symmetry import orbit_vectors
from eightblocks.varieties import CELL_INDEX, CELLS, COMPATIBLE_CAP, OWN_CAP, Catalog
from matching_reference import deficient_right_set, full_matching

DEMO = Instance.from_pairs(
    {(1, 2): 2, (2, 6): 1, (3, 5): 1, (3, 6): 1, (5, 6): 2, (6, 4): 1, (6, 5): 1}
)
DEMO_SOLUTIONS = frozenset({(1, 2), (4, 1), (4, 3)})
INFEASIBLE_23 = Instance.from_pairs(
    {(1, 2): 7, (1, 3): 7, (1, 4): 7, (1, 5): 1, (1, 6): 1}
)
UNIVERSAL_12 = Instance.from_pairs(
    {
        (1, 2): 1, (1, 3): 1, (2, 1): 1, (2, 3): 1, (3, 1): 1, (3, 2): 1,
        (4, 5): 1, (4, 6): 1, (5, 4): 1, (5, 6): 1, (6, 4): 1, (6, 5): 1,
    }
)


def _random_instance(rng):
    k = rng.randint(1, 10)
    return Instance.from_pairs(
        (c, rng.randint(1, 8)) for c in rng.sample(CELLS, k)
    )


def test_demo_headline_verdicts(cat):
    assert co.is_composable_matching(DEMO, (1, 2), cat)
    assert co.is_composable_treecount(DEMO, (1, 2), cat)
    assert not co.is_composable_matching(DEMO, (2, 3), cat)
    assert not co.is_composable_treecount(DEMO, (2, 3), cat)


def test_demo_solution_set_frozen(cat):
    assert co.solution_set(DEMO, cat, oracle="matching") == DEMO_SOLUTIONS
    assert co.solution_set(DEMO, cat, oracle="treecount") == DEMO_SOLUTIONS
    assert co.classify(DEMO, cat) == "other"


def test_reference_extremes(cat):
    assert co.solution_set(INFEASIBLE_23, cat) == frozenset()
    assert co.classify(INFEASIBLE_23, cat) == "infeasible"
    assert co.solution_set(UNIVERSAL_12, cat) == frozenset(CELLS)
    assert co.classify(UNIVERSAL_12, cat) == "universal"


def test_eight_copies_compose_their_own_variety(cat):
    inst = Instance.from_pairs({(3, 5): 8})
    assert co.solution_set(inst, cat) == {(3, 5)}
    seven = Instance.from_pairs({(3, 5): 7})
    assert co.solution_set(seven, cat) == frozenset()


def test_oracles_agree_on_random_corpus(cat):
    rng = random.Random(404)
    for _ in range(250):
        inst = _random_instance(rng)
        target = rng.choice(CELLS)
        m = co.is_composable_matching(inst, target, cat)
        assert m == co.is_composable_treecount(inst, target, cat)
        assert m == co.hall_satisfied(inst, target, cat)


def test_hall_witness_is_valid_or_absent(cat):
    rng = random.Random(405)
    seen_violated = 0
    for _ in range(150):
        inst = _random_instance(rng)
        target = rng.choice(CELLS)
        w = co.hall_witness(inst, target, cat)
        if co.is_composable_matching(inst, target, cat):
            assert w is None
        else:
            assert w is not None and w.violated
            assert w.triples <= cat.varieties[
                co._cell_index(target)
            ].triples
            recount = co.usable_cube_count(inst, target, w.triples, cat)
            assert recount == w.usable_cubes < len(w.triples)
            seen_violated += 1
    assert seen_violated > 10


def test_count_bound_is_sufficient(cat):
    rng = random.Random(406)
    for _ in range(300):
        inst = _random_instance(rng)
        target = rng.choice(CELLS)
        if co.count_bound(inst, target, cat) >= 8:
            assert co.is_composable_matching(inst, target, cat)


def test_usable_cube_count_empty_subset(cat):
    assert co.usable_cube_count(DEMO, (1, 2), frozenset(), cat) == 0


def test_solution_set_rejects_unknown_oracle(cat):
    with pytest.raises(InvalidInputError):
        co.solution_set(DEMO, cat, oracle="guess")


def test_matching_report_details(cat):
    report = co.max_matching(DEMO, (1, 2), cat)
    assert report.composable and report.size == 8
    assert len(report.matched) == 8
    assert all(entry is not None for entry in report.matched)
    used = {}
    for source, copy in report.matched:
        used.setdefault(source, set()).add(copy)
    for source, copies in used.items():
        assert len(copies) <= DEMO.count(*source)


def test_arrangement_extract_and_verify(cat):
    for target in sorted(DEMO_SOLUTIONS):
        arr = co.extract_arrangement(DEMO, target, cat)
        co.verify_arrangement(DEMO, target, arr, cat)
    with pytest.raises(CertificateError):
        co.extract_arrangement(DEMO, (2, 3), cat)


def test_corner_rotation_table_matches_rotation_search(cat):
    from eightblocks import cubes

    colorings = [cat.variety(*c).coloring for c in CELLS]
    misses = 0
    for base, solid in itertools.product(colorings, repeat=2):
        for signs, slots in cubes.CORNERS:
            # reference: try every rotation of the cube at the corner
            fits = [
                r for r in cubes.ROTATIONS
                if all(base[r[s]] == solid[s] for s in slots)
            ]
            assert len(fits) <= 1
            held = tuple(base.index(solid[s]) for s in slots)
            assert cubes.CORNER_ROTATIONS.get((signs, held)) == (fits or [None])[0]
            misses += not fits
    # mirrored corner triples fit no rotation
    assert 0 < misses < len(colorings) ** 2 * 8


def test_verify_arrangement_catches_tampering(cat):
    from dataclasses import replace

    arr = co.extract_arrangement(DEMO, (1, 2), cat)
    # swap one placement's coloring for a different rotation of itself
    import eightblocks.cubes as cubes

    victim = arr.placements[0]
    other = next(
        c
        for c in cubes.rotations_of(victim.coloring)
        if c != victim.coloring
    )
    bad = replace(
        arr, placements=(replace(victim, coloring=other),) + arr.placements[1:]
    )
    with pytest.raises(CertificateError):
        co.verify_arrangement(DEMO, (1, 2), bad, cat)


def test_verify_arrangement_checks_each_source(cat):
    from dataclasses import replace

    arr = co.extract_arrangement(DEMO, (1, 2), cat)
    victim = next(p for p in arr.placements if p.source != (1, 2))
    # the same coloring claimed as a cube of the target variety
    relabelled = replace(victim, source=(1, 2))
    bad = replace(
        arr,
        placements=tuple(relabelled if p is victim else p for p in arr.placements),
    )
    with pytest.raises(CertificateError, match="not an orientation"):
        co.verify_arrangement(DEMO, (1, 2), bad, cat)


def test_universal_lower_bound(cat):
    assert co.universal_lower_bound(cat) == 12
    # one target alone needs its eight corners; no target needs nothing
    assert co.counting_floor([CELL_INDEX[(1, 2)]], cat) == 8
    assert co.counting_floor([], cat) == 0


def test_bulk_verdicts_match_per_call(cat):
    rng = random.Random(407)
    for _ in range(12):
        k = rng.randint(1, 3)
        support = rng.sample(CELLS, k)
        combos = [[rng.randint(1, 8) for _ in range(k)] for _ in range(25)]
        bulk = co.bulk_target_verdicts(support, combos, cat)
        for r, counts in enumerate(combos):
            inst = Instance.from_pairs(zip(support, counts))
            for t, cell in enumerate(CELLS):
                assert bool(bulk.matching[r, t]) == co.is_composable_matching(
                    inst, cell, cat
                )
                assert bool(bulk.tree[r, t]) == co.is_composable_treecount(
                    inst, cell, cat
                )
                assert int(bulk.supply_bound[r, t]) == co.count_bound(
                    inst, cell, cat
                )


def test_bulk_verdicts_input_validation(cat):
    with pytest.raises(InvalidInputError):
        co.bulk_target_verdicts([(1, 2), (1, 2)], [[1, 1]], cat)
    with pytest.raises(InvalidInputError):
        co.bulk_target_verdicts([(1, 2)], [[0]], cat)
    with pytest.raises(InvalidInputError):
        co.bulk_target_verdicts([(1, 2)], [[1, 2]], cat)


@st.composite
def _count_rows(draw, max_cells, max_count, max_rows):
    """A support of distinct cells and some rows of positive counts on it."""
    support = draw(
        st.lists(st.sampled_from(CELLS), min_size=1, max_size=max_cells, unique=True)
    )
    k = len(support)
    row = st.lists(st.integers(1, max_count), min_size=k, max_size=k)
    return support, draw(st.lists(row, min_size=1, max_size=max_rows))


@given(_count_rows(6, 200, 1), st.sampled_from(CELLS))
def test_tree_oracle_matches_matching_at_any_count(cat, drawn, target):
    support, (counts,) = drawn
    inst = Instance.from_pairs(zip(support, counts))
    assert co.is_composable_treecount(inst, target, cat) == co.is_composable_matching(
        inst, target, cat
    )


@given(_count_rows(4, 50, 6))
def test_bulk_tree_verdicts_match_per_call_oracle(cat, drawn):
    # counts up to 50 reach far past the tree route's cap of 2
    support, rows = drawn
    bulk = co.bulk_target_verdicts(support, rows, cat)
    for r, counts in enumerate(rows):
        inst = Instance.from_pairs(zip(support, counts))
        for t, cell in enumerate(CELLS):
            assert bool(bulk.tree[r, t]) == co.is_composable_treecount(inst, cell, cat)
            assert bool(bulk.matching[r, t]) == co.is_composable_matching(
                inst, cell, cat
            )


# counts that are mostly small, so targets fail as often as they pass,
# with some far past both caps
_COUNT = st.one_of(st.integers(0, 3), st.integers(0, 200))


def _vector(counts):
    vec = [0] * len(CELLS)
    for k, n in counts.items():
        vec[k] = n
    return vec


def _unscreened_targets(vec, cat):
    return [t for t in range(len(CELLS)) if co.composable_from_vector(vec, t, cat)]


@given(st.dictionaries(st.integers(0, len(CELLS) - 1), _COUNT, max_size=12))
def test_supply_screen_keeps_every_verdict(cat, counts):
    vec = _vector(counts)
    assert list(co.composable_targets(vec, cat)) == _unscreened_targets(vec, cat)


def test_supply_screen_on_census_orbits(cat):
    for vec, _ in itertools.islice(orbit_vectors(8, cat), 0, None, 25):
        assert list(co.composable_targets(vec, cat)) == _unscreened_targets(vec, cat)


# a few cells with counts up to 12: own counts reach 8 and more, where
# the kernel answers before its tables, while sparse supports and small
# counts keep tree components and multiple edges in play
_KERNEL_COUNTS = st.dictionaries(
    st.integers(0, len(CELLS) - 1),
    st.one_of(st.integers(0, 2), st.integers(0, 12)),
    max_size=14,
)


def _indexed(counts):
    return {CELL_INDEX[c]: n for c, n in counts.items()}


@example(counts={})
# for target (1, 2): a four-cycle beside four one-node trees, which four
# own cubes just meet, and a double edge past one byte beside six
@example(counts=_indexed({(1, 2): 4, (2, 3): 1, (2, 4): 1, (5, 6): 1, (6, 5): 1}))
@example(counts=_indexed({(1, 2): 6, (2, 3): 300}))
@given(_KERNEL_COUNTS)
def test_bitmask_kernel_matches_tree_count(cat, counts):
    vec = _vector(counts)
    for t in range(len(CELLS)):
        assert co.composable_from_vector(vec, t, cat) == (
            vec[t] >= co.treecount_from_vector(vec, t, cat)
        )


def _seeded_vectors(seed, n=60):
    """Sparse count vectors with small counts, so tree components stay
    in play, and now and then a count past one byte."""
    rng = random.Random(seed)
    for _ in range(n):
        vec = [0] * len(CELLS)
        for k in rng.sample(range(len(CELLS)), rng.randint(0, 14)):
            vec[k] = rng.choice((1, 1, 1, 2, 3, 7, 300))
        yield vec


def test_counting_kernel_stops_at_its_cap(cat):
    for vec in _seeded_vectors(1):
        for t in range(len(CELLS)):
            trees = co.treecount_from_vector(vec, t, cat)
            for stop in range(1, 10):
                assert co.tree_components(vec, t, cat, stop) == min(trees, stop)


def test_tree_count_never_rises_with_a_count(cat):
    # the premise of the solver's bound on a forbidden target
    for vec in _seeded_vectors(2, n=30):
        for t in range(len(CELLS)):
            trees = co.treecount_from_vector(vec, t, cat)
            for k in range(len(CELLS)):
                vec[k] += 1
                assert co.treecount_from_vector(vec, t, cat) <= trees
                vec[k] -= 1


def test_tree_count_floor_from_compatible_counts(cat):
    # the premise of the solver's screen: a tree of n nodes has n - 1
    # edges, any other component of m nodes at least m
    for vec in _seeded_vectors(3):
        for t in range(len(CELLS)):
            supply = sum(vec[k] for k in cat.compatible_cells[t])
            assert co.treecount_from_vector(vec, t, cat) >= 8 - supply


def test_supply_lines_split_the_target_triples(cat):
    # each supply line's four cells share disjoint pairs of triples with
    # the target, so their edges alone meet all eight triple nodes once
    for t in range(len(CELLS)):
        assert len(cat.supply_lines[t]) == 10
        for _, _, cells in cat.supply_lines[t]:
            assert len(cells) == 4
            covered = 0
            for k in cells:
                a, b = cat.shared_pairs[t][k]
                pair = 1 << a | 1 << b
                assert a != b and not covered & pair
                covered |= pair
            assert covered == 255


@given(
    _KERNEL_COUNTS,
    st.integers(0, len(CELLS) - 1),
    st.integers(0, 9),
    st.lists(_COUNT, min_size=4, max_size=4),
)
def test_tree_count_at_most_a_supply_line_allows(cat, counts, t, line, on_line):
    # the lemma that makes a forbidden target's tree-count bound imply
    # its ten capped supply bounds: the line's edges alone leave
    # 8 - sum(min(x_k, 2)) trees, and more edges never add one
    vec = _vector(counts)
    _, _, cells = cat.supply_lines[t][line]
    for k, n in zip(cells, on_line):
        vec[k] = n
    assert co.tree_components(vec, t, cat, 9) <= 8 - sum(
        min(vec[k], 2) for k in cells
    )


def test_kernel_tables_built_once_per_catalog(monkeypatch):
    built = []
    make = co._tree_tables

    def counted(cat, t):
        built.append((cat, t))
        return make(cat, t)

    monkeypatch.setattr(co, "_tree_tables", counted)
    fresh = Catalog()
    assert fresh.tree_tables == [None] * len(CELLS)  # nothing built up front
    rng = random.Random(3)
    for _ in range(3):
        for _ in range(50):
            vec = [rng.choice((0, 0, 1, 2)) for _ in CELLS]
            for t in range(len(CELLS)):
                co.composable_from_vector(vec, t, fresh)
        assert built == [(fresh, t) for t in range(len(CELLS))]


def _uncapped_adjacency(instance, target, cat):
    """Matching graph with one cube node per copy, however many there are."""
    t = CELL_INDEX[target]
    cubes_out, adjacency = [], []
    for k, n in enumerate(instance.vector()):
        if k == t:
            nbrs = list(range(8))
        elif cat.shared_pairs[t][k] is not None:
            nbrs = list(cat.shared_pairs[t][k])
        else:
            continue
        for copy in range(n):
            cubes_out.append((CELLS[k], copy))
            adjacency.append(nbrs)
    return cubes_out, adjacency


@example(counts={(1, 2): 9}, target=(1, 2))
@example(counts={(1, 3): 200, (6, 5): 1}, target=(6, 5))
@given(
    st.dictionaries(st.sampled_from(CELLS), _COUNT, min_size=1, max_size=10),
    st.sampled_from(CELLS),
)
def test_capped_matching_graph_matches_uncapped_reference(cat, counts, target):
    inst = Instance.from_pairs(counts)
    t = CELL_INDEX[target]
    capped = co.bipartite_adjacency(inst, target, cat)[1]
    assert len(capped) <= OWN_CAP + COMPATIBLE_CAP * len(cat.compatible_cells[t])

    cubes_out, adjacency = _uncapped_adjacency(inst, target, cat)
    size, match_of_right = maximum_bipartite_matching(adjacency, 8)
    report = co.max_matching(inst, target, cat)
    assert report.size == size
    assert report.matched == tuple(
        cubes_out[u] if u != -1 else None for u in match_of_right
    )

    witness = co.hall_witness(inst, target, cat)
    if size == 8:
        assert witness is None
    else:
        nodes = cat.triple_nodes[t]
        deficient = deficient_right_set(adjacency, 8, match_of_right)
        assert witness.triples == frozenset(nodes[v] for v in deficient)
        assert witness.usable_cubes == sum(
            1 for nbrs in adjacency if any(v in deficient for v in nbrs)
        )


@example(counts=_indexed({(1, 2): 9}))
@example(counts=_indexed({(1, 2): 7, (1, 3): 7, (1, 4): 7, (1, 5): 1, (1, 6): 1}))
@given(_KERNEL_COUNTS)
def test_certificates_from_one_matching(cat, counts):
    # every target; own counts of eight and more saturate the triples
    # before the compatible copies are reached
    inst = Instance.from_vector(_vector(counts))
    for target in CELLS:
        adjacency = co.bipartite_adjacency(inst, target, cat)[1]
        size, match_of_right = full_matching(adjacency, 8)
        assert maximum_bipartite_matching(adjacency, 8) == (size, match_of_right)
        report = co.max_matching(inst, target, cat)
        mask = co.hall_set(report, cat)
        deficient = [v for v in range(8) if mask >> v & 1]
        assert deficient == deficient_right_set(adjacency, 8, match_of_right)
        if report.composable:
            arrangement = co.arrangement_from_report(report, cat)
            co.verify_arrangement(inst, target, arrangement, cat)
            assert co.witness_from_report(inst, report, cat) is None
        else:
            witness = co.witness_from_report(inst, report, cat)
            nodes = cat.triple_nodes[CELL_INDEX[target]]
            assert witness.triples == frozenset(nodes[v] for v in deficient)
            recount = co.usable_cube_count(inst, target, witness.triples, cat)
            assert recount == witness.usable_cubes < len(witness.triples)
            with pytest.raises(CertificateError):
                co.arrangement_from_report(report, cat)


def test_corner_table_built_on_first_use():
    fresh = Catalog()
    assert fresh.node_corners == [None] * len(CELLS)  # nothing built up front
    for target in sorted(DEMO_SOLUTIONS):
        co.extract_arrangement(DEMO, target, fresh)
    built = [CELLS[t] for t, table in enumerate(fresh.node_corners) if table]
    assert built == sorted(DEMO_SOLUTIONS)
    table = fresh.node_corners[CELL_INDEX[(1, 2)]]
    assert sorted(node for node, _ in table) == list(range(8))
    assert [corner for _, corner in table] == sorted(cubes.CORNER_SIGNS, reverse=True)
