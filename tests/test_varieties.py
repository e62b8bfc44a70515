import pytest

from eightblocks import cubes
from eightblocks.errors import InvalidInputError
from eightblocks.varieties import (
    CELL_INDEX,
    CELLS,
    COMPATIBLE_CAP,
    OWN_CAP,
    catalog,
)

# triples of the two pinned table cells, frozen as exact expectations
T_12 = frozenset(
    {
        ("p", "q", "t"), ("p", "s", "u"), ("p", "t", "s"), ("p", "u", "q"),
        ("q", "r", "t"), ("q", "u", "r"), ("r", "s", "t"), ("r", "u", "s"),
    }
)
T_21 = frozenset(
    {
        ("p", "t", "q"), ("p", "u", "s"), ("p", "s", "t"), ("p", "q", "u"),
        ("q", "t", "r"), ("q", "r", "u"), ("r", "t", "s"), ("r", "s", "u"),
    }
)


def test_thirty_varieties_on_off_diagonal_cells(cat):
    assert len(cat.varieties) == 30
    assert len(CELLS) == 30
    assert all(i != j for i, j in CELLS)
    assert sorted(v.coords for v in cat.varieties) == sorted(CELLS)
    assert CELL_INDEX[(1, 2)] == 0


def test_catalog_is_cached(cat):
    assert catalog() is cat


def test_pinned_test_vectors(cat):
    assert cat.variety(1, 2).triples == T_12
    assert cat.variety(2, 1).triples == T_21
    # the two cells are mirror images of each other
    assert T_21 == frozenset(cubes.mirror_triple(t) for t in T_12)


def test_every_variety_has_eight_triples(cat):
    for v in cat.varieties:
        assert len(v.triples) == 8
        assert v.triples == cubes.corner_triples(v.coloring)


def test_shared_triple_counts_are_zero_or_two(cat):
    for a in cat.varieties:
        for b in cat.varieties:
            if a.index == b.index:
                continue
            n = cat.share_count(a, b)
            assert n in (0, 2)
            assert n == len(a.triples & b.triples)


def test_compatibility_split_twenty_nine(cat):
    for v in cat.varieties:
        assert len(cat.compatible(v)) == 20
        assert len(cat.incompatible(v)) == 9


def test_property_mirror_at_transpose(cat):
    for v in cat.varieties:
        i, j = v.coords
        mirror = cat.variety(j, i)
        assert mirror.triples == frozenset(
            cubes.mirror_triple(t) for t in v.triples
        )
        assert (
            cubes.canonical_coloring(cubes.mirror_coloring(v.coloring))
            == mirror.coloring
        )


def test_property_rows_and_columns_are_incompatibility_cliques(cat):
    for line in range(1, 7):
        row = [cat.variety(line, j) for j in range(1, 7) if j != line]
        col = [cat.variety(i, line) for i in range(1, 7) if i != line]
        for cells in (row, col):
            assert len(cells) == 5
            for a in cells:
                for b in cells:
                    if a.index != b.index:
                        assert cat.share_count(a, b) == 0


def test_incompatible_set_is_row_column_and_mirror(cat):
    for v in cat.varieties:
        i, j = v.coords
        expected = {(i, k) for k in range(1, 7) if k not in (i, j)}
        expected |= {(k, j) for k in range(1, 7) if k not in (i, j)}
        expected.add((j, i))
        assert {w.coords for w in cat.incompatible(v)} == expected


def test_single_cube_moves_partition_the_compatible_set(cat):
    for v in cat.varieties:
        swap = cat.swap_neighbors(v)
        rot = cat.rotation_neighbors(v)
        assert len(swap) == 12
        assert len(rot) == 8
        assert not swap & rot
        assert swap | rot == set(cat.compatible(v))


def test_triple_nodes_and_shared_pairs(cat):
    for t in range(len(CELLS)):
        nodes = cat.triple_nodes[t]
        assert len(nodes) == 8
        assert list(nodes) == sorted(nodes)
        assert frozenset(nodes) == cat.varieties[t].triples
        for k in range(len(CELLS)):
            pair = cat.shared_pairs[t][k]
            if cat.share_table[t][k] == 2:
                a, b = pair
                shared = cat.varieties[t].triples & cat.varieties[k].triples
                assert {nodes[a], nodes[b]} == shared
            else:
                assert pair is None


def test_variety_lookup_errors(cat):
    with pytest.raises(InvalidInputError):
        cat.variety(1, 1)
    with pytest.raises(InvalidInputError):
        cat.variety(0, 2)
    with pytest.raises(InvalidInputError):
        cat.share_count(cat.variety(1, 2), cat.variety(1, 2))


def test_orientation_table_covers_every_coloring(cat):
    assert len(cat.cell_of_coloring) == 720
    for coloring in cubes.all_colorings():
        v = cat.varieties[cat.cell_of_coloring[coloring]]
        assert v.coloring == cubes.canonical_coloring(coloring)
        assert cat.by_coloring(coloring) is v
    with pytest.raises(InvalidInputError):
        cat.by_coloring(("p", "p", "r", "s", "t", "u"))


def test_supply_caps_list_each_served_target(cat):
    for k in range(len(CELLS)):
        assert cat.supply_caps[k][0] == (k, OWN_CAP)
        assert cat.supply_caps[k][1:] == tuple(
            (t, COMPATIBLE_CAP) for t in cat.compatible_cells[k]
        )
        for t, _ in cat.supply_caps[k][1:]:
            assert cat.shared_pairs[t][k] is not None
