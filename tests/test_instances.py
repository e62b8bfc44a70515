import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eightblocks.errors import InstanceFormatError
from eightblocks.instances import Instance, parse_instance
from eightblocks.varieties import CELLS


def test_constructors_agree():
    a = Instance.from_pairs({(1, 2): 2, (3, 4): 1})
    b = Instance.from_pairs([((1, 2), 2), ((3, 4), 1)])
    c = Instance.from_vector(a.vector())
    rows = [[0] * 6 for _ in range(6)]
    rows[0][1] = 2
    rows[2][3] = 1
    d = Instance.from_matrix(rows)
    assert a == b == c == d
    assert a.size == 3
    assert a.count(1, 2) == 2
    assert a.count(2, 1) == 0


def test_zero_instance():
    z = Instance.zero()
    assert z.size == 0
    assert z.support() == ()
    assert z.items() == ()


def test_support_and_items_sorted():
    inst = Instance.from_pairs({(5, 6): 1, (1, 3): 2})
    assert inst.support() == ((1, 3), (5, 6))
    assert inst.items() == (((1, 3), 2), ((5, 6), 1))


def test_with_count():
    inst = Instance.zero().with_count(2, 5, 4)
    assert inst.count(2, 5) == 4
    assert inst.with_count(2, 5, 0).size == 0


def test_rejects_diagonal_and_negative():
    with pytest.raises(InstanceFormatError):
        Instance.from_pairs({(1, 1): 1})
    with pytest.raises(InstanceFormatError):
        Instance.from_pairs({(1, 2): -1})
    with pytest.raises(InstanceFormatError):
        Instance.from_pairs({(0, 2): 1})
    rows = [[0] * 6 for _ in range(6)]
    rows[3][3] = 1
    with pytest.raises(InstanceFormatError):
        Instance.from_matrix(rows)


def test_parse_dense_and_sparse_round_trip():
    inst = Instance.from_pairs({(1, 2): 7, (1, 3): 7, (1, 4): 7, (1, 5): 1, (1, 6): 1})
    assert parse_instance(inst.to_text("dense")) == inst
    assert parse_instance(inst.to_text("sparse")) == inst


def test_parse_skips_comments_and_blanks():
    text = "# header\n\n1 2 3  # trailing\n\n4 5 1\n"
    inst = parse_instance(text)
    assert inst.count(1, 2) == 3
    assert inst.count(4, 5) == 1


def test_parse_errors():
    with pytest.raises(InstanceFormatError):
        parse_instance("")
    with pytest.raises(InstanceFormatError):
        parse_instance("1 2\n")
    with pytest.raises(InstanceFormatError):
        parse_instance("1 2 x\n")
    with pytest.raises(InstanceFormatError):
        parse_instance("1 1 3\n")
    # dense needs exactly six rows
    with pytest.raises(InstanceFormatError):
        parse_instance("0 1 0 0 0 0\n")


def test_diagonal_error_keeps_cell_message():
    with pytest.raises(InstanceFormatError, match="table cell"):
        parse_instance("1 1 3\n")


@example(counts={}, style="sparse")
@given(
    st.dictionaries(st.sampled_from(CELLS), st.integers(0, 10**6), max_size=len(CELLS)),
    st.sampled_from(["dense", "sparse"]),
)
def test_text_round_trip(counts, style):
    inst = Instance.from_pairs(counts)
    assert parse_instance(inst.to_text(style)) == inst
