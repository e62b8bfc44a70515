from hypothesis import given
from hypothesis import strategies as st

from eightblocks.graphs import maximum_bipartite_matching, tree_component_count
from matching_reference import deficient_right_set, full_matching


def test_perfect_matching_on_complete_graph():
    adjacency = [[0, 1, 2] for _ in range(3)]
    size, match_of_right = maximum_bipartite_matching(adjacency, 3)
    assert size == 3
    assert sorted(match_of_right) == [0, 1, 2]


def test_matching_limited_by_neighborhoods():
    # three left vertices all pointing at the same right vertex
    adjacency = [[0], [0], [0]]
    size, _ = maximum_bipartite_matching(adjacency, 2)
    assert size == 1


def test_matching_requires_augmenting_paths():
    # greedy left-to-right assignment would get stuck at 2 without reassignment
    adjacency = [[0, 1], [0], [1, 2]]
    size, _ = maximum_bipartite_matching(adjacency, 3)
    assert size == 3


def test_deficient_set_violates_the_count_condition():
    adjacency = [[0], [0], [2]]
    size, match_of_right = maximum_bipartite_matching(adjacency, 4)
    assert size == 2
    deficient = deficient_right_set(adjacency, 4, match_of_right)
    # the returned right subset must have fewer neighbors than members
    neighbors = [
        u for u, nbrs in enumerate(adjacency) if any(v in deficient for v in nbrs)
    ]
    assert len(deficient) > len(neighbors)


@st.composite
def _bipartite_graphs(draw):
    right = draw(st.integers(0, 8))
    node = st.integers(0, right - 1) if right else st.nothing()
    adjacency = draw(
        st.lists(st.lists(node, max_size=right, unique=True), max_size=20)
    )
    return adjacency, right


@given(_bipartite_graphs())
def test_early_stop_keeps_the_full_loop_matching(graph):
    # once the right side is saturated no later left node can augment
    adjacency, right = graph
    assert maximum_bipartite_matching(adjacency, right) == full_matching(
        adjacency, right
    )


def test_matching_stops_once_the_right_side_is_full():
    visited = []

    class Logged(list):
        def __getitem__(self, u):
            visited.append(u)
            return list.__getitem__(self, u)

    adjacency = Logged([[0], [1], [0, 1], [1]])
    assert maximum_bipartite_matching(adjacency, 2) == (2, [0, 1])
    assert visited == [0, 1]


def test_tree_components_empty_graph():
    # no edges: every node is an isolated tree
    assert tree_component_count(5, []) == 5


def test_tree_components_paths_and_cycles():
    path = [(0, 1, 1), (1, 2, 1)]
    assert tree_component_count(4, path) == 2  # the path plus one isolated node
    cycle = [(0, 1, 1), (1, 2, 1), (2, 0, 1)]
    assert tree_component_count(3, cycle) == 0
    doubled = [(0, 1, 2)]  # multiplicity two between two nodes is a cycle
    assert tree_component_count(2, doubled) == 0
    single = [(0, 1, 1)]
    assert tree_component_count(2, single) == 1


def test_tree_components_mixed():
    edges = [(0, 1, 1), (2, 3, 2), (4, 5, 1), (5, 6, 1)]
    # components: {0,1} tree, {2,3} cycle, {4,5,6} tree, {7} isolated
    assert tree_component_count(8, edges) == 3


def _tree_count_bfs(node_count, edges):
    """Reference: breadth-first components, then count edges per component."""
    live = [(a, b, mult) for a, b, mult in edges if mult > 0]
    neighbours = {v: set() for v in range(node_count)}
    for a, b, _ in live:
        neighbours[a].add(b)
        neighbours[b].add(a)
    seen = set()
    trees = 0
    for start in range(node_count):
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            frontier = [
                w for v in frontier for w in neighbours[v] if w not in component
            ]
            component.update(frontier)
        seen |= component
        inside = sum(mult for a, _, mult in live if a in component)
        trees += inside == len(component) - 1
    return trees


@st.composite
def _multigraphs(draw):
    n = draw(st.integers(1, 9))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node, st.integers(0, 3)), max_size=14))
    return n, edges


@given(_multigraphs())
def test_tree_components_match_bfs_reference(graph):
    # covers self-loops, zero multiplicities and repeated node pairs
    n, edges = graph
    assert tree_component_count(n, edges) == _tree_count_bfs(n, edges)
