"""Small deterministic graph routines used by the composability oracles.

Kept free of puzzle vocabulary on purpose: the bipartite side works on
integer-labelled nodes and the multigraph side on (node, node, multiplicity)
edges, so both can be exercised independently of the cube layer.

``tree_component_count`` is the reference implementation of the tree
criterion: the per-call and bulk tree oracles and the table
construction's layout check reach it.  The count-vector verdict
``composability.composable_from_vector`` has its own table-driven
bitmask kernel and is checked against this one.
"""

from __future__ import annotations

from collections.abc import Sequence


def maximum_bipartite_matching(
    adjacency: Sequence[Sequence[int]], right_size: int
) -> tuple[int, list[int]]:
    """Maximum matching via repeated augmenting-path search.

    adjacency[u] lists right nodes reachable from left node u; left nodes are
    processed in index order and neighbours in listed order, so the result is
    deterministic.  Returns (size, match_of_right) where match_of_right[v] is
    the matched left node or -1.
    """
    match_of_right = [-1] * right_size

    def augment(u: int, seen: list[bool]) -> bool:
        for v in adjacency[u]:
            if not seen[v]:
                seen[v] = True
                if match_of_right[v] == -1 or augment(match_of_right[v], seen):
                    match_of_right[v] = u
                    return True
        return False

    size = 0
    for u in range(len(adjacency)):
        if augment(u, [False] * right_size):
            size += 1
    return size, match_of_right


def deficient_right_set(
    adjacency: Sequence[Sequence[int]],
    right_size: int,
    match_of_right: Sequence[int],
) -> list[int]:
    """Right nodes whose neighbourhood is smaller than themselves.

    Runs the alternating-path argument from the unmatched right nodes of a
    maximum matching: follow matching edges right-to-left and arbitrary edges
    left-to-right.  The reachable right nodes R satisfy |N(R)| = |R| minus the
    number of unmatched seeds, hence witness a failed matching.  Returns []
    when the matching saturates the right side.
    """
    matched_right_of_left: dict[int, list[int]] = {}
    for v, u in enumerate(match_of_right):
        if u != -1:
            matched_right_of_left.setdefault(u, []).append(v)

    left_of_right: dict[int, list[int]] = {v: [] for v in range(right_size)}
    for u, nbrs in enumerate(adjacency):
        for v in nbrs:
            left_of_right[v].append(u)

    seeds = [v for v in range(right_size) if match_of_right[v] == -1]
    if not seeds:
        return []
    reached_right = set(seeds)
    reached_left: set[int] = set()
    frontier = list(seeds)
    while frontier:
        nxt = []
        for v in frontier:
            for u in left_of_right[v]:
                if u not in reached_left:
                    reached_left.add(u)
                    for w in matched_right_of_left.get(u, ()):
                        if w not in reached_right:
                            reached_right.add(w)
                            nxt.append(w)
        frontier = nxt
    return sorted(reached_right)


def tree_component_count(
    node_count: int, edges: Sequence[tuple[int, int, int]]
) -> int:
    """Number of components that are trees, counting parallel edges.

    edges holds (a, b, multiplicity) entries; a component is a tree when its
    edge count including multiplicity equals its node count minus one.  An
    isolated node counts as a tree.  Components are merged as node bitmasks
    carrying their edge totals.
    """
    components: dict[int, int] = {}  # node mask -> edge multiplicity inside
    for a, b, mult in edges:
        if mult <= 0:
            continue
        mask = 1 << a | 1 << b
        for other in tuple(components):
            if other & mask:
                mask |= other
                mult += components.pop(other)
        components[mask] = mult
    trees = node_count
    for mask, mult in components.items():
        size = mask.bit_count()
        trees += (mult == size - 1) - size
    return trees
