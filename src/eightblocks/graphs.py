"""Small deterministic graph routines used by the composability oracles.

Kept free of puzzle vocabulary on purpose: the bipartite side works on
integer-labelled nodes and the multigraph side on (node, node, multiplicity)
edges, so both can be exercised independently of the cube layer.

``tree_component_count`` is the reference implementation of the tree
criterion: the per-call and bulk tree oracles and the table
construction's layout check reach it.  The count-vector kernel
``composability.tree_components`` has its own table-driven bitmask
closure and is checked against this one.
"""

from __future__ import annotations

from collections.abc import Sequence


def maximum_bipartite_matching(
    adjacency: Sequence[Sequence[int]], right_size: int
) -> tuple[int, list[int]]:
    """Maximum matching via repeated augmenting-path search.

    adjacency[u] lists right nodes reachable from left node u; left nodes are
    processed in index order and neighbours in listed order, so the result is
    deterministic.  The loop stops once every right node is matched: an
    augmenting path ends at a free right node, so no later left node could
    change the matching.  Returns (size, match_of_right) where
    match_of_right[v] is the matched left node or -1.
    """
    match_of_right = [-1] * right_size
    seen = 0  # right nodes visited by the current search, as a bitmask

    def augment(u: int) -> bool:
        nonlocal seen
        for v in adjacency[u]:
            if not seen >> v & 1:
                seen |= 1 << v
                w = match_of_right[v]
                if w == -1 or augment(w):
                    match_of_right[v] = u
                    return True
        return False

    size = 0
    for u in range(len(adjacency)):
        if size == right_size:
            break
        seen = 0
        if augment(u):
            size += 1
    return size, match_of_right


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
