"""Reference bipartite routines the tests check the program against.

``full_matching`` is the augmenting-path matching without the early stop:
every left node runs its search, even once the right side is saturated.
``deficient_right_set`` is the alternating-path search over the whole
matching graph that ``composability.hall_set`` replaces with a closure
over node masks.
"""

from __future__ import annotations


def full_matching(adjacency, right_size):
    """(size, match_of_right), visiting left nodes and neighbours in order."""
    match_of_right = [-1] * right_size

    def augment(u, seen):
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


def deficient_right_set(adjacency, right_size, match_of_right):
    """Right nodes reached from the unmatched ones by alternating paths.

    Follows matching edges right-to-left and arbitrary edges
    left-to-right from the unmatched right nodes of a maximum matching;
    the reached right nodes have fewer neighbours than members.  Returns
    [] when the matching saturates the right side.
    """
    matched_right_of_left = {}
    for v, u in enumerate(match_of_right):
        if u != -1:
            matched_right_of_left.setdefault(u, []).append(v)
    left_of_right = {v: [] for v in range(right_size)}
    for u, nbrs in enumerate(adjacency):
        for v in nbrs:
            left_of_right[v].append(u)

    seeds = [v for v in range(right_size) if match_of_right[v] == -1]
    reached_right = set(seeds)
    reached_left = set()
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
