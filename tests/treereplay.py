"""Replay of the greedy similarity tree, the reference for `max_similarity_tree`."""


def replay_tree(y, edges):
    """Assert each attachment took the largest frontier similarity.

    Replays the greedy growth with an independent quadratic frontier
    search: after the first edge, every next edge must be the maximum of
    y over all (tree node, outside node) pairs, lexicographic on ties.
    """
    n = y.shape[0]
    inside = set(edges[0])
    for a, b in edges[1:]:
        assert (a in inside) != (b in inside), "edge must cross the frontier"
        best = None
        for u in sorted(inside):
            for v in range(n):
                if v in inside:
                    continue
                key = (-y[min(u, v), max(u, v)], min(u, v), max(u, v))
                if best is None or key < best:
                    best = key
        assert -best[0] == y[min(a, b), max(a, b)]
        assert (best[1], best[2]) == (min(a, b), max(a, b))
        inside.add(b if a in inside else a)
    assert len(inside) == n
