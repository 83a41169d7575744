"""Per-subset reference for the exact Cheeger cut.

`partition.brute_force_cheeger` counts the cuts of every subset of one
size at once from the edge arrays; `reference_cheeger` is the loop the
library once ran, one subset and one edge at a time over the edge
mapping, and the oracle the tests check it against.
"""

from itertools import combinations

from fsgl.partition import CheegerCut


def reference_cheeger(g) -> CheegerCut:
    """Exact Cheeger cut of `g` (at least two nodes): the subset S with at
    most half the nodes that minimizes |cut edges| / |S|, the first such
    in (size, lexicographic membership) order."""
    n = g.n
    edges = list(g.edges.keys())
    best = None
    for size in range(1, n // 2 + 1):
        for subset in combinations(range(n), size):
            inside = frozenset(subset)
            cut = sum(1 for (a, b) in edges if (a in inside) != (b in inside))
            ratio = cut / size
            if best is None or ratio < best[0]:
                best = (ratio, subset)
    s = best[1]
    inside = frozenset(s)
    cut_edges = tuple(e for e in edges if (e[0] in inside) != (e[1] in inside))
    return CheegerCut(s, cut_edges, best[0])
