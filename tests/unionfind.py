"""Per-edge union-find reference for connected components.

`graph.component_labels` labels every node at once from the edge arrays;
`connected_components` is the union-find the library once ran, one edge
at a time, and the oracle the tests check it against. `reference_pairs`
is the pair-list `datagen.connected_pairs` that was built on it.
"""

import numpy as np


def connected_components(n: int, edge_list) -> list[list[int]]:
    """Connected components of the graph on nodes [0, n) with given edges,
    in order of their smallest node, each one's members ascending."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for m, k in edge_list:
        ra, rb = find(m), find(k)
        if ra != rb:
            parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def reference_labels(n: int, edge_list) -> np.ndarray:
    """Each node labelled with the smallest node of its component."""
    labels = np.empty(n, dtype=np.intp)
    for comp in connected_components(n, edge_list):
        labels[comp] = comp[0]
    return labels


def reference_pairs(n: int, density: float,
                    rng: np.random.Generator) -> list[tuple[int, int]]:
    """Sorted node pairs of a connected random graph on n nodes.

    Each pair is kept with probability `density`, redrawn until connected;
    after 1000 draws, components are bridged with single edges instead.
    """
    iu, ju = np.triu_indices(n, k=1)
    for _ in range(1000):
        mask = rng.random(iu.shape[0]) < density
        pairs = [(int(a), int(b)) for a, b in zip(iu[mask], ju[mask])]
        comps = connected_components(n, pairs)
        if len(comps) == 1:
            return pairs
    for ca, cb in zip(comps, comps[1:]):
        a = ca[int(rng.integers(len(ca)))]
        b = cb[int(rng.integers(len(cb)))]
        pairs.append((a, b) if a < b else (b, a))
    return sorted(pairs)
