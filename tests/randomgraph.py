"""Random weighted graphs for the graph, objective and spectral tests."""

import numpy as np

from fsgl.graph import WeightedGraph, is_connected


def random_graph(rng, n, density=0.5, low=0.2):
    """An n-node graph keeping each pair with probability `density`, at a
    weight uniform on [low, 2)."""
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.shape[0]) < density
    edges = {(int(a), int(b)): float(w)
             for a, b, w in zip(iu[mask], ju[mask], rng.uniform(low, 2.0, int(mask.sum())))}
    return WeightedGraph(n, edges)


def random_connected_graph(rng, n, density=0.5):
    """`random_graph`, redrawn until `is_connected` holds."""
    while True:
        g = random_graph(rng, n, density)
        if is_connected(g):
            return g
