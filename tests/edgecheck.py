"""Per-edge reference for building a graph from an edge list.

`WeightedGraph.from_arrays` checks, canonicalises and sorts a whole edge
list at once; this loop does it one edge at a time, the way the
constructor once did, and is the oracle the tests check it against.
`random_edge_list` draws the edge lists, defects included, that both
take.
"""

import math

import numpy as np

from fsgl.errors import DuplicateEdge, FsglError, NonFiniteInput
from fsgl.graph import canonical_edge


def checked_edge(m, n, w, size: int) -> tuple[tuple[int, int], float]:
    """Canonical (m, n) and float w of an edge of a `size`-node graph: a
    self-loop, a node outside [0, size) or a nonpositive weight raises
    ValueError, a non-finite weight NonFiniteInput."""
    m, n = canonical_edge(int(m), int(n))
    if not (0 <= m and n < size):
        raise ValueError(f"edge ({m},{n}) out of range for n={size}")
    w = float(w)
    if not math.isfinite(w):
        raise NonFiniteInput(f"edge ({m},{n}) has non-finite weight {w}")
    if w <= 0.0:
        raise ValueError(f"edge ({m},{n}) has nonpositive weight {w}")
    return (m, n), w


def reference_arrays(size: int, edges) -> tuple[np.ndarray, ...]:
    """(ms, ns, ws, keys) of the (m, n, w) triples `edges`, sorted by key.

    The first bad triple raises what checked_edge raises, or DuplicateEdge
    when an earlier triple named its pair, with that triple's index as
    `earlier`; the error's `position` is its index.
    """
    canon: dict[tuple[int, int], float] = {}
    rows: dict[tuple[int, int], int] = {}
    for i, (m, n, w) in enumerate(edges):
        try:
            key, w = checked_edge(m, n, w, size)
            if key in canon:
                exc = DuplicateEdge(f"edge ({key[0]},{key[1]}) given twice")
                exc.earlier = rows[key]
                raise exc
        except (ValueError, FsglError) as exc:
            exc.position = i
            raise
        canon[key], rows[key] = w, i
    pairs = sorted(canon)
    ms = np.array([m for m, _ in pairs], dtype=np.intp)
    ns = np.array([n for _, n in pairs], dtype=np.intp)
    ws = np.array([canon[key] for key in pairs], dtype=np.float64)
    return ms, ns, ws, ms * size + ns


def random_edge_list(rng, n):
    """(m, n, w) triples on n nodes: distinct pairs in either orientation,
    and up to three defects at random places: a self-loop, a node out of
    range (10**20 and -10**20 among them, past any intp), a NaN/inf or
    nonpositive weight, or a pair given again."""
    iu, ju = np.triu_indices(n, k=1)
    pick = rng.permutation(iu.shape[0])[:int(rng.integers(iu.shape[0] + 1))]
    flip = rng.random(pick.shape[0]) < 0.5
    ms, ns = np.where(flip, ju[pick], iu[pick]), np.where(flip, iu[pick], ju[pick])
    edges = list(zip(ms.tolist(), ns.tolist(), rng.uniform(0.1, 3.0, pick.shape[0]).tolist()))
    for _ in range(int(rng.integers(4))):
        a, b = rng.integers(n, size=2).tolist()
        kind = int(rng.integers(6))
        if kind == 0:
            bad = (a, a, 1.0)
        elif kind == 1:
            bad = (a, [-1 - b, n + b, -10**20, 10**20][int(rng.integers(4))], 1.0)
        elif kind == 2:
            bad = (a, a + 1, float(rng.choice([np.nan, np.inf, -np.inf])))
        elif kind == 3:
            bad = (a, a + 1, float(rng.choice([0.0, -0.0, -1.5])))
        elif edges:
            m, k, _ = edges[int(rng.integers(len(edges)))]
            bad = (k, m, 0.5) if kind == 4 else (m, k, 0.5)
        else:
            continue
        edges.insert(int(rng.integers(len(edges) + 1)), bad)
    return edges
