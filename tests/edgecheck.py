"""Per-edge reference for building a graph from an edge list.

`WeightedGraph.from_arrays` checks, canonicalises and sorts a whole edge
list at once; this loop does it one edge at a time, the way the
constructor once did, and is the oracle the tests check it against.
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
    when an earlier triple named its pair; the error's `position` is its
    index.
    """
    canon: dict[tuple[int, int], float] = {}
    for i, (m, n, w) in enumerate(edges):
        try:
            key, w = checked_edge(m, n, w, size)
            if key in canon:
                raise DuplicateEdge(f"edge ({key[0]},{key[1]}) given twice")
        except (ValueError, FsglError) as exc:
            exc.position = i
            raise
        canon[key] = w
    pairs = sorted(canon)
    ms = np.array([m for m, _ in pairs], dtype=np.intp)
    ns = np.array([n for _, n in pairs], dtype=np.intp)
    ws = np.array([canon[key] for key in pairs], dtype=np.float64)
    return ms, ns, ws, ms * size + ns
