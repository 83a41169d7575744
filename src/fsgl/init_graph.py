"""Where a solve starts: the complete graph or a sparse similarity start.

Greedy without a budget starts complete. The sparse initializer grows a
spanning tree that greedily follows the largest Gram entries, then tops
it up with a budget of the next-largest pairs, all at unit weight, so
the solver only ever removes mass. The result has N - 1 + B edges and
is connected by construction. Both parts read one ranking of the pairs
m < n, by (-Y_mn, m, n).
"""

from __future__ import annotations

import numpy as np

from . import datagen
from .errors import InvalidBudget, NonFiniteInput
from .graph import ObservationSet, WeightedGraph, complete_graph, integer, real_array
from .solver import SolverConfig, eigenpair_count

# Arrays of one length alive at once at peak, measured with tracemalloc.
# A solve on E edges stays within 17 of length E (tracemalloc read
# 13.7-15.1 from the complete graph at N = 80-200): the graph's and its
# Laplacian's, the carried eps z (edge_terms), the scores and a deletion's
# copy; plus the two (k, E) gathers score_edges makes for k eigenpairs.
# It also holds (N, N) arrays, the Gram matrix aside: its Laplacian, and
# the objective's full dsyevd, whose eigenvectors overwrite a copy of it
# and whose workspace is two more; tracemalloc read 4.25-4.33 with the
# edge arrays, from a sparse start at N = 300 and 600. Exact mode's full
# snapshots and their resolvent products read 6.07-6.15.
EDGE_ARRAYS = 17
SQUARE_ARRAYS = 5
EXACT_SQUARE_ARRAYS = 7


def _similarity(y) -> np.ndarray:
    """`y` as a float array: real, square and symmetric (else ValueError)
    and finite (else NonFiniteInput)."""
    y = real_array(y, "similarity matrix")
    if y.ndim != 2 or y.shape[0] != y.shape[1]:
        raise ValueError(f"similarity matrix must be square, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise NonFiniteInput("similarity matrix has a non-finite entry")
    bad = np.argwhere(y != y.T)
    if bad.shape[0]:
        i, j = bad[0]
        raise ValueError(f"similarity matrix must be symmetric: y[{i}, {j}] = "
                         f"{float(y[i, j])!r} but y[{j}, {i}] = {float(y[j, i])!r}")
    return y


def _ranked_tree(y: np.ndarray):
    """Ranked pairs (ms, ns) and the tree edges' ranks in attachment order.

    Prim's rule on ranks: each outside node keeps its best rank to the
    tree, and the one with the smallest attaches next. A tree node's
    column is raised above every rank, so it never wins again.
    """
    n = y.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    order = np.lexsort((ju, iu, -y[iu, ju]))
    ms, ns, top = iu[order], ju[order], order.shape[0]
    del iu, ju, order  # dead before the rank matrix, the peak's largest array
    rank = np.full((n, n), top)
    rank[ms, ns] = rank[ns, ms] = np.arange(top)
    rank[:, [ms[0], ns[0]]] = top
    best = np.minimum(rank[ms[0]], rank[ns[0]])
    tree = [0]
    for _ in range(n - 2):
        v = int(best.argmin())
        tree.append(int(best[v]))
        rank[:, v] = top
        np.minimum(best, rank[v], out=best)
        best[v] = top
    return ms, ns, tree


def max_similarity_tree(y: np.ndarray) -> list[tuple[int, int]]:
    """Spanning tree edges in attachment order, greedy on Gram entries.

    Starts from the largest off-diagonal of `y` and repeatedly attaches
    the outside node with the strongest link to the tree. Ties prefer
    the lexicographically smallest (m, n) pair.
    """
    y = _similarity(y)
    n = y.shape[0]
    if n < 2:
        return []
    ms, ns, tree = _ranked_tree(y)
    return list(zip(ms[tree].tolist(), ns[tree].tolist()))


def default_budget(n: int, b: int | None) -> int:
    """Extra-edge budget beyond the tree as a Python int, fsgl's one budget
    check: `b`, an integer in [0, n(n-1)/2 - (n-1)] (the pairs left), or if
    None 3N capped at the pairs left; else InvalidBudget. `n` must be an
    integer, else TypeError."""
    n = integer(n, "node count")
    available = n * (n - 1) // 2 - (n - 1)
    if b is None:
        return min(3 * n, available)
    b = integer(b, "budget_b", InvalidBudget)
    if not 0 <= b <= available:
        bound = ">= 0" if b < 0 else f"at most {available} at n={n} (node pairs beyond the tree)"
        raise InvalidBudget(f"budget_b must be {bound}, got {b}")
    return b


def init_sparse_graph(y: np.ndarray, b: int | None) -> WeightedGraph:
    """Unit-weight starting graph: similarity spanning tree plus budget.

    After the tree, the `default_budget(N, b)` largest off-diagonal entries
    not already in it are added (ties again lexicographic).
    """
    y = _similarity(y)
    n = y.shape[0]
    if n < 2:
        raise ValueError("need at least two nodes")
    b = default_budget(n, b)
    ms, ns, tree = _ranked_tree(y)
    keep = np.zeros(ms.shape[0], dtype=bool)
    keep[tree] = True
    keep[np.flatnonzero(~keep)[:b]] = True
    return WeightedGraph.from_arrays(n, ms[keep], ns[keep], np.ones(n - 1 + b))


def check_start(n: int, k: int, cfg: SolverConfig) -> bool:
    """Whether `initial_graph` starts sparse for n nodes, k samples and cfg:
    the complete graph for greedy without a budget, else the sparse init.

    InvalidBudget for a budget `default_budget` refuses, and
    TooLarge (`datagen.check_size`) when building the start, or solving
    from it, would pass the ceiling in the larger of its counts:
    edge-length arrays (EDGE_ARRAYS) or (N, N) ones (SQUARE_ARRAYS,
    EXACT_SQUARE_ARRAYS under cfg.exact_logdet). The latter also covers
    the sparse start's ranking, 5 arrays of the N(N-1)/2 pairs. The need
    grows with k, so the largest k bounds a sweep. n and k must be
    integers (`graph.integer`), else TypeError.
    """
    n, k = integer(n, "node count"), integer(k, "sample count")
    sparse = cfg.solver_kind == "recursive" or cfg.budget_b is not None
    edges = n - 1 + default_budget(n, cfg.budget_b) if sparse else n * (n - 1) // 2
    square = EXACT_SQUARE_ARRAYS if cfg.exact_logdet else SQUARE_ARRAYS
    entries = max((EDGE_ARRAYS + 2 * eigenpair_count(n, k)) * edges, square * n * n)
    datagen.check_size(entries, f"the {'sparse' if sparse else 'complete'} start at node "
                       f"count {n} ({edges} edges, {k} samples) needs {8 * entries:,} "
                       f"bytes of arrays at once")
    return sparse


def initial_graph(obs: ObservationSet, cfg: SolverConfig) -> WeightedGraph:
    """Complete graph for greedy without a budget, else the sparse init;
    `check_start` refuses a start it cannot hold before anything is built."""
    if check_start(obs.n, obs.k, cfg):
        return init_sparse_graph(obs.gram, cfg.budget_b)
    return complete_graph(obs.n)
