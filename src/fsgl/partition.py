"""Cheeger cuts and recursive divide-and-conquer edge selection.

The recursive selector splits the candidate edge set with a Fiedler sweep
cut of the unit-weight graph, keeps the cut edges as a block of their
own, and recurses on the edges of each side. A sub-graph is its edge rows
and the nodes they touch, so a node without edges never enters a split.
That plan depends only on which edges the graph holds, so a solve lays it
out once per edge set and reuses it across the steps that only weaken
weights. Each step scores every edge against the same global spectral
snapshot and Gram matrix as the exhaustive scan and takes all block
minima in one `reduceat`, so the result is an exact decomposition of the
global argmin: every edge lands in exactly one block, whichever splits
are taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import Disconnected, TooLarge
from .graph import WeightedGraph
from .objective import count_ineligible, score_edges, selection
from .spectral import SpectralState, smallest_eigenpairs

BRUTE_FORCE_LIMIT = 16
CONNECTIVITY_TOL = 1e-8
LEAF_NODES = 8  # a solve's cut_plan leaf size; never changes the selected edge


@dataclass(frozen=True)
class CheegerCut:
    """A node subset with at most half the nodes and its cut edge set."""

    s: tuple[int, ...]
    cut_edges: tuple[tuple[int, int], ...]
    ratio: float


def brute_force_cheeger(g: WeightedGraph) -> CheegerCut:
    """Exact Cheeger constant by enumerating all admissible subsets.

    Minimizes |cut edges| / |S| over nonempty S with |S| <= |V|/2. Ties
    prefer the smaller subset, then lexicographic membership. Edge counts
    ignore weights (set cardinality).
    """
    n = g.n
    if n > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"brute force enumeration capped at {BRUTE_FORCE_LIMIT} nodes")
    if n < 2:
        raise ValueError("need at least two nodes")
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


def _sweep_prefix(n: int, m_arr: np.ndarray, n_arr: np.ndarray, v2: np.ndarray):
    """Best prefix split of nodes sorted by Fiedler entries.

    Returns (sorted node order, prefix length t, cut edge count). Cut
    counts for all n-1 prefixes come from one difference-array pass, so
    the sweep is O(n + |E|) after the sort.
    """
    order = v2.argsort(kind="stable")
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n)
    pm, pn = pos[m_arr], pos[n_arr]
    lo = np.minimum(pm, pn)
    hi = np.maximum(pm, pn)
    diff = (np.bincount(lo + 1, minlength=n + 1)
            - np.bincount(hi + 1, minlength=n + 1))
    cuts = diff.cumsum()[1:n]
    prefix = np.arange(1, n)
    t = int((cuts / np.minimum(prefix, n - prefix)).argmin()) + 1
    return order, t, int(cuts[t - 1])


def approx_cheeger_cut(g: WeightedGraph, state: SpectralState) -> CheegerCut:
    """Fiedler sweep cut: the standard linear-time approximate Cheeger cut.

    Nodes are sorted by their Fiedler-vector entries and the best of the
    n-1 prefix splits is taken; the reported subset is the side with at
    most half the nodes. Cheeger's inequality guarantees ratio >= l2 / 2.
    """
    if state.fiedler_value <= CONNECTIVITY_TOL:
        raise Disconnected("sweep cut needs a connected graph (lambda_2 > tol)")
    m_arr, n_arr, _ = g.edge_arrays()
    order, t, cut = _sweep_prefix(g.n, m_arr, n_arr, state.fiedler_vector)
    side = order[:t] if t <= g.n - t else order[t:]
    inside = frozenset(int(v) for v in side)
    cut_edges = tuple(e for e in g.edges if (e[0] in inside) != (e[1] in inside))
    return CheegerCut(tuple(sorted(inside)), cut_edges, cut / len(inside))


def _local_fiedler(k: int, lm: np.ndarray, ln: np.ndarray) -> np.ndarray:
    """Fiedler vector of a sub-graph on k local nodes, unit weights."""
    lap = np.zeros((k, k))
    lap[lm, ln] = -1.0
    lap[ln, lm] = -1.0
    np.fill_diagonal(lap, np.bincount(lm, minlength=k) + np.bincount(ln, minlength=k))
    return smallest_eigenpairs(lap, 2).fiedler_vector


def cut_plan(g: WeightedGraph, v_min: int) -> tuple[np.ndarray, np.ndarray]:
    """The recursive Cheeger-cut decomposition of g, laid out for `reduceat`.

    A sub-graph is a set of edge rows and the nodes those rows touch,
    numbered in node order. One that touches at most v_min nodes becomes
    a leaf block; a larger one is split by the sweep of its unit-weight
    Fiedler vector, to match the edge-count ratio the sweep minimizes,
    with the crossing rows kept as a block and both sides split again. A
    disconnected sub-graph takes the same sweep, which finds a zero cut
    when the vector separates its components. Returns (rows, starts): the
    blocks (leaves and cut sets, never empty) end to end, a partition of
    g.edge_arrays()'s rows, and where each begins. The plan depends only
    on which edges g holds, not on their weights.
    """
    m_arr, n_arr, _ = g.edge_arrays()
    blocks: list[np.ndarray] = []

    def split(rows: np.ndarray, lm: np.ndarray, ln: np.ndarray, k: int) -> None:
        # lm, ln: the rows' endpoints, numbered among the parent's k nodes
        if rows.shape[0] == 0:
            return
        touched = np.zeros(k, dtype=bool)
        touched[lm] = True
        touched[ln] = True
        local = touched.cumsum() - 1
        k = int(local[-1]) + 1
        if k <= v_min:
            blocks.append(rows)
            return
        lm, ln = local[lm], local[ln]
        order, t, _ = _sweep_prefix(k, lm, ln, _local_fiedler(k, lm, ln))
        in_s = np.zeros(k, dtype=bool)
        in_s[order[:t]] = True
        m_in, n_in = in_s[lm], in_s[ln]
        crossing = m_in ^ n_in
        if crossing.any():
            blocks.append(rows[crossing])
        for side in (m_in & n_in, ~(m_in | n_in)):
            split(rows[side], lm[side], ln[side], k)

    split(np.arange(m_arr.shape[0], dtype=np.intp), m_arr, n_arr, g.n)
    starts = np.cumsum([0, *(b.shape[0] for b in blocks)], dtype=np.intp)[:-1]
    return np.concatenate([np.empty(0, np.intp), *blocks]), starts


def partition_select(g: WeightedGraph, state: SpectralState, obs, cfg,
                     plan=None, terms=None, trace=None):
    """Recursive Cheeger-cut search for the best edge to weaken.

    Returns what the exhaustive scan returns (see `selection`), because
    the plan's blocks only partition the candidate edge set while all
    scores come from the global snapshot. `plan` is cut_plan(g, LEAF_NODES),
    built here when not given; a caller that only weakens edges can keep
    passing the same one, and `terms` (see `score_edges`). `trace` counts
    ineligible edges.
    """
    m_arr, n_arr, w_arr = g.edge_arrays()
    if m_arr.shape[0] == 0:
        return None
    order, starts = cut_plan(g, LEAF_NODES) if plan is None else plan
    # Every candidate edge is scored against the same global snapshot no
    # matter which block it lands in, so one vectorized pass covers them
    # all; one reduceat then takes each block's minimum.
    grad = score_edges(state, obs.gram, m_arr, n_arr, w_arr, cfg, terms).grad
    count_ineligible(trace, grad)
    laid = grad[order]
    best = np.minimum.reduceat(laid, starts).min()
    # Rows run in (m, n) order, so the smallest row that holds the best
    # block minimum is the winner by (grad, m, n); a NaN minimum holds none.
    rows = order[laid == best]
    return selection(grad, int(rows.min()), m_arr, n_arr) if rows.shape[0] else None
