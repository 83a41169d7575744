"""Cheeger cuts and recursive divide-and-conquer edge selection.

The recursive selector splits the candidate edge set with a Fiedler sweep
cut of the unit-weight graph, keeps the cut edges as a block of their
own, and recurses on the edges of each side; a split is the node mask of
the sweep's best prefix. A sub-graph is its edge rows and the nodes they
touch, and its Laplacian comes from graph.py, as every Laplacian does.
The plan, one block label per edge row, depends only on which edges the
graph holds: a solve labels its start graph once and drops a deleted
edge's label with `np.delete`. Each step scores every edge against the
exhaustive scan's snapshot and Gram matrix and takes all block minima in
one `np.fmin.at`, so any partition of the edges into blocks, this one
included, selects the scan's edge. Connectivity is read from the edges
(`graph.is_connected`), never from a threshold on l2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count

import numpy as np

from .errors import Disconnected, TooLarge
from .graph import WeightedGraph, edge_laplacian, is_connected
from .objective import score_edges, selection
from .spectral import SpectralState, smallest_eigenpairs

BRUTE_FORCE_LIMIT = 16
LEAF_NODES = 8  # a solve's cut_plan leaf size; never changes the selected edge


@dataclass(frozen=True)
class CheegerCut:
    """A node subset with at most half the nodes and its cut edge set."""

    s: tuple[int, ...]
    cut_edges: tuple[tuple[int, int], ...]
    ratio: float


def _cheeger_cut(inside: np.ndarray, m_arr: np.ndarray, n_arr: np.ndarray) -> CheegerCut:
    """The CheegerCut of the boolean node mask `inside`, or of its
    complement when that holds fewer nodes."""
    if 2 * np.count_nonzero(inside) > inside.shape[0]:
        inside = ~inside
    crossing = inside[m_arr] != inside[n_arr]
    cut_edges = tuple(zip(m_arr[crossing].tolist(), n_arr[crossing].tolist()))
    s = tuple(np.flatnonzero(inside).tolist())
    return CheegerCut(s, cut_edges, len(cut_edges) / len(s))


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
    m_arr, n_arr, _ = g.edge_arrays()
    best = None
    for size in range(1, n // 2 + 1):
        subsets = np.array(list(combinations(range(n), size)))  # lexicographic
        inside = (subsets[:, :, None] == np.arange(n)).any(axis=1)  # membership rows
        cuts = np.count_nonzero(inside[:, m_arr] != inside[:, n_arr], axis=1)
        j = int(cuts.argmin())  # the first subset with the fewest cut edges
        ratio = int(cuts[j]) / size
        if best is None or ratio < best[0]:
            best = (ratio, inside[j])
    return _cheeger_cut(best[1], m_arr, n_arr)


def _sweep_side(n: int, m_arr: np.ndarray, n_arr: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Best prefix split of nodes sorted by Fiedler entries.

    Returns the node mask of the first t nodes of v2's stable sort, for
    the first t in [1, n) with the fewest cut edges / min(t, n - t). Cut
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
    return pos < t


def approx_cheeger_cut(g: WeightedGraph, state: SpectralState) -> CheegerCut:
    """Fiedler sweep cut: the standard linear-time approximate Cheeger cut.

    The best of the n-1 prefix splits of the nodes sorted by their Fiedler
    entries (`_sweep_side`), reported as its side with at most half the
    nodes. Cheeger's inequality guarantees ratio >= l2 / 2. A disconnected
    g, as `graph.is_connected` decides from its edges, raises
    Disconnected; a connected one is cut however small its l2.
    """
    if not is_connected(g):
        raise Disconnected("sweep cut needs a connected graph")
    m_arr, n_arr, _ = g.edge_arrays()
    return _cheeger_cut(_sweep_side(g.n, m_arr, n_arr, state.fiedler_vector), m_arr, n_arr)


def cut_plan(g: WeightedGraph, v_min: int) -> np.ndarray:
    """The recursive Cheeger-cut decomposition of g, one block label per edge row.

    A sub-graph is a set of edge rows and the nodes those rows touch,
    numbered in node order. One that touches at most v_min nodes becomes
    a leaf block; a larger one is split by the sweep of its unit-weight
    Fiedler vector, to match the edge-count ratio the sweep minimizes,
    into the rows inside and outside the sweep's node mask, with the
    crossing rows kept as a block and both sides split again. A
    disconnected sub-graph takes the same sweep, which finds a zero cut
    when the vector separates its components. Returns `block`, an intp
    array over g.edge_arrays()'s rows: block[i] is the id of the block
    (leaf or cut set) that holds row i, the ids 0, 1, ... numbered in
    recursive pre-order. The plan depends only on which edges g holds,
    not on their weights. Sub-graphs wait on a stack of their own, as their
    edge rows alone, so nesting as deep as N needs no Python recursion.
    """
    m_arr, n_arr, _ = g.edge_arrays()
    block = np.full(m_arr.shape[0], -1, dtype=np.intp)
    ids = count()
    stack = [np.arange(m_arr.shape[0], dtype=np.intp)]  # depth first
    while stack:
        rows = stack.pop()
        if rows.shape[0] == 0:
            continue
        lm, ln = m_arr[rows], n_arr[rows]
        touched = np.zeros(g.n, dtype=bool)
        touched[lm] = touched[ln] = True
        local = touched.cumsum() - 1
        k = int(local[-1]) + 1
        if k <= v_min:
            block[rows] = next(ids)
            continue
        lm, ln = local[lm], local[ln]
        unit = edge_laplacian(k, lm, ln, np.ones(lm.shape[0]))
        inside = _sweep_side(k, lm, ln, smallest_eigenpairs(unit, 2).fiedler_vector)
        m_in, n_in = inside[lm], inside[ln]
        crossing = m_in ^ n_in
        if crossing.any():
            block[rows[crossing]] = next(ids)
        # The inside side goes last, so it is split first.
        stack += rows[~(m_in | n_in)], rows[m_in & n_in]
    return block


def partition_select(g: WeightedGraph, state: SpectralState, obs, cfg,
                     plan=None, terms=None, trace=None):
    """Recursive Cheeger-cut search for the best edge to weaken.

    Returns what the exhaustive scan returns (see `selection`), because
    the plan's blocks only partition the candidate edge set while all
    scores come from the global snapshot. `plan` is any such partition of
    g's edge rows, one non-negative block label per row as `cut_plan`
    returns it (cut_plan(g, LEAF_NODES) when not given); a solve passes
    its start graph's plan, each deleted row's label taken out by
    `np.delete`. `terms` and `trace` are as in `score_edges`.
    """
    m_arr, n_arr, w_arr = g.edge_arrays()
    if m_arr.shape[0] == 0:
        return None
    block = cut_plan(g, LEAF_NODES) if plan is None else plan
    # One fmin.at takes each block's minimum, skipping NaN, so a NaN score
    # warns no more than the scan does; a label that no row holds any more
    # (its block was emptied) keeps +inf.
    grad = score_edges(state, obs.gram, m_arr, n_arr, w_arr, cfg, terms, trace).grad
    minima = np.full(int(block.max()) + 1, np.inf)
    np.fmin.at(minima, block, grad)
    # Rows run in (m, n) order, so the first row that holds the best block
    # minimum, argmin's row, is the winner by (grad, m, n). A NaN score is
    # argmin's row and fails the compare, so none is selected, as in the scan.
    i = int(grad.argmin())
    return selection(grad, i, m_arr, n_arr) if grad[i] == minima.min() else None
