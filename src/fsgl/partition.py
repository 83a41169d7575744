"""Cheeger cuts and recursive divide-and-conquer edge selection.

The recursive selector splits the candidate edge set with a Fiedler sweep
cut, recurses on the two induced sub-graphs, scores the cut edges, and
returns the best of the three. The top level sweeps the solver's snapshot;
deeper levels sweep the Fiedler vector of the unit-weight sub-graph. All
scoring reads the same global spectral snapshot and Gram matrix as the
exhaustive scan, so the recursion is an exact decomposition of the global
argmin: every edge lands in exactly one of the two sub-graphs or the cut
set, whichever split is taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
import scipy.linalg
from scipy.linalg import get_lapack_funcs

from .errors import Disconnected, TooLarge
from .graph import WeightedGraph
from .objective import EdgeDelta, score_edges
from .spectral import SpectralState

BRUTE_FORCE_LIMIT = 16
CONNECTIVITY_TOL = 1e-8


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


_SYEVR, = get_lapack_funcs(("syevr",), (np.empty((2, 2)),))


def _local_fiedler(k: int, lm: np.ndarray, ln: np.ndarray):
    """(lambda_2, Fiedler vector) of an induced sub-graph, unit weights, local order."""
    lap = np.zeros((k, k))
    lap[lm, ln] = -1.0
    lap[ln, lm] = -1.0
    np.fill_diagonal(lap, np.bincount(lm, minlength=k) + np.bincount(ln, minlength=k))
    # Direct LAPACK call: the Fiedler pair alone, no wrapper overhead.
    vals, vecs, _, _, info = _SYEVR(lap, range="I", il=2, iu=2)
    if info != 0:
        vals, vecs = scipy.linalg.eigh(lap, subset_by_index=(1, 1), check_finite=False)
    return float(vals[0]), vecs[:, 0]


_LEVEL_CACHE: dict = {}
_LEVEL_CACHE_CAP = 16384


def _level_split(k: int, lm: np.ndarray, ln: np.ndarray):
    """Fiedler pair plus sweep order for one recursion level, memoized.

    The split comes from the unit-weight Laplacian of the sub-graph, to
    match the edge-count ratio the sweep minimizes. It is then a pure
    function of which edges the sub-graph holds, so a level replays from
    the memo while steps only weaken its weights. order is None when the
    sub-graph is disconnected (lambda_2 at tolerance).
    """
    key = (k, lm.tobytes(), ln.tobytes())
    hit = _LEVEL_CACHE.get(key)
    if hit is not None:
        return hit
    lam2, v2 = _local_fiedler(k, lm, ln)
    if lam2 <= CONNECTIVITY_TOL:
        out = (lam2, v2, None, 0)
    else:
        order, t, _ = _sweep_prefix(k, lm, ln, v2)
        out = (lam2, v2, order, t)
    if len(_LEVEL_CACHE) >= _LEVEL_CACHE_CAP:
        _LEVEL_CACHE.clear()
    _LEVEL_CACHE[key] = out
    return out


def partition_select(g: WeightedGraph, state: SpectralState, obs, cfg,
                     pool=None, audit=None):
    """Recursive Cheeger-cut search for the best edge to weaken.

    Equivalent to the exhaustive scan (same edge, same score, same
    lexicographic tie-break) because sub-graphs only partition the
    candidate edge set while all scores come from the global snapshot.
    Sub-graphs at or below cfg.v_min nodes are scanned directly;
    disconnected sub-graphs recurse per connected component. When `pool`
    is given, the two top recursion branches run concurrently.

    `audit`, if set, receives (depth, node_count, s_size, rows, rows_g1,
    rows_g2, rows_cut) at every split, for instrumentation.
    """
    m_arr, n_arr, w_arr = g.edge_arrays()
    if m_arr.shape[0] == 0:
        return None
    # Every candidate edge is scored against the same global snapshot no
    # matter which leaf or cut set it lands in, so one vectorized pass up
    # front covers the whole recursion; leaves then reduce their slice.
    scores = score_edges(state, obs.gram, m_arr, n_arr, w_arr, cfg)
    grad = scores.grad

    def leaf(rows: np.ndarray):
        i = int(rows[grad[rows].argmin()])
        if not np.isfinite(grad[i]):
            return None
        edge = (int(m_arr[i]), int(n_arr[i]))
        return edge, EdgeDelta(edge, float(scores.z[i]), float(scores.eta[i]),
                               float(scores.rho[i]), float(scores.gain[i]),
                               float(grad[i]))

    def pick(candidates):
        best = None
        for cand in candidates:
            if cand is None:
                continue
            key = (cand[1].grad_h, cand[0][0], cand[0][1])
            if best is None or key < best[0]:
                best = (key, cand)
        return None if best is None else best[1]

    def by_components(node_ids: np.ndarray, rows: np.ndarray,
                      lm: np.ndarray, ln: np.ndarray, depth: int):
        k = node_ids.shape[0]
        parent = list(range(k))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b in zip(lm.tolist(), ln.tolist()):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
        roots = np.array([find(v) for v in range(k)])
        labels = np.unique(roots, return_inverse=True)[1]
        results = []
        for c in range(int(labels.max()) + 1):
            members = np.flatnonzero(labels == c)
            if members.shape[0] < 2:
                continue
            results.append(select(node_ids[members], rows[labels[lm] == c], depth))
        return pick(results)

    ids = np.arange(g.n, dtype=np.intp)

    def select(node_ids: np.ndarray, rows: np.ndarray, depth: int):
        if rows.shape[0] == 0:
            return None
        k = node_ids.shape[0]
        if k <= cfg.v_min:
            return leaf(rows)

        # Relabel endpoints to positions within node_ids; any consistent
        # labeling works, the partition shape never changes the winner.
        loc = np.empty(g.n, dtype=np.intp)
        loc[node_ids] = ids[:k]
        lm = loc[m_arr[rows]]
        ln = loc[n_arr[rows]]
        if depth == 0 and k == g.n:
            lam2 = state.fiedler_value
            if lam2 <= CONNECTIVITY_TOL:
                return by_components(node_ids, rows, lm, ln, depth)
            order, t, _ = _sweep_prefix(k, lm, ln, state.fiedler_vector)
        else:
            lam2, _, order, t = _level_split(k, lm, ln)
            if order is None:
                return by_components(node_ids, rows, lm, ln, depth)
        in_s = np.zeros(k, dtype=bool)
        in_s[order[:t]] = True
        m_in = in_s[lm]
        n_in = in_s[ln]
        rows1 = rows[m_in & n_in]
        rows2 = rows[~m_in & ~n_in]
        rows_cut = rows[m_in ^ n_in]
        # Sorted, so a sub-graph's local labels, and its memo key, do not
        # depend on this level's Fiedler order.
        nodes1 = np.sort(node_ids[order[:t]])
        nodes2 = np.sort(node_ids[order[t:]])
        if audit is not None:
            audit((depth, k, t, rows.shape[0],
                   rows1.shape[0], rows2.shape[0], rows_cut.shape[0]))

        if pool is not None and depth < 2 and rows1.shape[0] > 8 and rows2.shape[0] > 8:
            fut = pool.submit(select, nodes1, rows1, depth + 1)
            cand2 = select(nodes2, rows2, depth + 1)
            cand1 = fut.result()
        else:
            cand1 = select(nodes1, rows1, depth + 1)
            cand2 = select(nodes2, rows2, depth + 1)
        return pick([cand1, cand2, leaf(rows_cut) if rows_cut.shape[0] else None])

    return select(np.arange(g.n, dtype=np.intp),
                  np.arange(m_arr.shape[0], dtype=np.intp), 0)
