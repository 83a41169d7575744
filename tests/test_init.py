"""Similarity-guided sparse initialization."""

import tracemalloc
import warnings

import numpy as np
import pytest

from fsgl.datagen import gen_ground_truth, sample_gmm
from fsgl.errors import InvalidBudget, NonFiniteInput
from fsgl.graph import complete_graph, gram, is_connected
from fsgl.init_graph import (
    EDGE_ARRAYS,
    RANKING_ARRAYS,
    default_budget,
    init_sparse_graph,
    max_similarity_tree,
)
from fsgl.solver import SolverConfig, eigenpair_count, run_solver


def random_gram(rng, n, k=None):
    k = k or int(rng.integers(1, n + 3))
    return gram(rng.standard_normal((n, k)))


def replay_tree_choices(y, edges):
    """Check each attachment took the largest frontier similarity.

    Replays the greedy growth: after the first edge, the next edge must
    be the maximum of y over all (tree node, outside node) pairs, with
    lexicographic preference on ties.
    """
    n = y.shape[0]
    inside = set(edges[0])
    for (a, b) in edges[1:]:
        new = b if a in inside else a
        assert (a in inside) != (b in inside), "edge must cross the frontier"
        best = None
        for u in sorted(inside):
            for v in range(n):
                if v in inside:
                    continue
                key = (-y[min(u, v), max(u, v)], min(u, v), max(u, v))
                if best is None or key < best:
                    best = key
        assert -best[0] == pytest.approx(y[min(a, b), max(a, b)], abs=0.0)
        assert (best[1], best[2]) == (min(a, b), max(a, b))
        inside.add(new)
    assert len(inside) == n


def test_tree_covers_all_nodes_once():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 16))
        y = random_gram(rng, n)
        edges = max_similarity_tree(y)
        assert len(edges) == n - 1
        assert {v for e in edges for v in e} == set(range(n))


def test_tree_replay_confirms_greedy_choices():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        y = random_gram(rng, n)
        edges = max_similarity_tree(y)
        replay_tree_choices(y, edges)


def test_tree_first_edge_is_global_max():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        y = random_gram(rng, n)
        (m, n2) = max_similarity_tree(y)[0]
        iu, ju = np.triu_indices(n, k=1)
        assert y[m, n2] == np.max(y[iu, ju])


def test_tree_tie_break_lexicographic():
    y = np.ones((4, 4))  # every pair ties
    edges = max_similarity_tree(y)
    assert edges == [(0, 1), (0, 2), (0, 3)]


def test_init_tie_order_is_lexicographic_in_m_then_n():
    # all pairs tie: the tree is the star at 0, then the budget takes
    # (1, 2), (1, 3), (1, 4); ranking by (n, m) would take (2, 3) third
    g = init_sparse_graph(np.ones((5, 5)), 3)
    assert sorted(g.edges) == [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]


def test_init_edge_count_and_unit_weights():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 20))
        available = n * (n - 1) // 2 - (n - 1)
        b = int(rng.integers(0, available + 1))
        g = init_sparse_graph(random_gram(rng, n), b)
        assert g.n == n
        assert g.edge_count == n - 1 + b
        assert all(w == 1.0 for w in g.edges.values())
        assert is_connected(g)


def test_init_budget_validation():
    rng = np.random.default_rng(0)
    y = random_gram(rng, 6)  # 15 pairs, 5 tree edges, 10 spare
    init_sparse_graph(y, 10)
    with pytest.raises(InvalidBudget):
        init_sparse_graph(y, 11)
    with pytest.raises(InvalidBudget):
        init_sparse_graph(y, -1)
    for bad in (1.5, 2.0, True):
        with pytest.raises(InvalidBudget, match="int"):
            init_sparse_graph(y, bad)
    assert init_sparse_graph(y, np.int64(2)).edge_count == 7
    with pytest.raises(ValueError):
        init_sparse_graph(random_gram(rng, 1), 0)


def test_init_without_budget_takes_the_default():
    for n in (2, 4, 9, 30):
        y = random_gram(np.random.default_rng(n), n)
        g = init_sparse_graph(y, None)
        assert g.edges == init_sparse_graph(y, default_budget(n, None)).edges
        assert g.edge_count == n - 1 + min(3 * n, (n - 1) * (n - 2) // 2)


def test_init_extras_are_next_largest_pairs():
    # the b extra edges are exactly the largest off-tree similarities
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 14))
        y = random_gram(rng, n)
        tree = set(max_similarity_tree(y))
        available = n * (n - 1) // 2 - (n - 1)
        b = int(rng.integers(1, available + 1))
        g = init_sparse_graph(y, b)
        extras = set(g.edges) - tree
        assert len(extras) == b
        rest = [(i, j) for i in range(n) for j in range(i + 1, n)
                if (i, j) not in tree and (i, j) not in extras]
        if rest:
            worst_taken = min(y[m, n2] for (m, n2) in extras)
            best_left = max(y[m, n2] for (m, n2) in rest)
            assert worst_taken >= best_left - 1e-12


def test_init_deterministic():
    rng = np.random.default_rng(11)
    y = random_gram(rng, 10)
    a = init_sparse_graph(y, 7)
    b = init_sparse_graph(y, 7)
    assert a.edges == b.edges


@pytest.mark.parametrize("start", [max_similarity_tree,
                                   lambda y: init_sparse_graph(y, None)])
def test_start_rejects_non_square_and_non_finite_similarity(start):
    # a 3 x 5 matrix is not a similarity between nodes, and NaNs rank nothing
    with pytest.raises(ValueError, match="must be square"):
        start(np.arange(15.0).reshape(3, 5))
    with pytest.raises(NonFiniteInput, match="non-finite"):
        start(np.full((4, 4), np.nan))
    y = gram(np.random.default_rng(0).standard_normal((4, 2)))
    y[1, 2] = np.inf
    with pytest.raises(NonFiniteInput, match="non-finite"):
        start(y)



@pytest.mark.parametrize("start", [max_similarity_tree,
                                   lambda y: init_sparse_graph(y, None)])
def test_start_rejects_complex_similarity(start):
    # the real parts alone would rank the pairs
    y = gram(np.random.default_rng(0).standard_normal((4, 2))) + 0j
    y[0, 1] = y[1, 0] = 1j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="similarity matrix must be real, got dtype "
                                             "complex128"):
            start(y)


@pytest.mark.parametrize("start", [max_similarity_tree,
                                   lambda y: init_sparse_graph(y, None)])
@pytest.mark.parametrize("dtype", [bool, str, object])
def test_start_rejects_similarity_of_no_real_dtype(start, dtype):
    # a float cast would rank parsed strings, or bools as 0 and 1
    y = gram(np.random.default_rng(0).standard_normal((4, 2)))
    y = (y > 0) if dtype is bool else y.astype(dtype)
    with pytest.raises(ValueError, match=f"similarity matrix must be real, got dtype "
                                         f"{y.dtype}"):
        start(y)


@pytest.mark.parametrize("start", [max_similarity_tree,
                                   lambda y: init_sparse_graph(y, None)])
def test_start_rejects_asymmetric_similarity(start):
    # only the upper triangle is ranked, so y[0, 3] alone would pick (0, 3)
    y = np.eye(4)
    y[0, 3] = 5.0
    with pytest.raises(ValueError, match=r"symmetric: y\[0, 3\] = 5.0 but y\[3, 0\] = 0.0"):
        start(y)
    # the first asymmetric entry in row-major order is named
    y = gram(np.random.default_rng(0).standard_normal((4, 2)))
    y[3, 1] += 1.0
    y[2, 0] += 1.0
    with pytest.raises(ValueError, match=r"y\[0, 2\] = .* but y\[2, 0\]"):
        start(y)
    # a finite check comes first
    y[1, 1] = np.nan
    with pytest.raises(NonFiniteInput, match="non-finite"):
        start(y)

def traced_peak(build):
    """Peak bytes tracemalloc sees while build() runs, and its result."""
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [200, 300, 400])
def test_sparse_start_peak_fits_its_ranking_arrays(n):
    # initial_graph's size ceiling counts RANKING_ARRAYS pair-length arrays
    y = gram(np.random.default_rng(n).standard_normal((n, 8)))
    _, peak = traced_peak(lambda: init_sparse_graph(y, None))
    pairs = n * (n - 1) // 2
    assert peak <= 8 * (RANKING_ARRAYS * pairs + 4 * n) + 4096, f"{peak / (8 * pairs):.2f}"


@pytest.mark.parametrize("n, k", [(80, 16), (120, 24)])
def test_complete_start_solve_peak_fits_its_edge_arrays(n, k):
    # initial_graph's size ceiling counts EDGE_ARRAYS + 2k edge-length
    # arrays for a solve from the complete graph, deletions included
    obs = sample_gmm(gen_ground_truth(n, 0.3, seed=3), k, seed=13)
    obs.gram  # the Gram matrix is the observations', not the solve's
    (g, trace), peak = traced_peak(
        lambda: run_solver(complete_graph(n), obs, SolverConfig(epsilon=0.05, max_iters=150)))
    edges = n * (n - 1) // 2
    assert len(trace) == 150 and g.edge_count < edges
    limit = 8 * ((EDGE_ARRAYS + 2 * eigenpair_count(n, k)) * edges + 4 * n) + 4096
    assert peak <= limit, f"{peak / (8 * edges):.2f} edge-length arrays"
