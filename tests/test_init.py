"""Similarity-guided sparse initialization."""

import re
import warnings

import numpy as np
import pytest

from doubles import traced_peak
from fsgl.bench import run_benchmark
from fsgl.datagen import gen_ground_truth, sample_gmm
from fsgl.errors import InvalidBudget, NonFiniteInput, TooLarge
from fsgl.graph import ObservationSet, complete_graph, is_connected
from fsgl.init_graph import (
    EDGE_ARRAYS,
    EXACT_SQUARE_ARRAYS,
    SQUARE_ARRAYS,
    check_start,
    default_budget,
    init_sparse_graph,
    initial_graph,
    max_similarity_tree,
)
from fsgl.solver import SolverConfig, eigenpair_count, run_solver
from treereplay import replay_tree


def random_gram(rng, n, k=None):
    k = k or int(rng.integers(1, n + 3))
    return ObservationSet(rng.standard_normal((n, k))).gram


def test_tree_covers_all_nodes_once():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 16))
        y = random_gram(rng, n)
        edges = max_similarity_tree(y)
        assert len(edges) == n - 1
        assert {v for e in edges for v in e} == set(range(n))


def test_tree_of_fewer_than_two_nodes_is_empty():
    assert max_similarity_tree(np.ones((1, 1))) == []
    assert max_similarity_tree(np.zeros((0, 0))) == []


def test_tree_replay_confirms_greedy_choices():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        y = random_gram(rng, n)
        edges = max_similarity_tree(y)
        replay_tree(y, edges)


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
    assert init_sparse_graph(y, 10).edge_count == 15
    with pytest.raises(InvalidBudget):
        init_sparse_graph(y, 11)
    assert init_sparse_graph(y, np.int64(2)).edge_count == 7
    with pytest.raises(ValueError):
        init_sparse_graph(random_gram(rng, 1), 0)


# Each way into a start, called with an 8-node instance and a budget.
START_ENTRY_POINTS = {
    "default_budget": lambda obs, b: default_budget(obs.n, b),
    "init_sparse_graph": lambda obs, b: init_sparse_graph(obs.gram, b),
    "check_start": lambda obs, b: check_start(obs.n, obs.k, SolverConfig(budget_b=b)),
    "initial_graph": lambda obs, b: initial_graph(obs, SolverConfig(budget_b=b)),
    "run_benchmark": lambda obs, b: run_benchmark(SolverConfig(budget_b=b), ratios=(0.5,),
                                                  trials=1, n=obs.n),
}


@pytest.mark.parametrize("entry", START_ENTRY_POINTS)
@pytest.mark.parametrize("budget, message", [
    (-1, "budget_b must be >= 0, got -1"),
    (1.5, "budget_b must be an integer, got 1.5"),
    (2.0, "budget_b must be an integer, got 2.0"),
    (True, "budget_b must be an integer, got True"),
    (False, "budget_b must be an integer, got False"),
    ("3", "budget_b must be an integer, got '3'"),
    (22, "budget_b must be at most 21 at n=8"),  # 28 pairs, 7 in the tree
])
def test_every_start_entry_point_refuses_a_bad_budget(monkeypatch, entry, budget, message):
    # default_budget is the one budget check: SolverConfig stores the budget
    # as given, and each way into a start raises InvalidBudget before a step
    calls = []
    monkeypatch.setattr("fsgl.bench.run_solver", lambda *args: calls.append(args))
    obs = sample_gmm(gen_ground_truth(8, 0.3, seed=0), 4, seed=1)
    assert SolverConfig(budget_b=budget).budget_b is budget
    with pytest.raises(InvalidBudget, match=f"^{re.escape(message)}"):
        START_ENTRY_POINTS[entry](obs, budget)
    assert calls == []


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
    y = ObservationSet(np.random.default_rng(0).standard_normal((4, 2))).gram
    y[1, 2] = np.inf
    with pytest.raises(NonFiniteInput, match="non-finite"):
        start(y)



@pytest.mark.parametrize("start", [max_similarity_tree,
                                   lambda y: init_sparse_graph(y, None)])
def test_start_rejects_complex_similarity(start):
    # the real parts alone would rank the pairs
    y = ObservationSet(np.random.default_rng(0).standard_normal((4, 2))).gram + 0j
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
    y = ObservationSet(np.random.default_rng(0).standard_normal((4, 2))).gram
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
    y = ObservationSet(np.random.default_rng(0).standard_normal((4, 2))).gram
    y[3, 1] += 1.0
    y[2, 0] += 1.0
    with pytest.raises(ValueError, match=r"y\[0, 2\] = .* but y\[2, 0\]"):
        start(y)
    # a finite check comes first
    y[1, 1] = np.nan
    with pytest.raises(NonFiniteInput, match="non-finite"):
        start(y)


@pytest.mark.parametrize("n", [200, 300, 400])
def test_sparse_start_peak_fits_its_ranking_arrays(n):
    # the ranking holds 5 pair-length arrays at its peak (tracemalloc read
    # 5.01-5.03 at N = 200-600), which initial_graph's size ceiling covers
    # with the solve's SQUARE_ARRAYS (N, N) ones
    y = ObservationSet(np.random.default_rng(n).standard_normal((n, 8))).gram
    _, peak = traced_peak(lambda: init_sparse_graph(y, None))
    pairs = n * (n - 1) // 2
    assert peak <= 8 * (5 * pairs + 4 * n) + 4096, f"{peak / (8 * pairs):.2f}"
    assert peak <= 8 * SQUARE_ARRAYS * n * n


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


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("kind, budget", [("recursive", None), ("greedy", 900)])
def test_sparse_start_solve_peak_fits_its_square_arrays(kind, budget, exact):
    # initial_graph's size ceiling counts SQUARE_ARRAYS (N, N) arrays for a
    # solve, EXACT_SQUARE_ARRAYS in exact mode: its Laplacian and the full
    # eigensolves, which outweigh a sparse start's edge arrays
    n, k = 300, 60
    obs = sample_gmm(gen_ground_truth(n, 0.2, seed=4), k, seed=14)  # 20 steps each
    obs.gram  # the Gram matrix is the observations', not the solve's
    cfg = SolverConfig(solver_kind=kind, budget_b=budget, exact_logdet=exact,
                       epsilon=0.05, max_iters=20)
    g0 = initial_graph(obs, cfg)
    assert g0.edge_count == n - 1 + 3 * n
    run_solver(g0, obs, cfg)  # first-call set-up
    (g, trace), peak = traced_peak(lambda: run_solver(g0, obs, cfg))
    assert len(trace) == 20
    square = EXACT_SQUARE_ARRAYS if exact else SQUARE_ARRAYS
    assert peak <= 8 * square * n * n, f"{peak / (8 * n * n):.2f} (N, N) arrays"


def test_check_start_counts_the_solves_square_arrays():
    # these sparse starts' pair and edge arrays fit the ceiling, but the
    # solve's (N, N) arrays do not; only the check runs at these sizes
    with pytest.raises(TooLarge, match=r"the sparse start at node count 5600 "
                       r"\(22399 edges, 1120 samples\) needs 1,254,400,000 bytes"):
        check_start(5600, 1120, SolverConfig(solver_kind="recursive"))
    with pytest.raises(TooLarge, match=r"the sparse start at node count 4800 "
                       r"\(19199 edges, 960 samples\) needs 1,290,240,000 bytes"):
        check_start(4800, 960, SolverConfig(solver_kind="recursive", exact_logdet=True))
    # the largest sparse starts at K/N = 0.2, then the smallest refused
    for n, exact in ((5181, False), (4378, True)):
        cfg = SolverConfig(solver_kind="recursive", exact_logdet=exact)
        assert check_start(n, n // 5, cfg)
        with pytest.raises(TooLarge):
            check_start(n + 1, (n + 1) // 5, cfg)
    # a complete start's edge arrays still outweigh its solve's (N, N) ones
    for exact in (False, True):
        assert not check_start(862, 172, SolverConfig(exact_logdet=exact))
        with pytest.raises(TooLarge, match="the complete start at node count 863"):
            check_start(863, 173, SolverConfig(exact_logdet=exact))


def test_check_start_refuses_at_datagen_size_ceiling(monkeypatch):
    # the start's edge arrays meet the one ceiling a draw meets, and its
    # refusal ends as a draw's does, under a lowered ceiling too
    with pytest.raises(TooLarge, match=r"the complete start at node count 20000 "
                       r"\(199990000 edges, 4000 samples\) needs [\d,]+ bytes of "
                       r"arrays at once, above the 1 GiB ceiling$"):
        check_start(20000, 4000, SolverConfig())
    monkeypatch.setattr("fsgl.datagen.MAX_ARRAY_BYTES", 400_000)
    with pytest.raises(TooLarge, match=r"needs 580,560 bytes of arrays at once, "
                       r"above the 0.000372529 GiB ceiling$"):
        check_start(60, 12, SolverConfig())


def test_check_start_sizes_a_numpy_node_count_as_a_python_int():
    # n (n - 1) // 2 wraps in int32 at n = 60000, which once passed the ceiling
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TooLarge, match=r"the complete start at node count 60000 "
                           r"\(1799970000 edges, 6 samples\)"):
            check_start(np.int32(60000), np.int32(6), SolverConfig())
