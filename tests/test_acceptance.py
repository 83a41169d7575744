"""End-to-end acceptance gate for the sparse graph learner.

One test per acceptance criterion, in order, so `pytest -v` reads as a
checklist. Oracles are dense linear algebra and brute-force enumeration;
nothing here reuses the incremental formulas under test. Tests with a
wall-clock budget assert it.
"""

import time

import numpy as np

from fsgl.bench import run_benchmark
from fsgl.datagen import gen_ground_truth, sample_gmm, sample_mvt
from fsgl.graph import (ObservationSet, WeightedGraph, build_laplacian, is_connected,
                        weaken_edge)
from fsgl.init_graph import default_budget, init_sparse_graph, max_similarity_tree
from fsgl.objective import objective_value
from fsgl.partition import approx_cheeger_cut, brute_force_cheeger
from fsgl.solver import SolverConfig, run_solver
from fsgl.spectral import smallest_eigenpairs
from lockstep import lockstep
from quadforms import majorizer_quadform
from treereplay import replay_tree


def random_connected(rng, n, lo=0.3, hi=2.0, unit=False):
    """Random connected weighted graph, redrawn until connected."""
    while True:
        p = float(rng.uniform(0.25, 0.9))
        edges = {}
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < p:
                    edges[(a, b)] = 1.0 if unit else float(rng.uniform(lo, hi))
        if not edges:
            continue
        g = WeightedGraph(n, edges)
        if is_connected(g):
            return g


def rank_one_cut(n, m, v):
    """Dense E^{mn} = (e_m - e_v)(e_m - e_v)^T."""
    e = np.zeros((n, n))
    e[m, m] = e[v, v] = 1.0
    e[m, v] = e[v, m] = -1.0
    return e


def test_criterion_1_determinant_identity():
    """det(L + aI - eps E) equals det(L + aI) times the exact eta factor.

    200 random connected graphs with N <= 12 and alpha in {0.5, 1}; eta
    comes from the explicit inverse, the determinants from LU. Relative
    error under 1e-10, total under 10 s.
    """
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for trial in range(200):
        n = int(rng.integers(3, 13))
        g = random_connected(rng, n)
        alpha = 0.5 if trial % 2 == 0 else 1.0
        shifted = build_laplacian(g) + alpha * np.eye(n)
        r = np.linalg.inv(shifted)
        edges = list(g.edges)
        m, v = edges[int(rng.integers(len(edges)))]
        eps = float(rng.uniform(0.005, 0.05))
        eta = 1.0 - eps * (r[m, m] + r[v, v] - 2.0 * r[m, v])
        lhs = np.linalg.det(shifted - eps * rank_one_cut(n, m, v))
        rhs = np.linalg.det(shifted) * eta
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\ncriterion 1 determinant identity: PASS (200 graphs, {elapsed:.2f}s)")


def test_criterion_2_majorizer_dominates_exact_quadform():
    """Truncated-basis majorizer never undercuts the resolvent quadform.

    Same corpus as criterion 1 but with k < N retained eigenpairs; every
    node pair of every graph is checked with margin >= -1e-12.
    """
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = np.inf
    for trial in range(200):
        n = int(rng.integers(4, 13))
        g = random_connected(rng, n)
        alpha = 0.5 if trial % 2 == 0 else 1.0
        k = int(rng.integers(3, n))
        lap = build_laplacian(g)
        state = smallest_eigenpairs(lap, k)
        r = np.linalg.inv(lap + alpha * np.eye(n))
        for m in range(n):
            for v in range(m + 1, n):
                exact = r[m, m] + r[v, v] - 2.0 * r[m, v]
                margin = majorizer_quadform(state, alpha, m, v) - exact
                worst = min(worst, margin)
                assert margin >= -1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\ncriterion 2 majorizer ordering: PASS (worst margin {worst:.3e}, "
          f"{elapsed:.2f}s)")


def test_criterion_3_fiedler_perturbation_bound():
    """|l2(L) - l2(L - eps E)| <= sqrt(2) eps |v2m - v2n| under a wide gap.

    1000 accepted (graph, edge) trials at eps = 0.01, accepted only when
    min(l2 - l1, l3 - l2) > 4 eps; both eigenvalues from dense solves.
    """
    rng = np.random.default_rng(303)
    eps = 0.01
    t0 = time.perf_counter()
    accepted = attempts = 0
    while accepted < 1000:
        attempts += 1
        assert attempts < 20000, "gap condition rejected too many draws"
        n = int(rng.integers(5, 15))
        g = random_connected(rng, n, lo=0.5, hi=2.0)
        lap = build_laplacian(g)
        vals, vecs = np.linalg.eigh(lap)
        if min(vals[1] - vals[0], vals[2] - vals[1]) <= 4.0 * eps:
            continue
        edges = list(g.edges)
        m, v = edges[int(rng.integers(len(edges)))]
        bound = np.sqrt(2.0) * eps * abs(vecs[m, 1] - vecs[v, 1]) + 1e-10
        l2p = float(np.linalg.eigvalsh(lap - eps * rank_one_cut(n, m, v))[1])
        assert abs(float(vals[1]) - l2p) <= bound
        accepted += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\ncriterion 3 perturbation bound: PASS (1000 trials, "
          f"{attempts - accepted} rejected, {elapsed:.2f}s)")


def test_criterion_4_cheeger_inequality_and_sweep():
    """l2/2 <= exact conductance <= sqrt(2 l2 dmax); sweep cut >= l2/2.

    100 random connected unit-weight graphs with at most 10 nodes; the
    exact constant comes from subset enumeration.
    """
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(3, 11))
        g = random_connected(rng, n, unit=True)
        lap = build_laplacian(g)
        lam2 = float(np.linalg.eigvalsh(lap)[1])
        dmax = float(lap.diagonal().max())
        phi = brute_force_cheeger(g).ratio
        assert lam2 / 2.0 <= phi + 1e-9
        assert phi <= np.sqrt(2.0 * lam2 * dmax) + 1e-9
        state = smallest_eigenpairs(lap, 3)
        assert approx_cheeger_cut(g, state).ratio >= lam2 / 2.0 - 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\ncriterion 4 cheeger bounds: PASS (100 graphs, {elapsed:.2f}s)")


def test_criterion_5_objective_descends_under_greedy():
    """The exact objective never increases across accepted greedy steps.

    20 instances (N=20, K=10; half Gaussian mixture, half multivariate
    t), spectral refresh every step, exact objective recomputed after
    every step by replaying the trace from the start, slack 1e-8 per step.
    """
    t0 = time.perf_counter()
    steps = 0
    for i in range(20):
        gen = "gmm" if i < 10 else "mvt"
        gt = gen_ground_truth(20, 0.2, seed=500 + i)
        if gen == "gmm":
            obs = sample_gmm(gt, 10, seed=550 + i)
        else:
            obs = sample_mvt(gt, 10, seed=550 + i)
        cfg = SolverConfig(solver_kind="greedy", refresh_interval=1)
        g0 = init_sparse_graph(obs.gram, default_budget(20, None))
        g, trace = run_solver(g0, obs, cfg)
        replayed, vals = g0, [objective_value(g0, obs.gram, cfg)]
        for edge in trace.edges_mn:
            replayed = weaken_edge(replayed, edge, cfg.epsilon)
            vals.append(objective_value(replayed, obs.gram, cfg))
        assert replayed.edges == g.edges
        if len(vals) > 1:
            assert float(np.diff(vals).max()) <= 1e-8
        steps += len(trace)
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion 5 descent soundness: PASS ({steps} accepted steps, "
          f"{elapsed:.2f}s)")


def test_criterion_6_recursive_selection_matches_exhaustive():
    """Recursive selection equals the exhaustive scan at every iteration.

    50 sparse-init instances (25 at N=20, 25 at N=30) run to
    convergence; at each step the returned edge must match exactly and
    grad_h bitwise, including lexicographic tie handling. Step size 0.05
    keeps runs short; eta = 1 - eps q stays positive since q <= 2/alpha.
    """
    t0 = time.perf_counter()
    compared = 0
    for i in range(50):
        n = 20 if i < 25 else 30
        gt = gen_ground_truth(n, 0.2, seed=600 + i)
        obs = sample_gmm(gt, max(1, round(0.2 * n)), seed=650 + i)
        cfg = SolverConfig(solver_kind="recursive", epsilon=0.05,
                           max_iters=60000)
        g = init_sparse_graph(obs.gram, default_budget(n, None))
        steps, converged = lockstep(g, obs, cfg, 5000)
        assert converged, "instance did not converge within 5000 steps"
        compared += steps
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion 6 recursive equals exhaustive: PASS ({compared} steps "
          f"compared, {elapsed:.2f}s)")


def test_criterion_7_sparse_recursive_pipeline_speedup():
    """Sparse init plus recursive selection beats dense greedy by >= 2x.

    Five shared N=30 instances per arm through the benchmark driver;
    wall-clock means over the five trials are compared. Whole test under
    ten minutes.
    """
    t0 = time.perf_counter()
    report = run_benchmark(SolverConfig(), ratios=(0.2,), trials=5,
                           n=30, generators=("gmm",),
                           solvers=("greedy", "recursive"), seed=0)
    elapsed = time.perf_counter() - t0
    assert all(c.ok for c in report.cells)
    ms_greedy = float(np.mean([c.ms for c in report.cells
                               if c.solver == "greedy"]))
    ms_recursive = float(np.mean([c.ms for c in report.cells
                                  if c.solver == "recursive"]))
    assert elapsed < 600.0
    assert ms_greedy >= 2.0 * ms_recursive
    print(f"\ncriterion 7 runtime trend: PASS (dense greedy {ms_greedy:.0f} ms, "
          f"sparse recursive {ms_recursive:.0f} ms, "
          f"{ms_greedy / ms_recursive:.2f}x, {elapsed:.1f}s total)")


def test_criterion_8_error_and_connectivity_vs_sample_ratio():
    """More observations help; scarce-sample solutions stay connected.

    N=30, 10 trials, both generators, recursive solver. Checks: (a) mean
    relative error at K/N = 1.0 below the K/N = 0.2 mean, per generator;
    (b) every K/N = 0.2 solution connected (l2 > 1e-8); (c) learned
    edges never exceed the initialization's edge count.

    Check (b) is expected to fail and is kept as stated: when a node's
    every candidate edge satisfies eps |Z| > -log(1 - 2 eps / alpha)
    + 2 sqrt(2) gamma eps (about |Z| > 5.5 at defaults), isolating it
    decreases the objective at every step, so no solver arm or step
    order can keep such instances connected. See README.
    """
    t0 = time.perf_counter()
    report = run_benchmark(SolverConfig(solver_kind="recursive"),
                           ratios=(0.2, 1.0), trials=10, n=30,
                           generators=("gmm", "mvt"), solvers=("recursive",),
                           seed=0)
    cells = report.cells
    assert all(c.ok for c in cells)
    init_edges = 29 + default_budget(30, None)
    means = {}
    disconnected = []
    for gen in ("gmm", "mvt"):
        lo = [c for c in cells if c.generator == gen and c.ratio == 0.2]
        hi = [c for c in cells if c.generator == gen and c.ratio == 1.0]
        assert len(lo) == 10 and len(hi) == 10
        means[gen] = (float(np.mean([c.re for c in lo])),
                      float(np.mean([c.re for c in hi])))
        assert means[gen][1] < means[gen][0]
        for c in lo + hi:
            assert c.edges <= init_edges
        disconnected += [(gen, c.trial, c.lambda2) for c in lo
                         if not c.lambda2 > 1e-8]
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion 8 sample-ratio behavior: (a) and (c) hold "
          f"(gmm re {means['gmm'][0]:.3f}->{means['gmm'][1]:.3f}, "
          f"mvt re {means['mvt'][0]:.3f}->{means['mvt'][1]:.3f}, "
          f"{elapsed:.1f}s)")
    assert not disconnected, (
        f"(b) violated, {len(disconnected)}/20 scarce-sample solutions "
        f"disconnected: {disconnected}")


def test_criterion_9_initialization_contract():
    """Every tested (N, B) yields N-1+B edges, connected, greedy-maximal.

    The tree replay uses an independent quadratic frontier search over
    the similarity matrix.
    """
    rng = np.random.default_rng(909)
    t0 = time.perf_counter()
    tested = 0
    for n in (6, 10, 16, 24, 30):
        avail = n * (n - 1) // 2 - (n - 1)
        for b in sorted({0, 1, min(5, avail), min(2 * n, avail), avail}):
            y = ObservationSet(rng.standard_normal((n, int(rng.integers(2, n + 4))))).gram
            g = init_sparse_graph(y, b)
            assert g.edge_count == n - 1 + b
            assert is_connected(g)
            tree = max_similarity_tree(y)
            for edge in tree:
                assert edge in g.edges
            replay_tree(y, tree)
            tested += 1
    elapsed = time.perf_counter() - t0
    print(f"\ncriterion 9 initialization contract: PASS ({tested} (n, b) "
          f"pairs, {elapsed:.2f}s)")
