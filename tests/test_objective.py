"""Per-edge scoring terms and the exact objective."""

import math
from dataclasses import replace

import numpy as np
import pytest

from doubles import counted_eigensolves, patch_syevr
from fsgl.datagen import draw_instance
from fsgl.graph import (
    ObservationSet,
    WeightedGraph,
    build_laplacian,
    complete_graph,
    step_deletes,
    weaken_edge,
)
from fsgl.init_graph import init_sparse_graph
from fsgl.objective import (
    EdgeScores,
    _row_sums,
    edge_terms,
    objective_and_fiedler,
    objective_value,
    score_edges,
    selection,
    smoothness_trace,
)
from fsgl.solver import SolverConfig, SolveTrace, compute_state, greedy_step, run_solver
from fsgl.spectral import SpectralState, smallest_eigenpairs
from randomgraph import random_connected_graph


def score_gram(state, y, m_arr, n_arr, w_arr, cfg, trace=None):
    """score_edges on a batch with the terms a solve holds for it, edge_terms
    of the Gram matrix y at cfg.epsilon."""
    terms = edge_terms(y, m_arr, n_arr, cfg.epsilon)
    return score_edges(state, terms, m_arr, n_arr, w_arr, cfg, trace)


def score_one(state, y, m, n, cfg, w=1.0):
    """score_gram on the one-edge batch (m, n) with weight w."""
    return score_gram(state, y, np.array([m]), np.array([n]), np.array([w]), cfg)


def term_one(y, m, n, eps=1.0):
    """edge_terms of the one edge (m, n): eps z, which is z at eps = 1."""
    return edge_terms(y, np.array([m]), np.array([n]), eps)[0]


def test_trace_delta_identity_observations():
    # Y = I gives Z = -2 for every pair; Y = all-ones gives Z = 0
    eye = np.eye(6)
    ones = np.ones((6, 6))
    for (m, n) in ((0, 1), (2, 5), (3, 4)):
        assert term_one(eye, m, n) == pytest.approx(-2.0)
        assert term_one(ones, m, n) == pytest.approx(0.0)


def test_trace_delta_nonpositive_for_gram():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        y = ObservationSet(rng.standard_normal((8, int(rng.integers(1, 12))))).gram
        for _ in range(6):
            m, n = sorted(rng.choice(8, size=2, replace=False).tolist())
            assert term_one(y, m, n) <= 1e-12


def test_trace_delta_is_exact_smoothness_change():
    # tr(L'Y) - tr(LY) = step * Z when one weight drops by step
    for seed in range(25):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 7)
        y = ObservationSet(rng.standard_normal((7, 5))).gram
        (m, n), w = next(iter(g.edges.items()))
        step = min(0.01, w)
        g2 = weaken_edge(g, (m, n), step)
        lhs = smoothness_trace(g2, y) - smoothness_trace(g, y)
        assert lhs == pytest.approx(term_one(y, m, n, step), abs=1e-10)


def test_logdet_delta_majorizer_overestimates_true_drop():
    # -log eta with the surrogate form is >= the true log-det decrease
    cfg = SolverConfig()
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 12))
        g = random_connected_graph(rng, n)
        lap = build_laplacian(g)
        k = int(rng.integers(3, n + 1))
        state = smallest_eigenpairs(lap, k)
        (m, n2) = next(iter(g.edges))
        pen = -math.log(score_one(state, np.eye(n), m, n2, cfg).eta[0])
        e = np.zeros(n)
        e[m], e[n2] = 1.0, -1.0
        shifted = lap + cfg.alpha * np.eye(n)
        true_drop = (np.linalg.slogdet(shifted)[1]
                     - np.linalg.slogdet(shifted - cfg.epsilon * np.outer(e, e))[1])
        assert pen >= true_drop - 1e-10


def test_logdet_delta_exact_matches_rank_one_determinant():
    # with the stored resolvent, eta equals det(A - eps E)/det(A) exactly
    cfg = SolverConfig(exact_logdet=True)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 10))
        g = random_connected_graph(rng, n)
        lap = build_laplacian(g)
        state = compute_state(g, cfg, 3)
        (m, n2) = next(iter(g.edges))
        eta = score_one(state, np.eye(n), m, n2, cfg).eta[0]
        e = np.zeros(n)
        e[m], e[n2] = 1.0, -1.0
        shifted = lap + cfg.alpha * np.eye(n)
        ratio = (np.linalg.det(shifted - cfg.epsilon * np.outer(e, e))
                 / np.linalg.det(shifted))
        assert -math.log(eta) == pytest.approx(-math.log(ratio), rel=1e-9)


def test_logdet_delta_rejects_oversized_step():
    # an edgeless graph hits the ceiling q = 2/alpha = 4, so eps = 0.3
    # drives eps * q = 1.2 past the determinant-positivity limit: the
    # edge is ineligible (grad = +inf), not an error
    state = smallest_eigenpairs(build_laplacian(WeightedGraph(3)), 3)
    y = np.eye(3)
    big = score_one(state, y, 0, 1, SolverConfig(epsilon=0.3))
    assert big.eta[0] <= 0.0 and big.grad[0] == np.inf
    # a tame step on the same state stays finite
    tame = score_one(state, y, 0, 1, SolverConfig(epsilon=0.01))
    assert -math.log(tame.eta[0]) == pytest.approx(-math.log(0.96))
    assert np.isfinite(tame.grad[0])


def test_fiedler_delta_gap_regimes():
    cfg = SolverConfig(epsilon=0.01)
    eps = cfg.epsilon
    vecs = np.zeros((4, 3))
    vecs[:, 1] = [0.5, -0.5, 0.5, -0.5]
    wide = SpectralState(np.array([0.0, 1.0, 2.0]), vecs)   # gap 1 > 4 eps
    mid = SpectralState(np.array([0.0, 0.03, 0.06]), vecs)  # gap 0.03
    tight = SpectralState(np.array([0.0, 0.01, 0.02]), vecs)
    y = np.eye(4)

    def rho(state, m, n):
        return score_one(state, y, m, n, cfg).rho[0]

    dv = 1.0
    assert rho(wide, 0, 1) == pytest.approx(math.sqrt(2) * eps * dv)
    assert rho(mid, 0, 1) == pytest.approx(2 * eps * dv)
    assert rho(tight, 0, 1) == pytest.approx(2 * eps)
    # equal Fiedler entries in the wide regime: zero bound
    assert rho(wide, 0, 2) == pytest.approx(0.0)


def test_fiedler_delta_bounds_true_change():
    # |lambda2(L) - lambda2(L - eps E)| <= rho in the wide-gap regime
    cfg = SolverConfig()
    eps = cfg.epsilon
    checked = 0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 12))
        g = random_connected_graph(rng, n)
        lap = build_laplacian(g)
        state = smallest_eigenpairs(lap, min(n, 4))
        if state.gap2 <= 4 * eps:
            continue
        (m, n2), w = next(iter(g.edges.items()))
        if w <= eps:
            continue
        e = np.zeros(n)
        e[m], e[n2] = 1.0, -1.0
        lam2_after = np.linalg.eigvalsh(lap - eps * np.outer(e, e))[1]
        drop = abs(state.fiedler_value - lam2_after)
        assert drop <= score_one(state, np.eye(n), m, n2, cfg, w).rho[0] + 1e-10
        checked += 1
    assert checked > 100


def test_sparsity_delta_boundary():
    # the score at mu is the score at mu = 0, less exactly mu where the step deletes
    cfg = SolverConfig(epsilon=0.01, mu=0.2)
    eps, mu = cfg.epsilon, cfg.mu
    state = smallest_eigenpairs(build_laplacian(complete_graph(4)), 3)
    y = np.eye(4)

    def pays(w):
        free = score_one(state, y, 0, 1, replace(cfg, mu=0.0), w).grad[0]
        score = score_one(state, y, 0, 1, cfg, w).grad[0]
        assert score in (free, free - mu), w
        return score != free

    assert not pays(0.5)
    assert not pays(eps + 1e-11)  # w - eps above WEIGHT_ZERO keeps the edge
    assert pays(eps + 1e-13)      # w - eps within WEIGHT_ZERO removes it
    assert pays(eps)              # w == eps removes it
    assert pays(0.5 * eps)


def weights_stepped_from_one(eps):
    """Each weight an edge of weight 1.0 holds before a step of `eps`, as
    `weaken_edge` computes them, until the step that deletes it."""
    g, ws = WeightedGraph(2, {(0, 1): 1.0}), []
    while g.edge_count:
        ws.append(g.weight(0, 1))
        g = weaken_edge(g, (0, 1), eps)
    return ws


def test_gain_is_paid_exactly_on_the_steps_that_delete():
    # every eps = i / 1000: the weights met from 1.0, w = eps, and two just
    # above it, one within WEIGHT_ZERO and one not. The score at mu is the
    # score at mu = 0 less mu on exactly the rows weaken_edge empties, and
    # the same bits elsewhere, including the last steps from 1.0 that
    # start at or above eps (eps = 0.1, 0.125, 0.2, 0.25 and 0.5)
    cfg = SolverConfig(mu=0.2)
    state = smallest_eigenpairs(build_laplacian(complete_graph(2)), 2)
    y = np.eye(2)
    at_or_above = set()
    for i in range(1, 1000):
        eps = i / 1000
        w_arr = np.array([*weights_stepped_from_one(eps), eps, eps + 1e-13, eps + 1e-11])
        deletes = np.array([weaken_edge(WeightedGraph(2, {(0, 1): w}), (0, 1), eps)
                            .edge_count == 0 for w in w_arr.tolist()])
        m_arr, n_arr = np.zeros(w_arr.shape, dtype=np.intp), np.ones(w_arr.shape, dtype=np.intp)
        got = score_gram(state, y, m_arr, n_arr, w_arr, replace(cfg, epsilon=eps)).grad
        free = score_gram(state, y, m_arr, n_arr, w_arr, replace(cfg, epsilon=eps, mu=0.0)).grad
        assert np.array_equal(got != free, deletes), eps
        assert got.tobytes() == np.where(deletes, free - cfg.mu, free).tobytes(), eps
        if (deletes[:-3] & (w_arr[:-3] >= eps)).any():
            at_or_above.add(eps)
    assert at_or_above == {0.1, 0.125, 0.2, 0.25, 0.5}


def test_score_edges_batch_invariant():
    # scoring a subset returns the same numbers as the full batch rows
    rng = np.random.default_rng(9)
    g = random_connected_graph(rng, 12)
    y = ObservationSet(rng.standard_normal((12, 6))).gram
    cfg = SolverConfig()
    state = smallest_eigenpairs(build_laplacian(g), 6)
    m_arr, n_arr, w_arr = g.edge_arrays()
    full = score_gram(state, y, m_arr, n_arr, w_arr, cfg)
    idx = np.arange(0, m_arr.shape[0], 2)
    sub = score_gram(state, y, m_arr[idx], n_arr[idx], w_arr[idx], cfg)
    assert np.array_equal(full.grad[idx], sub.grad)
    assert np.array_equal(full.eta[idx], sub.eta)


def _score_edges_reference(state, y, m_arr, n_arr, w_arr, cfg):
    """score_edges as first written: one gather per endpoint and use."""
    eps = cfg.epsilon
    diag = y.diagonal()
    z = 2.0 * y[m_arr, n_arr] - diag[m_arr] - diag[n_arr]
    if state.resolvent is not None:
        r = state.resolvent
        q = r[m_arr, m_arr] + r[n_arr, n_arr] - 2.0 * r[m_arr, n_arr]
    else:
        dv = state.eigvecs[m_arr, :] - state.eigvecs[n_arr, :]
        coeffs = 1.0 / (state.eigvals + cfg.alpha) - 1.0 / cfg.alpha
        q = (dv * dv * coeffs).sum(axis=1) + 2.0 / cfg.alpha
    eta = 1.0 - eps * q
    ok = eta > 0.0
    pen = np.full(eta.shape, np.inf)
    pen[ok] = -np.log(eta[ok])
    gap = state.gap2
    if gap > 4.0 * eps:
        rho = math.sqrt(2.0) * eps * np.abs(state.eigvecs[m_arr, 1] - state.eigvecs[n_arr, 1])
    elif gap > 2.0 * eps:
        rho = 2.0 * eps * np.abs(state.eigvecs[m_arr, 1] - state.eigvecs[n_arr, 1])
    else:
        rho = np.full(m_arr.shape, 2.0 * eps)
    gain = np.where(step_deletes(w_arr, eps), cfg.mu, 0.0)
    grad = eps * z + pen + cfg.gamma * rho - gain
    return EdgeScores(eta, rho, grad)


def _assert_bitwise_equal_to_reference(g, y, states):
    m_arr, n_arr, w_arr = g.edge_arrays()
    ineligible = set()
    for state in states:
        exact = state.resolvent is not None
        # step sizes on every side of the eigen-gap thresholds, and large
        # enough that some determinant factors go nonpositive (q >= 2 /
        # (lambda_k + alpha) when the majorizer is used or k == n, so the
        # last one makes every edge ineligible there)
        lam_k = float(state.eigvals[-1])
        alpha = SolverConfig().alpha
        for eps in (0.01, state.gap2 / 3.0, state.gap2, 0.4, 2.0 * (lam_k + alpha)):
            cfg = SolverConfig(epsilon=eps, exact_logdet=exact)
            got = score_gram(state, y, m_arr, n_arr, w_arr, cfg)
            ref = _score_edges_reference(state, y, m_arr, n_arr, w_arr, cfg)
            for name in ("eta", "rho", "grad"):
                assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
            ineligible.add(int(np.count_nonzero(~np.isfinite(got.grad))))
    assert 0 in ineligible and max(ineligible) > 0


@pytest.mark.parametrize("n, k", [(20, 3), (30, 6), (30, 7), (30, 8), (40, 12),
                                  (60, 24), (12, 12)])
def test_score_edges_bitwise_equal_to_reference(n, k):
    # k >= 8 reaches NumPy's pairwise row summation; k == n takes the
    # full dsyevd instead of dsyevr
    rng = np.random.default_rng(n + k)
    g = random_connected_graph(rng, n, density=0.6)
    y = ObservationSet(rng.standard_normal((n, k))).gram
    _assert_bitwise_equal_to_reference(g, y, [
        compute_state(g, SolverConfig(exact_logdet=exact), k) for exact in (False, True)])


def test_score_edges_bitwise_equal_to_reference_on_fallback_state(monkeypatch):
    patch_syevr(monkeypatch, info=1)
    rng = np.random.default_rng(11)
    g = random_connected_graph(rng, 30, density=0.6)
    y = ObservationSet(rng.standard_normal((30, 9))).gram
    states = [compute_state(g, SolverConfig(exact_logdet=exact), 9)
              for exact in (False, True)]
    # the full dsyevd's first k columns, Fortran-ordered as dsyevr's are
    assert all(state.eigvecs.flags.f_contiguous for state in states)
    _assert_bitwise_equal_to_reference(g, y, states)
    # the scores do not depend on the layout: C-ordered eigenvectors, and
    # strided ones that are neither C- nor Fortran-contiguous, give the same bits
    strided = np.repeat(states[0].eigvecs, 2, axis=1)[:, ::2]
    assert not strided.flags.c_contiguous and not strided.flags.f_contiguous
    for order in (np.ascontiguousarray, lambda v: np.repeat(v, 2, axis=1)[:, ::2]):
        _assert_bitwise_equal_to_reference(
            g, y, [replace(state, eigvecs=order(state.eigvecs)) for state in states])


def test_row_sums_bitwise_equal_to_numpy_row_sum():
    # every branch: a running sum (k < 8), 8 strided running sums and a
    # remainder (8 <= k <= 128), and recursive halves (k > 128)
    rng = np.random.default_rng(3)
    for k in [*range(1, 141), 200, 257, 300]:
        for e in (0, 1, 2, 37):
            a = rng.standard_normal((e, k)) * np.exp(rng.uniform(-40.0, 40.0, (e, k)))
            a[rng.random((e, k)) < 0.1] = -0.0
            a[rng.random((e, k)) < 0.1] = 0.0
            a[:1] = -0.0  # NumPy's row sum of -0.0 terms is +0.0
            want = a.sum(axis=1).tobytes()
            assert _row_sums(np.ascontiguousarray(a.T)).tobytes() == want, (k, e)
            assert _row_sums(a.T).tobytes() == want, (k, e)


@pytest.mark.parametrize("exact", [False, True])
def test_score_edges_on_empty_and_one_edge_batches(exact):
    rng = np.random.default_rng(2)
    g = random_connected_graph(rng, 10)
    y = ObservationSet(rng.standard_normal((10, 4))).gram
    state = compute_state(g, SolverConfig(exact_logdet=exact), 4)
    m_arr, n_arr, w_arr = g.edge_arrays()
    cfg = SolverConfig(exact_logdet=exact)
    empty = score_gram(state, y, m_arr[:0], n_arr[:0], w_arr[:0], cfg)
    for name in ("eta", "rho", "grad"):
        assert getattr(empty, name).shape == (0,), name
    assert greedy_step(WeightedGraph(10), state, cfg, np.empty(0)) is None
    full = score_gram(state, y, m_arr, n_arr, w_arr, cfg)
    for i in (0, m_arr.shape[0] - 1):
        one = score_gram(state, y, m_arr[i:i + 1], n_arr[i:i + 1], w_arr[i:i + 1], cfg)
        for name in ("eta", "rho", "grad"):
            assert getattr(one, name).tobytes() == getattr(full, name)[i:i + 1].tobytes()
        ref = _score_edges_reference(state, y, m_arr[i:i + 1], n_arr[i:i + 1],
                                     w_arr[i:i + 1], cfg)
        assert one.grad.tobytes() == ref.grad.tobytes()


def test_plain_log_is_bitwise_the_masked_log():
    # score_edges takes the plain log when every eta is positive; the
    # lengths cover NumPy's SIMD loop tails, the offsets unaligned starts
    rng = np.random.default_rng(29)
    lengths = [*range(1, 70), *(8 * j + r for j in (64, 127, 892) for r in range(8))]
    checked = 0
    for length in lengths:
        for offset in (0, 1):
            a = 10.0 ** rng.uniform(-300.0, 300.0, length + offset)
            a[rng.random(a.shape[0]) < 0.2] = rng.uniform(0.5, 1.0)  # eta's usual range
            a = a[offset:]
            masked = np.log(a, out=np.full(a.shape, -np.inf), where=a > 0.0)
            assert np.log(a).tobytes() == masked.tobytes(), (length, offset)
            checked += 1
    assert checked == 2 * len(lengths)


def test_ineligible_edges_take_the_masked_log_and_are_counted():
    # steps at which some determinant factors, majorized or exact, go
    # nonpositive, and an exact resolvent with a NaN at one node, whose
    # edges' eta is NaN
    rng = np.random.default_rng(6)
    g = random_connected_graph(rng, 12, density=0.3)
    y = ObservationSet(rng.standard_normal((12, 4))).gram
    m_arr, n_arr, w_arr = g.edge_arrays()
    for exact, eps, nan_node in ((False, 0.3, None), (True, 1.5, None), (True, 0.01, 5)):
        cfg = SolverConfig(epsilon=eps, exact_logdet=exact)
        state = compute_state(g, cfg, 4)
        if nan_node is not None:
            r = state.resolvent.copy()
            r[nan_node, nan_node] = np.nan
            state = replace(state, resolvent=r)
        terms = edge_terms(y, m_arr, n_arr, eps)
        trace = SolveTrace(ineligible=3)
        with np.errstate(all="raise"):  # a plain log of eta <= 0 would warn
            scores = score_edges(state, terms, m_arr, n_arr, w_arr, cfg, trace)
        bad = ~(scores.eta > 0.0)
        assert 0 < np.count_nonzero(bad) < bad.shape[0], exact
        assert np.isnan(scores.eta).any() == (nan_node is not None)
        assert (scores.grad[bad] == np.inf).all()
        assert np.isfinite(scores.grad[~bad]).all()
        ref = _score_edges_reference(state, y, m_arr, n_arr, w_arr, cfg)
        assert scores.grad.tobytes() == ref.grad.tobytes()
        assert trace.ineligible == 3 + np.count_nonzero(bad)
        # the same batch without a trace, or with every eta positive, counts nothing
        again = score_edges(state, terms, m_arr, n_arr, w_arr, cfg)
        assert again.grad.tobytes() == scores.grad.tobytes()
        ok = ~bad
        score_edges(state, terms[ok], m_arr[ok], n_arr[ok], w_arr[ok], cfg, trace)
        assert trace.ineligible == 3 + np.count_nonzero(bad)


def test_huge_steps_score_inf_without_a_warning():
    # eps q, eps z and gamma rho overflow, and gamma = 0 meets rho = inf:
    # every ineligible row still scores exactly +inf, counted once, and
    # neither the scoring nor a solve warns (pytest makes a warning an error)
    for n, k, eps, gamma in ((12, 4, 1e308, 0.5), (8, 2, 1e200, 1e300), (3, 1, 1e308, 0.0)):
        _, obs = draw_instance(n, k, "gmm", [0], 0.2, 0.5, 3.0, 3, 1.0)
        g = complete_graph(n)
        cfg = SolverConfig(epsilon=eps, gamma=gamma)
        m_arr, n_arr, w_arr = g.edge_arrays()
        state = compute_state(g, cfg, obs.k)
        trace = SolveTrace()
        scores = score_gram(state, obs.gram, m_arr, n_arr, w_arr, cfg, trace)
        assert not (scores.eta > 0.0).any(), n
        assert (scores.grad == np.inf).all(), n
        assert trace.ineligible == m_arr.shape[0]
        learned, solve = run_solver(g, obs, cfg)
        assert solve.stop_reason == "no_descent" and len(solve) == 0
        assert solve.ineligible == m_arr.shape[0] and learned.edge_count == g.edge_count


def test_objective_value_matches_direct_formula():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 12))
        g = random_connected_graph(rng, n)
        y = ObservationSet(rng.standard_normal((n, 5))).gram
        cfg = SolverConfig()
        lap = build_laplacian(g)
        ref = (np.trace(lap @ y)
               - np.linalg.slogdet(lap + cfg.alpha * np.eye(n))[1]
               - cfg.gamma * np.linalg.eigvalsh(lap)[1]
               + cfg.mu * g.edge_count)
        assert objective_value(g, y, cfg) == pytest.approx(ref, abs=1e-9)


def test_objective_value_takes_one_full_spectrum(monkeypatch):
    # log det(L + aI), its positive-definiteness check and l2 all come from
    # one smallest_eigenpairs call: no LU factorization, no second spectrum
    import fsgl.objective

    def forbidden(*args, **kwargs):
        raise AssertionError("objective_value called another LAPACK routine")
    rng = np.random.default_rng(3)
    cases = [(random_connected_graph(rng, n), ObservationSet(rng.standard_normal((n, 3))).gram)
             for n in (2, 7)]
    calls = counted_eigensolves(monkeypatch, fsgl.objective)
    for name in ("slogdet", "det", "eigvalsh", "eigvals"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    for g, y in cases:
        objective_value(g, y, SolverConfig())
    assert calls == [2, 7]


def test_objective_value_on_the_callers_laplacian_is_bitwise_the_same(monkeypatch):
    # a solve passes the Laplacian it holds; given one, none is built
    import fsgl.objective

    rng = np.random.default_rng(5)
    cfg = SolverConfig()
    graphs = [random_connected_graph(rng, n) for n in (2, 7, 12)]
    graphs += [WeightedGraph(2), WeightedGraph(6)]  # no edges: L = 0
    cases = [(g, ObservationSet(rng.standard_normal((g.n, 3))).gram, build_laplacian(g))
             for g in graphs]
    own = [objective_value(g, y, cfg) for g, y, _ in cases]

    def forbidden(g):
        raise AssertionError("objective_value built a Laplacian it was given")
    monkeypatch.setattr(fsgl.objective, "build_laplacian", forbidden)
    given = [objective_value(g, y, cfg, lap) for g, y, lap in cases]
    assert np.array(given).tobytes() == np.array(own).tobytes()


def test_objective_value_rejects_a_spectrum_at_minus_alpha(monkeypatch):
    # l_1 + alpha = 0 leaves L + alpha I singular: no log det to take
    import fsgl.objective
    cfg = SolverConfig()
    state = smallest_eigenpairs(build_laplacian(complete_graph(4)), 4)
    singular = SpectralState(state.eigvals - state.eigvals[0] - cfg.alpha, state.eigvecs)
    monkeypatch.setattr(fsgl.objective, "smallest_eigenpairs", lambda lap, k: singular)
    with pytest.raises(ValueError, match="not positive definite at alpha=0.5$"):
        objective_value(complete_graph(4), np.eye(4), cfg)


def log_det_term(g, alpha):
    """-objective_value with Y = 0, gamma = 0 and mu = 0: log det(L + aI)."""
    cfg = SolverConfig(alpha=alpha, gamma=0.0, mu=0.0)
    return -objective_value(g, np.zeros((g.n, g.n)), cfg)


@pytest.mark.parametrize("alpha", [1e-10, 1e-12])
def test_log_det_enters_the_zero_eigenvalue_as_exactly_zero(alpha):
    # the computed l_1 of K_30 is about 9e-16, not 0; summed as l_1 + a it
    # puts the term off by 8.9e-6 at a = 1e-10 and by 8.9e-4 at 1e-12
    g = complete_graph(30)
    lam = np.linalg.eigvalsh(build_laplacian(g))
    expected = math.log(alpha) + np.log(lam[1:] + alpha).sum()
    assert log_det_term(g, alpha) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_log_det_enters_one_log_alpha_per_component():
    # two triangles, then the same with an isolated node, then no edges
    alpha = 1e-10
    triangles = {(0, 1): 1.0, (0, 2): 2.0, (1, 2): 0.5, (3, 4): 1.5, (3, 5): 1.0, (4, 5): 1.0}
    for g, c in ((WeightedGraph(6, triangles), 2), (WeightedGraph(7, triangles), 3),
                 (WeightedGraph(4), 4)):
        lam = np.linalg.eigvalsh(build_laplacian(g))
        expected = c * math.log(alpha) + np.log(lam[c:] + alpha).sum()
        assert log_det_term(g, alpha) == pytest.approx(expected, rel=1e-12, abs=0.0)


# Two triangles whose computed l_2, one of L's two zero eigenvalues, is
# 1.5e-15 rather than 0 (1.1e-15 with a seventh, isolated node).
NOISY_TRIANGLES = {(0, 1): 1.8, (0, 2): 2.9, (1, 2): 0.9, (3, 4): 2.9, (3, 5): 1.3,
                   (4, 5): 1.6}


def test_fiedler_term_of_a_disconnected_graph_is_exactly_zero():
    # with c >= 2 components the Fiedler term reads l_2 = 0, as log det
    # reads l_1 ... l_c = 0, so gamma changes no bit of the objective
    for n in (6, 7):
        g = WeightedGraph(n, NOISY_TRIANGLES)
        y = ObservationSet(np.random.default_rng(n).standard_normal((n, 3))).gram
        assert smallest_eigenpairs(build_laplacian(g), n).fiedler_value != 0.0
        values = [objective_and_fiedler(g, y, SolverConfig(gamma=gamma))
                  for gamma in (0.0, 5.0, 50.0)]
        assert [lam2 for _, lam2 in values] == [0.0] * 3
        assert len({np.float64(h).tobytes() for h, _ in values}) == 1
        assert [objective_value(g, y, SolverConfig(gamma=gamma))
                for gamma in (0.0, 5.0, 50.0)] == [h for h, _ in values]


def test_objective_and_fiedler_reads_l2_of_a_connected_graph_from_its_spectrum():
    rng = np.random.default_rng(11)
    for n in (2, 5, 9):
        g = random_connected_graph(rng, n)
        y = ObservationSet(rng.standard_normal((n, 3))).gram
        h, lam2 = objective_and_fiedler(g, y, SolverConfig())
        assert lam2 == smallest_eigenpairs(build_laplacian(g), n).fiedler_value > 0.0
        assert h == objective_value(g, y, SolverConfig())


def deleting_instance():
    """(g, y): the 21-edge sparse start of a 12-node, 4-sample gmm draw,
    every weight set to eps, so that each edge's step deletes it."""
    _, obs = draw_instance(12, 4, "gmm", [0], 0.2, 0.5, 3.0, 3, 1.0)
    m_arr, n_arr, _ = init_sparse_graph(obs.gram, 10).edge_arrays()
    eps = SolverConfig().epsilon
    return WeightedGraph.from_arrays(12, m_arr, n_arr, np.full(m_arr.shape, eps)), obs.gram


def test_descent_soundness_single_step():
    # actual objective drop never exceeds the predicted score by > 1e-8
    cases = []
    for seed in range(15):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 14))
        g = random_connected_graph(rng, n)
        cases.append((g, ObservationSet(rng.standard_normal((n, 4))).gram, SolverConfig(),
                      min(n, 5), list(g.edges)[:4]))
    # every step deletes its edge, at three l0 weights: the score credits
    # the mu per edge the objective charges, so the least slack is the
    # same at every mu
    g, y = deleting_instance()
    for mu in (0.0, 0.2, 1.0):
        cases.append((g, y, SolverConfig(mu=mu), 5, list(g.edges)))
    slacks = []
    for g, y, cfg, k, edges in cases:
        state = smallest_eigenpairs(build_laplacian(g), k)
        before = objective_value(g, y, cfg)
        slack = math.inf
        for (m, n2) in edges:
            w = g.weight(m, n2)
            grad = score_one(state, y, m, n2, cfg, w).grad[0]
            g2 = weaken_edge(g, (m, n2), cfg.epsilon)
            if w - cfg.epsilon <= 0 and not np.isclose(w, cfg.epsilon):
                continue  # clamped partial step changes the accounting
            after = objective_value(g2, y, cfg)
            assert after - before <= grad + 1e-8
            slack = min(slack, grad - (after - before))
        slacks.append(slack)
    assert max(slacks[-3:]) - min(slacks[-3:]) <= 1e-9, slacks[-3:]


def test_objective_value_needs_two_nodes():
    # lambda2, and so the objective, is undefined on one node
    with pytest.raises(ValueError, match="at least two nodes: lambda2 is undefined"):
        objective_value(WeightedGraph(1), np.eye(1), SolverConfig())


def test_selection_picks_nothing_from_an_empty_batch_or_a_nan_minimum():
    # the pick is argmin's row, and argmin stops at the first NaN, so a
    # NaN anywhere is the row taken, and it fails the descent test
    m_arr, n_arr = np.array([0, 0, 1]), np.array([1, 2, 2])
    empty = np.array([], dtype=np.intp)
    assert selection(np.array([]), empty, empty) is None
    assert selection(np.array([-1.0, np.nan, -2.0]), m_arr, n_arr) is None
    assert selection(np.array([0.5, -2.0, -2.0]), m_arr, n_arr) == ((0, 2), -2.0, 1)


def test_smoothness_trace_sums_the_edge_terms():
    # tr(L Y) is -sum_e w_e z_e with z from edge_terms, and reads zero on no edges
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng, 9)
    y = ObservationSet(rng.standard_normal((9, 4))).gram
    m_arr, n_arr, w_arr = g.edge_arrays()
    assert smoothness_trace(g, y) == -float((w_arr * edge_terms(y, m_arr, n_arr, 1.0)).sum())
    assert smoothness_trace(g, y) == pytest.approx(np.trace(build_laplacian(g) @ y), rel=1e-12)
    assert smoothness_trace(WeightedGraph(9), y) == 0.0
