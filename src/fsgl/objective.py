"""Per-edge scoring of a candidate weakening and the exact objective.

A weakening step on edge (m, n) changes the objective through four
channels: the smoothness trace (exact, linear in the step), the log
determinant (bounded via a rank-1 determinant identity with a majorized
quadratic form), the Fiedler value (bounded by an eigenvalue perturbation
argument), and the off-diagonal l0 sparsity term, which pays mu on the
step that `graph.step_deletes` says removes the edge. `score_edges` combines
them into the greedy score for a batch of edges, the only place the score
is computed, and returns it with its two bounded terms (`EdgeScores`); the
two exact ones are `edge_terms`, the part fixed by the edge set, and mu;
`selection` makes both selectors' pick from a batch's scores, with the
one descent rule; and `objective_and_fiedler` recomputes the
exact objective for monitoring, and the Fiedler value it used by the one
rule for l2 (`fiedler_value`), from the Laplacian a solve holds
(`objective_value` keeps the first). The log-det term takes alpha from
the config and the exact resolvent, when there is one, from the snapshot.
`score_edges` works eigen-major: it gathers each retained eigenvector at
the batch's endpoints into a (k, E) array, and `_row_sums` adds every
edge's k terms in the order a per-edge row sum would, so the scores are
bitwise those of the per-edge (E, k) form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import (WeightedGraph, build_laplacian, check_shift, component_labels,
                    step_deletes)
from .spectral import SpectralState, smallest_eigenpairs

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class EdgeScores:
    """A batch's scores `grad` and the two bounded terms in them, eta and rho."""

    eta: np.ndarray
    rho: np.ndarray
    grad: np.ndarray


def edge_terms(y: np.ndarray, m_arr: np.ndarray, n_arr: np.ndarray, eps: float) -> np.ndarray:
    """eps z, z = 2 Y_mn - Y_mm - Y_nn: each edge's exact tr(LY) change per step."""
    diag = y.diagonal()
    with np.errstate(over="ignore"):  # past the float range, eps z reads -inf quietly
        return eps * (2.0 * y[m_arr, n_arr] - diag[m_arr] - diag[n_arr])


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sum the k rows of a (k, E) array into E column sums.

    Each column's k terms are added in the order `ndarray.sum(axis=1)`
    adds a row of the (E, k) transpose (NumPy's pairwise summation), so
    the sums are bitwise the same: one running sum below 8 terms; from 8
    to 128 terms, 8 running sums over stride-8 rows, combined pairwise,
    then the remainder; above 128, the halves (rounded down to a multiple
    of 8) summed apart and added. Every step runs over all E columns at
    once.
    """
    k = a.shape[0]
    if k < 8:
        return np.add.reduce(a, axis=0)
    if k > 128:
        half = k // 2 - (k // 2) % 8
        return _row_sums(a[:half]) + _row_sums(a[half:])
    top = k - k % 8
    # r[j] runs over rows j, j + 8, j + 16, ... (the reduced axis stays
    # outermost, so each column is a running sum).
    r = np.add.reduce(a[:top].reshape(top // 8, 8, a.shape[1]), axis=0)
    s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for row in a[top:]:
        s += row
    # NumPy adds the row's sum to its identity, 0.0, which turns -0.0 into
    # +0.0 and changes nothing else.
    s += 0.0
    return s


def score_edges(state: SpectralState, y: np.ndarray, m_arr: np.ndarray,
                n_arr: np.ndarray, w_arr: np.ndarray, cfg, terms=None,
                trace=None) -> EdgeScores:
    """Score a batch of edges against one immutable spectral snapshot.

    grad = eps z - log(eta) + gamma rho - mu for weakening each edge by
    eps. eps z is the exact trace change (`edge_terms`). eta = 1 - eps q,
    with q the quadratic form of (L + alpha I)^{-1} on e_m - e_n, alpha =
    cfg.alpha: exact from the state's resolvent when it carries one (under
    cfg.exact_logdet each solver snapshot attaches it, from the full
    spectrum), else majorized over the retained eigenpairs; either way
    -log(eta) does not underestimate the log-det penalty. rho bounds the
    Fiedler value's drop: sqrt(2) eps |v2_m - v2_n| when the eigen-gap
    exceeds 4 eps, 2 eps |v2_m - v2_n| when it exceeds 2 eps, else 2 eps.
    mu is subtracted, in place, on exactly the rows whose step removes the
    edge by the rule `graph.step_deletes` that `weaken_edge` applies: the
    mu per edge the objective charges (`objective_and_fiedler`). A
    negative grad therefore certifies descent.

    A step too large for an edge (eta <= 0, or NaN) is not an error: that
    edge gets grad = +inf exactly, whatever its other terms overflow to, and
    no overflow warns; it is added to `trace.ineligible` when a trace is
    given, and the solve warns once. The quadratic form runs eigen-major,
    on (k, E) arrays gathered per eigenpair, and `_row_sums` adds each
    edge's k terms in the order a per-edge row sum would, so scores do not
    depend on how the batch is partitioned. `terms`, if given, is
    edge_terms(y, m_arr, n_arr, cfg.epsilon); the bits are the same.
    """
    eps = cfg.epsilon
    ez = edge_terms(y, m_arr, n_arr, eps) if terms is None else terms
    # LAPACK returns eigenvectors Fortran-ordered, so the transpose is a
    # C-ordered view and each eigenpair's row gathers contiguously.
    vt = state.eigvecs.T
    dv = vt.take(m_arr, axis=1)
    dv -= vt.take(n_arr, axis=1)

    gap = state.gap2
    if gap > 2.0 * eps:
        rho = np.abs(dv[1])
        rho *= SQRT2 * eps if gap > 4.0 * eps else 2.0 * eps
    else:
        rho = np.full(m_arr.shape, 2.0 * eps)

    # The tail runs in place on fresh arrays, with the bits of
    # rho = c * |dv2|, q = sum + 2 / alpha and eta = 1 - eps * q.
    r = state.resolvent
    if r is not None:
        q = r[m_arr, m_arr] + r[n_arr, n_arr] - 2.0 * r[m_arr, n_arr]
    else:
        dv *= dv
        dv *= (1.0 / (state.eigvals + cfg.alpha) - 1.0 / cfg.alpha)[:, None]
        q = _row_sums(dv)
        q += 2.0 / cfg.alpha
    # grad = eps z - log(eta) + gamma rho - mu. Every eta = 1 - eps q is
    # positive exactly when eps max(q) < 1, since a product rounds
    # monotonically (a Python one overflows to inf without a warning).
    if q.shape[0] and eps * float(q.max()) < 1.0:
        q *= eps
        eta = np.subtract(1.0, q, out=q)
        grad = np.log(eta)
        np.subtract(ez, grad, out=grad)
        grad += cfg.gamma * rho
    else:
        # A step too large for some edge (or a NaN, or an empty batch). A
        # step that large can overflow eps q and gamma rho, and an infinite
        # term meet -inf or 0, so the sum runs quietly and the ineligible rows
        # get +inf last. Where the masked log writes, its bits are the plain log's.
        with np.errstate(over="ignore", invalid="ignore"):
            q *= eps
            eta = np.subtract(1.0, q, out=q)
            ineligible = ~(eta > 0.0)
            grad = np.log(eta, out=np.zeros(eta.shape), where=~ineligible)
            np.subtract(ez, grad, out=grad)
            grad += cfg.gamma * rho
        grad[ineligible] = np.inf
        if trace is not None:
            trace.ineligible += int(np.count_nonzero(ineligible))
    np.subtract(grad, cfg.mu, out=grad, where=step_deletes(w_arr, eps))
    return EdgeScores(eta, rho, grad)


def selection(grad: np.ndarray, m_arr: np.ndarray,
              n_arr: np.ndarray) -> tuple[tuple[int, int], float, int] | None:
    """Both selectors' pick from a scored batch: ((m, n), grad[i], i) for
    argmin's row i, the first at the lowest (score, m, n), or None for an
    empty batch and unless that score is finite and negative (a NaN is
    argmin's row, so it selects nothing)."""
    if grad.shape[0] == 0:
        return None
    i = int(grad.argmin())
    score = float(grad[i])
    if not -math.inf < score < 0.0:
        return None
    return (int(m_arr[i]), int(n_arr[i])), score, i


def smoothness_trace(g: WeightedGraph, y: np.ndarray) -> float:
    """tr(L Y) = -sum_e w_e z_e over the edge support, z from `edge_terms`."""
    m_arr, n_arr, w_arr = g.edge_arrays()
    return -float((w_arr * edge_terms(y, m_arr, n_arr, 1.0)).sum())


def fiedler_value(state: SpectralState, connected: bool) -> float:
    """A graph's l2 from a spectrum of its Laplacian: the computed l_2 when
    the graph is connected, exactly 0.0 when not, never a zero's rounding noise."""
    return state.fiedler_value if connected else 0.0


def objective_and_fiedler(g: WeightedGraph, y: np.ndarray, cfg,
                          lap=None) -> tuple[float, float]:
    """(h, l2): the exact objective h = tr(LY) - log det(L + aI) - gamma l2
    + mu |E| and the Fiedler value l2 it used, from one full spectrum
    l_1 <= ... <= l_N of L, once `graph.check_shift` has refused an alpha
    lost in rounding against l_1 = 0. L has exactly one zero eigenvalue per
    connected component, and `component_labels` counts the c components:
    log det = c log a + sum_{i>c} log(l_i + a) and l2 = fiedler_value(state,
    c == 1), so neither term reads the rounding noise of a zero eigenvalue.
    The check l_1 + a > 0 stays as a safeguard. |E| counts each edge once,
    so a deletion lowers the l0 term by the mu `score_edges` credits it.
    Monitoring only, never in the scoring loop.
    `lap`, if given, is build_laplacian(g), as a solve holds it; same bits."""
    if g.n < 2:
        raise ValueError("need at least two nodes: lambda2 is undefined")
    lap = build_laplacian(g) if lap is None else lap
    check_shift(lap, cfg.alpha, "alpha")
    state = smallest_eigenpairs(lap, g.n)
    m_arr, n_arr, _ = g.edge_arrays()
    c = int(np.count_nonzero(component_labels(g.n, m_arr, n_arr) == np.arange(g.n)))
    shifted = state.eigvals + cfg.alpha
    if not shifted[0] > 0:
        raise ValueError(f"L + alpha I is not positive definite at alpha={cfg.alpha!r}")
    logdet = c * math.log(cfg.alpha) + np.log(shifted[c:]).sum()
    lambda2 = fiedler_value(state, c == 1)
    h = smoothness_trace(g, y) - logdet - cfg.gamma * lambda2
    return h + cfg.mu * g.edge_count, lambda2


def objective_value(g: WeightedGraph, y: np.ndarray, cfg, lap=None) -> float:
    """The exact objective alone: `objective_and_fiedler`'s first value."""
    return objective_and_fiedler(g, y, cfg, lap)[0]
