"""Greedy edge-weakening solver and its recursive-selection variant.

Each iteration scores every candidate edge against an immutable spectral
snapshot, weakens the best-scoring edge while its score stays negative,
and refreshes the snapshot on a configurable cadence. Selection is either
an exhaustive scan (greedy) or the recursive Cheeger-cut decomposition
(recursive); both return the same edge by construction. Next to the
snapshot the solver keeps what the edge set fixes (scoring terms, the
recursive arm's cut plan), rebuilt only when an edge goes.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import partition as _partition
from .errors import NonFiniteObjective
from .graph import ObservationSet, WeightedGraph, build_laplacian, weaken_edge
from .objective import (best_scored, count_ineligible, edge_terms, objective_value,
                        score_edges)
from .spectral import SpectralState, smallest_eigenpairs

logger = logging.getLogger("fsgl.solver")

SOLVERS = ("greedy", "recursive")


@dataclass(frozen=True)
class SolverConfig:
    """Step size, objective weights, and solver knobs.

    budget_b defaults to 3N extra edges when left as None. The spectral
    snapshot retains min(N, max(3, K)) eigenpairs for K observations.
    The recursive arm's leaf size is fixed at partition.LEAF_NODES: it
    shapes the cut plan but never the selected edge.
    """

    epsilon: float = 0.01
    alpha: float = 0.5
    gamma: float = 0.5
    mu: float = 0.2
    budget_b: int | None = None
    refresh_interval: int = 1
    max_iters: int = 20000
    solver_kind: str = "greedy"
    exact_logdet: bool = False

    def __post_init__(self):
        for name in ("epsilon", "alpha", "gamma", "mu"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.gamma < 0 or self.mu < 0:
            raise ValueError("gamma and mu must be nonnegative")
        for name, low in (("budget_b", 0), ("refresh_interval", 1), ("max_iters", 0)):
            value = getattr(self, name)
            if value is None and name == "budget_b":
                continue
            if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
                    or value < low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.solver_kind not in SOLVERS:
            raise ValueError(f"unknown solver_kind {self.solver_kind!r}")


@dataclass
class SolveTrace:
    """Per-iteration log of the solve: one row per accepted step.

    stop_reason is "no_descent" when no edge scored below zero (converged)
    and "max_iters" when the step cap ended the solve first. ineligible
    sums the edges scored +inf (step too large) over all steps.
    """

    edges_mn: list[tuple[int, int]] = field(default_factory=list)
    grad_h: list[float] = field(default_factory=list)
    lambda2: list[float] = field(default_factory=list)
    edge_counts: list[int] = field(default_factory=list)
    ms: list[float] = field(default_factory=list)
    initial_objective: float = float("nan")
    final_objective: float = float("nan")
    stop_reason: str = "max_iters"
    eigensolves: int = 0
    ineligible: int = 0

    @property
    def converged(self) -> bool:
        return self.stop_reason == "no_descent"

    def append(self, edge, grad, lam2, n_edges, elapsed_ms):
        self.edges_mn.append(edge)
        self.grad_h.append(grad)
        self.lambda2.append(lam2)
        self.edge_counts.append(n_edges)
        self.ms.append(elapsed_ms)

    def __len__(self):
        return len(self.grad_h)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("iter,m,n,grad_h,lambda2,edges,ms\n")
            for i in range(len(self)):
                m, n = self.edges_mn[i]
                fh.write(
                    f"{i + 1},{m},{n},{self.grad_h[i]!r},{self.lambda2[i]!r},"
                    f"{self.edge_counts[i]},{self.ms[i]:.3f}\n"
                )


def compute_state(g: WeightedGraph, cfg: SolverConfig, k_obs: int) -> SpectralState:
    """Fresh spectral snapshot for scoring: min(N, max(3, K)) eigenpairs,
    and (L + alpha I)^{-1} under cfg.exact_logdet."""
    lap = build_laplacian(g)
    state = smallest_eigenpairs(lap, min(g.n, max(3, k_obs)))
    if cfg.exact_logdet:
        state = replace(state, resolvent=np.linalg.inv(lap + cfg.alpha * np.eye(g.n)))
    return state


def greedy_step(g: WeightedGraph, y: np.ndarray, state: SpectralState, cfg: SolverConfig,
                terms=None, trace=None) -> tuple[tuple[int, int], float] | None:
    """Exhaustive scan for the edge with the most negative score.

    Returns ((m, n), grad), or None once no edge scores below zero
    (converged). Ties break on the lexicographically smallest (m, n);
    ineligible edges (determinant factor would go nonpositive) are skipped
    and counted into `trace`.
    """
    m_arr, n_arr, w_arr = g.edge_arrays()
    scores = score_edges(state, y, m_arr, n_arr, w_arr, cfg, terms)
    count_ineligible(trace, scores.grad)
    return best_scored(scores, m_arr, n_arr)


def run_solver(g0: WeightedGraph, obs: ObservationSet,
               cfg: SolverConfig) -> tuple[WeightedGraph, SolveTrace]:
    """Weaken edges until no step lowers the objective bound.

    The spectral snapshot refreshes every cfg.refresh_interval accepted
    steps; with the default interval of 1 each accepted step is scored
    against a fresh snapshot, which is what the descent guarantee assumes.
    The exact objective is computed for the initial and final graphs only;
    a starting graph whose objective is not finite raises NonFiniteObjective.
    """
    if g0.n != obs.n:
        raise ValueError(f"start graph has {g0.n} nodes but the observations "
                         f"have {obs.n} rows")
    if g0.n < 2:
        raise ValueError("need at least two nodes")
    y = obs.gram
    g = g0
    trace = SolveTrace()
    # An overflow here is reported as NonFiniteObjective, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        trace.initial_objective = objective_value(g, y, cfg)
    if not np.isfinite(trace.initial_objective):
        raise NonFiniteObjective(
            f"initial objective is {float(trace.initial_objective)!r}; the "
            f"graph's weights or the observations are too large")

    t0 = time.perf_counter()
    state = compute_state(g, cfg, obs.k)
    trace.eigensolves += 1
    # A solve only deletes edges, so the edge count names the edge set.
    terms, plan, context_edges = None, None, -1
    accepted = 0
    while accepted < cfg.max_iters:
        if g.edge_count != context_edges:
            m_arr, n_arr, _ = g.edge_arrays()
            terms, context_edges = edge_terms(y, m_arr, n_arr, cfg.epsilon), g.edge_count
            if cfg.solver_kind == "recursive":
                plan = _partition.cut_plan(g, _partition.LEAF_NODES)
        if cfg.solver_kind == "recursive":
            sel = _partition.partition_select(g, state, obs, cfg, plan, terms, trace)
        else:
            sel = greedy_step(g, y, state, cfg, terms, trace)
        if sel is None:
            trace.stop_reason = "no_descent"
            break
        edge, grad = sel
        g = weaken_edge(g, edge, cfg.epsilon)
        accepted += 1
        trace.append(edge, grad, state.fiedler_value,
                     g.edge_count, (time.perf_counter() - t0) * 1e3)
        if accepted % cfg.refresh_interval == 0:
            state = compute_state(g, cfg, obs.k)
            trace.eigensolves += 1

    trace.final_objective = objective_value(g, y, cfg)
    if trace.ineligible:
        logger.warning("step too large for %d edge score(s); skipped", trace.ineligible)
    if accepted == 0 and trace.converged:
        logger.warning("no edge descends from the initial graph; returned unchanged")
    logger.info("%s solve: %d steps, stop=%s, %d eigensolves", cfg.solver_kind,
                accepted, trace.stop_reason, trace.eigensolves)
    return g, trace
