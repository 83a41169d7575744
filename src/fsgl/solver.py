"""Greedy edge-weakening solver and its recursive-selection variant.

Each iteration scores every candidate edge against an immutable spectral
snapshot, weakens the best-scoring edge while its score stays negative,
and refreshes the snapshot on a configurable cadence. Selection is either
an exhaustive scan (greedy) or the recursive Cheeger-cut decomposition
(recursive); both return the same edge, and its row, by construction.
A solve holds one `graph.Laplacian`, which a weakening step updates in
place at the selected row and from which each snapshot and both
objectives are taken. Only a step that deletes an edge builds a new one,
so a solve builds one per edge set; it returns the last one's graph.
What the edge set fixes (the score's term `edge_terms`, the recursive
arm's cut plan and connectedness) is computed once for the start graph; a
deletion drops its row from the first two (`np.delete`) and, while
connected, checks the third again: edges only go, so a disconnected set stays so.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import partition as _partition
from .errors import NonFiniteObjective
from .graph import (Laplacian, ObservationSet, WeightedGraph, build_laplacian, check_shift,
                    integer, is_connected, real)
from .objective import (edge_terms, fiedler_value, objective_and_fiedler, objective_value,
                        score_edges, selection)
from .spectral import SpectralState, smallest_eigenpairs

logger = logging.getLogger("fsgl.solver")

SOLVERS = ("greedy", "recursive")


@dataclass(frozen=True)
class SolverConfig:
    """Step size, objective weights, and solver knobs.

    budget_b, the start's edges beyond its tree, is 3N capped at the
    N(N-1)/2 - (N-1) pairs beyond it if None; `init_graph.default_budget`
    checks it (InvalidBudget). Any budget, 0 included, makes greedy start
    sparse. The snapshot keeps min(N, max(3, K)) eigenpairs for K samples.
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
        # Each field keeps the Python number its check returns, so a NumPy
        # scalar's fixed width never reaches the solve.
        for name in ("epsilon", "alpha", "gamma", "mu"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.gamma < 0 or self.mu < 0:
            raise ValueError("gamma and mu must be nonnegative")
        for name, low in (("refresh_interval", 1), ("max_iters", 0)):
            value = getattr(self, name)
            object.__setattr__(self, name, integer(value, name, ValueError))
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if not isinstance(self.exact_logdet, (bool, np.bool_)):
            raise ValueError(f"exact_logdet must be a bool, got {self.exact_logdet!r}")
        if self.solver_kind not in SOLVERS:
            raise ValueError(f"unknown solver_kind {self.solver_kind!r}")


# One accepted step, in `SolveTrace.append`'s argument order (48 bytes).
_ROW = np.dtype([("edges_mn", np.int64, (2,)), ("grad_h", np.float64),
                 ("lambda2", np.float64), ("edge_counts", np.int64), ("ms", np.float64)])


def _field_view(name: str) -> property:
    def rows(self) -> np.ndarray:
        view = self._buf[:self._rows][name]
        view.flags.writeable = False
        return view
    return property(rows)


@dataclass(eq=False)
class SolveTrace:
    """Per-iteration log of the solve: one row per accepted step.

    The rows live in one structured buffer; each field reads as a
    read-only array of length len(trace): `edges_mn` (S, 2) int64, the
    weakened edge (m, n); `grad_h` float64, its score; `lambda2` float64,
    the Fiedler value of the snapshot it was scored on, 0.0 if the
    snapshot's edge set is disconnected; `edge_counts` int64, the edge
    count after the step; and `ms` float64, the solve's clock after the
    step. Storage starts at 64 rows and doubles when full.

    stop_reason is "no_descent" when no edge scored below zero (converged)
    and "max_iters" when the step cap ended the solve first. eigensolves
    counts snapshots, each taken for a step that will be scored. ineligible
    sums the edges scored +inf (step too large) over all steps.
    final_lambda2 is the learned graph's Fiedler value, from the final
    objective's full spectrum; it and `lambda2` follow
    `objective.fiedler_value`. phase_ms splits the solve's time after the
    initial objective, so it leaves out that start Laplacian: "eigensolve"
    (snapshots), "select" (scoring and selection), "rebuild" (what the
    edge set fixes, once per solve and again at each deletion, with that
    deletion's new Laplacian) and "mutate" (in-place weakening steps).
    """

    initial_objective: float = float("nan")
    final_objective: float = float("nan")
    final_lambda2: float = float("nan")
    stop_reason: str = "max_iters"
    eigensolves: int = 0
    ineligible: int = 0
    phase_ms: dict[str, float] = field(default_factory=lambda: dict.fromkeys(
        ("eigensolve", "select", "rebuild", "mutate"), 0.0))
    _rows: int = field(default=0, init=False, repr=False)
    _buf: np.ndarray = field(default_factory=lambda: np.empty(64, _ROW), init=False, repr=False)

    edges_mn = _field_view("edges_mn")
    grad_h = _field_view("grad_h")
    lambda2 = _field_view("lambda2")
    edge_counts = _field_view("edge_counts")
    ms = _field_view("ms")

    @property
    def converged(self) -> bool:
        return self.stop_reason == "no_descent"

    def append(self, edge, grad, lam2, n_edges, elapsed_ms):
        i = self._rows
        if i == self._buf.shape[0]:  # copy into 2i rows; no temporary half
            self._buf, old = np.empty(2 * i, _ROW), self._buf
            self._buf[:i] = old
        self._buf[i] = (edge, grad, lam2, n_edges, elapsed_ms)
        self._rows = i + 1

    def __len__(self):
        return self._rows

    def to_csv(self, path):
        # tolist() gives Python scalars, whose reprs carry no "np." prefix
        with open(path, "w") as fh:
            fh.write("iter,m,n,grad_h,lambda2,edges,ms\n")
            for i, ((m, n), grad, lam2, n_edges, ms) in enumerate(
                    self._buf[:self._rows].tolist(), 1):
                fh.write(f"{i},{m},{n},{grad!r},{lam2!r},{n_edges},{ms:.3f}\n")


def compute_state(g: WeightedGraph, cfg: SolverConfig, k_obs: int) -> SpectralState:
    """Fresh spectral snapshot for scoring: min(N, max(3, K)) eigenpairs.
    Under cfg.exact_logdet they are the lowest of the full spectrum
    L = V diag(l) V^T, which also gives the exact resolvent
    (L + alpha I)^{-1} = V diag(1 / (l + alpha)) V^T, once
    `graph.check_shift` has refused an alpha lost in rounding. A solve
    checks alpha only in its two objectives: weakening never raises a
    diagonal entry, so the check's tolerance only shrinks as it runs."""
    lap = build_laplacian(g)
    if cfg.exact_logdet:
        check_shift(lap, cfg.alpha, "alpha")
    return _snapshot(lap, cfg, eigenpair_count(g.n, k_obs))


def eigenpair_count(n: int, k_obs: int) -> int:
    """Eigenpairs a snapshot of n nodes retains for k_obs observations."""
    return min(n, max(3, k_obs))


def _snapshot(lap: np.ndarray, cfg: SolverConfig, k: int) -> SpectralState:
    if not cfg.exact_logdet:
        return smallest_eigenpairs(lap, k)
    full = smallest_eigenpairs(lap, lap.shape[0])
    v = full.eigvecs
    return SpectralState(full.eigvals[:k], v[:, :k], (v / (full.eigvals + cfg.alpha)) @ v.T)


def greedy_step(g: WeightedGraph, state: SpectralState, cfg: SolverConfig, terms: np.ndarray,
                trace=None) -> tuple[tuple[int, int], float, int] | None:
    """Exhaustive scan for the edge with the most negative score.

    Returns ((m, n), grad, row), or None once no edge scores below zero
    (converged); `selection` makes the pick, ties to the smallest (m, n).
    `terms` and `trace` are as in `score_edges`: ineligible edges
    (determinant factor would go nonpositive) are skipped and counted.
    """
    m_arr, n_arr, w_arr = g.edge_arrays()
    return selection(score_edges(state, terms, m_arr, n_arr, w_arr, cfg, trace).grad,
                     m_arr, n_arr)


def run_solver(g0: WeightedGraph, obs: ObservationSet,
               cfg: SolverConfig) -> tuple[WeightedGraph, SolveTrace]:
    """Weaken edges until no step lowers the objective bound.

    A step whose count of earlier steps is a multiple of r =
    cfg.refresh_interval first takes a fresh spectral snapshot, so a solve
    runs ceil(max_iters / r) eigensolves if capped, 1 + steps // r if
    converged. With the default r = 1 each step is scored against a fresh
    snapshot, which is what the descent guarantee assumes.
    The exact objective is computed for the initial and final graphs only,
    the final one with the learned graph's Fiedler value; the first refuses
    one node, and raises NonFiniteObjective unless it is finite.
    """
    if g0.n != obs.n:
        raise ValueError(f"start graph has {g0.n} nodes but the observations "
                         f"have {obs.n} rows")
    y = obs.gram
    trace = SolveTrace()
    # An overflow here is NonFiniteInput or NonFiniteObjective, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        lap = Laplacian(g0)
        trace.initial_objective = objective_value(g0, y, cfg, lap.lap)
    if not np.isfinite(trace.initial_objective):
        raise NonFiniteObjective(
            f"initial objective is {float(trace.initial_objective)!r}; the graph's "
            f"weights, the observations, gamma={cfg.gamma!r} or mu={cfg.mu!r} are too large")

    phase_ms = trace.phase_ms

    def charge(phase: str, since: float) -> float:
        now = time.perf_counter()
        phase_ms[phase] += (now - since) * 1e3
        return now

    t0 = time.perf_counter()
    terms = edge_terms(y, *lap.g.edge_arrays()[:2], cfg.epsilon)
    k = eigenpair_count(g0.n, obs.k)
    recursive = cfg.solver_kind == "recursive"
    plan = _partition.cut_plan(lap.g, _partition.LEAF_NODES) if recursive else None
    connected = is_connected(lap.g)
    t = charge("rebuild", t0)
    while len(trace) < cfg.max_iters:
        if len(trace) % cfg.refresh_interval == 0:
            state = _snapshot(lap.lap, cfg, k)
            lambda2 = fiedler_value(state, connected)
            trace.eigensolves += 1
            t = charge("eigensolve", t)
        if recursive:
            sel = _partition.partition_select(lap.g, state, cfg, terms, plan, trace)
        else:
            sel = greedy_step(lap.g, state, cfg, terms, trace)
        t = charge("select", t)
        if sel is None:
            trace.stop_reason = "no_descent"
            break
        edge, grad_h, row = sel
        weakened = lap.weaken(row, cfg.epsilon)
        if weakened is lap:
            t = charge("mutate", t)
        else:
            lap = weakened
            connected = connected and is_connected(lap.g)
            terms = np.delete(terms, row)
            if recursive:
                plan = np.delete(plan, row)
            t = charge("rebuild", t)
        trace.append(edge, grad_h, lambda2, lap.g.edge_count, (t - t0) * 1e3)

    trace.final_objective, trace.final_lambda2 = objective_and_fiedler(lap.g, y, cfg, lap.lap)
    if trace.ineligible:
        logger.warning("step too large for %d edge score(s); skipped", trace.ineligible)
    if len(trace) == 0 and trace.converged:
        logger.warning("no edge descends from the initial graph; returned unchanged")
    if not trace.converged:
        logger.warning("max_iters = %d ended the solve after %d steps with %d edges left",
                       cfg.max_iters, len(trace), lap.g.edge_count)
    logger.info("%s solve: %d steps, stop=%s, %d eigensolves", cfg.solver_kind,
                len(trace), trace.stop_reason, trace.eigensolves)
    return lap.g, trace
