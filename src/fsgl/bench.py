"""Benchmark harness: generate, solve, and tabulate recovery metrics.

Each cell of the sweep is (generator, solver, sample ratio, trial). The
data for a cell is derived only from (seed, generator, ratio, trial), so
both solvers see identical instances and wall-clock comparisons are
fair. Each cell starts from `init_graph.initial_graph`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .datagen import GENERATORS, check_instance, draw_instance, sample_count
from .errors import FsglError, NonFiniteInput, ZeroReference
from .graph import WeightedGraph, integer, real
from .init_graph import check_start, default_budget, initial_graph
from .solver import SOLVERS, SolverConfig, run_solver


def check_reference(w_star: WeightedGraph, source: str = "reference graph") -> float:
    """Frobenius norm of a reference adjacency: ZeroReference when it is 0
    (weights whose squares underflow leave nothing to divide by), and
    NonFiniteInput when it overflows (every error would read 0)."""
    with np.errstate(over="ignore"):
        denom = float(np.linalg.norm(w_star.adjacency()))
    if denom == 0.0:
        raise ZeroReference(f"{source} has no edges")
    if not np.isfinite(denom):
        raise NonFiniteInput(f"{source}'s Frobenius norm overflows: its weights are too large")
    return denom


def relative_error(w_hat: WeightedGraph, w_star: WeightedGraph) -> float:
    """Frobenius recovery error of the learned adjacency, relative."""
    if w_hat.n != w_star.n:
        raise ValueError("graphs must share the node set")
    denom = check_reference(w_star)
    return float(np.linalg.norm(w_hat.adjacency() - w_star.adjacency()) / denom)


@dataclass(frozen=True)
class BenchCell:
    """One benchmark run, with its solve's accepted `steps` and `stop`
    reason; a failed cell has 0, "" and a non-empty `error`."""

    generator: str
    solver: str
    ratio: float
    trial: int
    re: float
    lambda2: float
    edges: int
    ms: float
    steps: int = 0
    stop: str = ""
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.error == ""


@dataclass(frozen=True)
class SummaryRow:
    generator: str
    solver: str
    ratio: float
    re_mean: float
    re_std: float
    lambda2_mean: float
    lambda2_std: float
    edges_mean: float
    edges_std: float
    ms_mean: float
    ms_std: float
    failed: int
    zero_step: int
    max_iters: int


def _columns(cls) -> list:
    """The CSV columns of a bench dataclass: every field but `error`."""
    return [f for f in fields(cls) if f.name != "error"]


def _header(cls) -> str:
    return ",".join(f.name for f in _columns(cls))


def _csv(cls, rows) -> str:
    """Header, then one line per row: repr for float fields, str otherwise."""
    cols = _columns(cls)
    lines = [_header(cls)]
    for r in rows:
        lines.append(",".join(repr(float(getattr(r, f.name))) if f.type == "float"
                              else str(getattr(r, f.name)) for f in cols))
    return "\n".join(lines) + "\n"


RAW_HEADER = _header(BenchCell)
SUMMARY_HEADER = _header(SummaryRow)


@dataclass
class BenchReport:
    cells: list[BenchCell]

    def raw_csv(self) -> str:
        return _csv(BenchCell, self.cells)

    def summary(self) -> list[SummaryRow]:
        """Mean and std of every cell metric `x` SummaryRow holds as `x_mean`,
        over the ok cells of each (generator, solver, ratio) group; how many
        cells failed, and how many ok solves took no step or hit max_iters."""
        names = {f.name for f in fields(SummaryRow)}
        keys = [f.name for f in fields(BenchCell) if f.name in names]
        metrics = [f.name for f in fields(BenchCell) if f"{f.name}_mean" in names]
        groups: dict[tuple, list[BenchCell]] = {}
        for c in self.cells:
            groups.setdefault(tuple(getattr(c, k) for k in keys), []).append(c)
        rows = []
        for key, cs in groups.items():
            ok = [c for c in cs if c.ok]
            stats = {}
            for m in metrics:
                vals = [getattr(c, m) for c in ok]
                stats[f"{m}_mean"] = float(np.mean(vals)) if ok else float("nan")
                stats[f"{m}_std"] = float(np.std(vals)) if ok else float("nan")
            rows.append(SummaryRow(**dict(zip(keys, key)), **stats, failed=len(cs) - len(ok),
                                   zero_step=sum(c.steps == 0 for c in ok),
                                   max_iters=sum(c.stop == "max_iters" for c in ok)))
        return rows

    def summary_csv(self) -> str:
        return _csv(SummaryRow, self.summary())

    def table(self) -> str:
        lines = [f"{'generator':<10}{'solver':<11}{'ratio':>6}  "
                 f"{'re (mean+/-std)':>22}  {'lambda2':>9}  {'edges':>7}  "
                 f"{'ms':>10}  {'failed':>6}  {'0-step':>6}  {'max_iters':>9}"]
        for r in self.summary():
            re_col = f"{r.re_mean:.4f} +/- {r.re_std:.4f}"
            lines.append(f"{r.generator:<10}{r.solver:<11}{r.ratio:>6.2f}  "
                         f"{re_col:>22}  {r.lambda2_mean:>9.4f}  "
                         f"{r.edges_mean:>7.1f}  {r.ms_mean:>10.1f}  "
                         f"{r.failed:>6d}  {r.zero_step:>6d}  {r.max_iters:>9d}")
        return "\n".join(lines) + "\n"


def timed_solve(obs, cfg: SolverConfig):
    """(g, trace, ms): `run_solver` from `initial_graph` and its wall-clock ms,
    for `fsgl solve` and each bench cell; both report the learned graph's
    Fiedler value as `trace.final_lambda2`."""
    g0 = initial_graph(obs, cfg)
    t0 = time.perf_counter()
    g, trace = run_solver(g0, obs, cfg)
    ms = (time.perf_counter() - t0) * 1e3
    return g, trace, ms


def run_benchmark(cfg: SolverConfig, ratios, trials: int, n: int = 30,
                  generators=GENERATORS, solvers=SOLVERS,
                  density: float = 0.2, rho: float = 0.5, nu: float = 3.0,
                  n_components: int = 3, mean_scale: float = 1.0,
                  seed: int = 0) -> BenchReport:
    """Full sweep over generator x solver x ratio x trial, one cell at a time.

    Each cell's instance is derived from (seed, generator, ratio, trial).
    Per-cell failures are recorded in the report instead of aborting. A
    non-integer trial count raises TypeError; a trial count below 1, no
    ratio at all, a bad solver name or ratio ValueError; and a budget
    `init_graph.default_budget` refuses InvalidBudget, before any cell runs; so
    does anything `datagen.check_instance` refuses for the swept
    generators, or `init_graph.check_start` for the swept solvers, at the
    largest ratio's sample count.
    """
    if integer(trials, "trials") < 1:
        raise ValueError("trials must be >= 1")
    configs = {sol: replace(cfg, solver_kind=sol) for sol in solvers}
    ratios = [real(r, "K/N ratio") for r in ratios]
    if not ratios:
        raise ValueError("ratios must hold at least one K/N ratio")
    ks = [sample_count(n, r) for r in ratios]
    check_instance(n, max(ks), generators, seed, density, rho, nu, n_components,
                   mean_scale, f" (K/N ratio {max(ratios):g})")
    default_budget(n, cfg.budget_b)  # as check_start does; perfbench imports the name from here
    for config in configs.values():
        check_start(n, max(ks), config)

    def run_cell(gen_name, sol, gi, ri, ratio, trial) -> BenchCell:
        try:
            gt, obs = draw_instance(n, ks[ri], gen_name, [seed, gi, ri, trial], density,
                                    rho, nu, n_components, mean_scale)
            # the cell scores against the true graph alone, so the truth's
            # (N, N) covariance is let go before the solve, not after it
            w_star, gt = gt.w_star, None
            g, trace, ms = timed_solve(obs, configs[sol])
            return BenchCell(gen_name, sol, ratio, trial, relative_error(g, w_star),
                             trace.final_lambda2, g.edge_count, ms, len(trace), trace.stop_reason)
        except (FsglError, ValueError, np.linalg.LinAlgError) as exc:
            return BenchCell(gen_name, sol, ratio, trial, float("nan"),
                             float("nan"), 0, float("nan"),
                             error=f"{type(exc).__name__}: {exc}")

    return BenchReport([run_cell(gen_name, sol, gi, ri, ratio, trial)
                        for gi, gen_name in enumerate(generators)
                        for sol in solvers
                        for ri, ratio in enumerate(ratios)
                        for trial in range(trials)])
