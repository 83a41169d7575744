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

from .datagen import (GENERATORS, check_dof, check_generator, check_gmm,
                      check_ground_truth, check_samples, draw_instance)
from .errors import FsglError, ZeroReference
from .graph import WeightedGraph, build_laplacian
from .init_graph import default_budget, initial_graph
from .solver import SOLVERS, SolverConfig, run_solver
from .spectral import lambda2


def check_reference(w_star: WeightedGraph, source: str = "reference graph") -> float:
    """Frobenius norm of a reference adjacency; ZeroReference when it is 0.

    The norm, not the edge count, decides: weights whose squares underflow
    leave nothing to divide by.
    """
    denom = float(np.linalg.norm(w_star.adjacency()))
    if denom == 0.0:
        raise ZeroReference(f"{source} has no edges")
    return denom


def relative_error(w_hat: WeightedGraph, w_star: WeightedGraph) -> float:
    """Frobenius recovery error of the learned adjacency, relative."""
    if w_hat.n != w_star.n:
        raise ValueError("graphs must share the node set")
    denom = check_reference(w_star)
    return float(np.linalg.norm(w_hat.adjacency() - w_star.adjacency()) / denom)


@dataclass(frozen=True)
class BenchCell:
    """One benchmark run; `error` is empty unless the cell failed."""

    generator: str
    solver: str
    ratio: float
    trial: int
    re: float
    lambda2: float
    edges: int
    ms: float
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
    n: int
    cells: list[BenchCell]

    def raw_csv(self) -> str:
        return _csv(BenchCell, self.cells)

    def summary(self) -> list[SummaryRow]:
        """Mean and std of every cell metric `x` SummaryRow holds as `x_mean`,
        over the ok cells of each (generator, solver, ratio) group."""
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
            rows.append(SummaryRow(**dict(zip(keys, key)), **stats,
                                   failed=len(cs) - len(ok)))
        return rows

    def summary_csv(self) -> str:
        return _csv(SummaryRow, self.summary())

    def table(self) -> str:
        lines = [f"{'generator':<10}{'solver':<11}{'ratio':>6}  "
                 f"{'re (mean+/-std)':>22}  {'lambda2':>9}  {'edges':>7}  "
                 f"{'ms':>10}  {'failed':>6}"]
        for r in self.summary():
            re_col = f"{r.re_mean:.4f} +/- {r.re_std:.4f}"
            lines.append(f"{r.generator:<10}{r.solver:<11}{r.ratio:>6.2f}  "
                         f"{re_col:>22}  {r.lambda2_mean:>9.4f}  "
                         f"{r.edges_mean:>7.1f}  {r.ms_mean:>10.1f}  "
                         f"{r.failed:>6d}")
        return "\n".join(lines) + "\n"


def run_benchmark(cfg: SolverConfig, ratios, trials: int, n: int = 30,
                  generators=GENERATORS, solvers=SOLVERS,
                  density: float = 0.2, rho: float = 0.5, nu: float = 3.0,
                  n_components: int = 3, mean_scale: float = 1.0,
                  seed: int = 0) -> BenchReport:
    """Full sweep over generator x solver x ratio x trial, one cell at a time.

    Each cell's instance is derived from (seed, generator, ratio, trial).
    Per-cell failures are recorded in the report instead of aborting; a
    bad trial count, generator or solver name, size, ratio or parameter
    of a swept generator raises ValueError (InvalidDof for the dof,
    InvalidBudget for a budget above the pairs left beyond the tree, and
    TooLarge for a size or largest ratio whose arrays pass
    datagen.MAX_ARRAY_BYTES) before any cell runs.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for name in generators:
        check_generator(name)
    configs = {sol: replace(cfg, solver_kind=sol) for sol in solvers}
    check_ground_truth(n, density, rho)
    default_budget(n, cfg.budget_b)
    if "gmm" in generators:
        check_gmm(n_components, mean_scale)
    if "mvt" in generators:
        check_dof(nu)
    ratios = [float(r) for r in ratios]
    for r in ratios:
        if not (np.isfinite(r) and r > 0.0):
            raise ValueError(f"K/N ratio must be finite and positive, got {r}")
    ks = [max(1, int(round(r * n))) for r in ratios]
    check_samples(n, max(ks), f" (K/N ratio {max(ratios):g})")

    def run_cell(gen_name, sol, gi, ri, ratio, trial) -> BenchCell:
        try:
            gt, obs = draw_instance(n, ks[ri], gen_name, [seed, gi, ri, trial], density,
                                    rho, nu, n_components, mean_scale)
            g0 = initial_graph(obs, configs[sol])
            t0 = time.perf_counter()
            g, _ = run_solver(g0, obs, configs[sol])
            ms = (time.perf_counter() - t0) * 1e3
            return BenchCell(gen_name, sol, ratio, trial,
                             relative_error(g, gt.w_star), lambda2(build_laplacian(g)),
                             g.edge_count, ms)
        except (FsglError, ValueError, np.linalg.LinAlgError) as exc:
            return BenchCell(gen_name, sol, ratio, trial, float("nan"),
                             float("nan"), 0, float("nan"),
                             error=f"{type(exc).__name__}: {exc}")

    return BenchReport(n, [run_cell(gen_name, sol, gi, ri, ratio, trial)
                           for gi, gen_name in enumerate(generators)
                           for sol in solvers
                           for ri, ratio in enumerate(ratios)
                           for trial in range(trials)])
