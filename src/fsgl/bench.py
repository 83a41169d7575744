"""Benchmark harness: generate, solve, and tabulate recovery metrics.

Each cell of the sweep is (generator, solver, sample ratio, trial). The
data for a cell is derived only from (seed, generator, ratio, trial), so
both solvers see identical instances and wall-clock comparisons are
fair. Greedy cells start from the dense complete graph; recursive cells
start from the sparse similarity initializer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .datagen import (check_dof, check_gmm, check_ground_truth, gen_ground_truth,
                      sample_gmm, sample_mvt)
from .errors import FsglError, ZeroReference
from .graph import WeightedGraph, build_laplacian, complete_graph
from .init_graph import init_sparse_graph
from .solver import SolverConfig, run_solver

RAW_HEADER = "generator,solver,ratio,trial,re,lambda2,edges,ms"
SUMMARY_HEADER = ("generator,solver,ratio,re_mean,re_std,lambda2_mean,"
                  "lambda2_std,edges_mean,edges_std,ms_mean,ms_std,failed")


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


def default_budget(n: int, budget_b: int | None) -> int:
    """Extra-edge budget: configured value, else 3N capped at the pairs left."""
    available = n * (n - 1) // 2 - (n - 1)
    if budget_b is not None:
        return budget_b
    return min(3 * n, available)


def initial_graph(obs, cfg: SolverConfig) -> WeightedGraph:
    """Dense start for the greedy solver, sparse init for the recursive one."""
    n = obs.n
    if cfg.solver_kind == "recursive":
        return init_sparse_graph(obs.gram, default_budget(n, cfg.budget_b))
    if cfg.budget_b is not None:
        return init_sparse_graph(obs.gram, default_budget(n, cfg.budget_b))
    return complete_graph(n)


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


@dataclass
class BenchReport:
    n: int
    cells: list[BenchCell]

    def raw_csv(self) -> str:
        lines = [RAW_HEADER]
        for c in self.cells:
            lines.append(f"{c.generator},{c.solver},{repr(float(c.ratio))},"
                         f"{c.trial},{repr(c.re)},{repr(c.lambda2)},"
                         f"{c.edges},{repr(c.ms)}")
        return "\n".join(lines) + "\n"

    def summary(self) -> list[SummaryRow]:
        groups: dict[tuple[str, str, float], list[BenchCell]] = {}
        for c in self.cells:
            groups.setdefault((c.generator, c.solver, c.ratio), []).append(c)
        rows = []
        for (gen, sol, ratio), cs in groups.items():
            ok = [c for c in cs if c.ok]

            def stat(vals):
                if not vals:
                    return float("nan"), float("nan")
                return float(np.mean(vals)), float(np.std(vals))

            re_m, re_s = stat([c.re for c in ok])
            l2_m, l2_s = stat([c.lambda2 for c in ok])
            ed_m, ed_s = stat([c.edges for c in ok])
            ms_m, ms_s = stat([c.ms for c in ok])
            rows.append(SummaryRow(gen, sol, ratio, re_m, re_s, l2_m, l2_s,
                                   ed_m, ed_s, ms_m, ms_s, len(cs) - len(ok)))
        return rows

    def summary_csv(self) -> str:
        lines = [SUMMARY_HEADER]
        for r in self.summary():
            lines.append(f"{r.generator},{r.solver},{repr(float(r.ratio))},"
                         f"{repr(r.re_mean)},{repr(r.re_std)},"
                         f"{repr(r.lambda2_mean)},{repr(r.lambda2_std)},"
                         f"{repr(r.edges_mean)},{repr(r.edges_std)},"
                         f"{repr(r.ms_mean)},{repr(r.ms_std)},{r.failed}")
        return "\n".join(lines) + "\n"

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


def _cell_seeds(seed: int, gi: int, ri: int, trial: int) -> tuple[int, int]:
    root = np.random.SeedSequence([seed, gi, ri, trial])
    gt_ss, x_ss = root.spawn(2)
    return int(gt_ss.generate_state(1)[0]), int(x_ss.generate_state(1)[0])


def run_benchmark(cfg: SolverConfig, ratios, trials: int, n: int = 30,
                  generators=("gmm", "mvt"), solvers=("greedy", "recursive"),
                  density: float = 0.2, rho: float = 0.5, nu: float = 3.0,
                  n_components: int = 3, mean_scale: float = 1.0,
                  seed: int = 0) -> BenchReport:
    """Full sweep over generator x solver x ratio x trial, one cell at a time.

    Each cell's instance is derived from (seed, generator, ratio, trial).
    Per-cell failures are recorded in the report instead of aborting; a
    bad trial count, size, ratio or parameter of a swept generator raises
    ValueError (InvalidDof for the dof) before any cell runs.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_ground_truth(n, density, rho)
    if "gmm" in generators:
        check_gmm(n_components, mean_scale)
    if "mvt" in generators:
        check_dof(nu)
    ratios = [float(r) for r in ratios]
    for r in ratios:
        if not (np.isfinite(r) and r > 0.0):
            raise ValueError(f"K/N ratio must be finite and positive, got {r}")
    jobs = []
    for gi, gen_name in enumerate(generators):
        for sol in solvers:
            for ri, ratio in enumerate(ratios):
                for trial in range(trials):
                    jobs.append((gen_name, sol, gi, ri, ratio, trial))

    def run_cell(job) -> BenchCell:
        gen_name, sol, gi, ri, ratio, trial = job
        try:
            s_gt, s_x = _cell_seeds(seed, gi, ri, trial)
            gt = gen_ground_truth(n, density, rho, seed=s_gt)
            k = max(1, int(round(ratio * n)))
            if gen_name == "gmm":
                obs = sample_gmm(gt, k, n_components, mean_scale, seed=s_x)
            elif gen_name == "mvt":
                obs = sample_mvt(gt, k, nu, seed=s_x)
            else:
                raise ValueError(f"unknown generator {gen_name!r}")
            run_cfg = replace(cfg, solver_kind=sol)
            g0 = initial_graph(obs, run_cfg)
            t0 = time.perf_counter()
            g, _ = run_solver(g0, obs, run_cfg)
            ms = (time.perf_counter() - t0) * 1e3
            lam2 = float(np.linalg.eigvalsh(build_laplacian(g))[1])
            return BenchCell(gen_name, sol, ratio, trial,
                             relative_error(g, gt.w_star), lam2,
                             g.edge_count, ms)
        except (FsglError, ValueError, np.linalg.LinAlgError) as exc:
            return BenchCell(gen_name, sol, ratio, trial, float("nan"),
                             float("nan"), 0, float("nan"),
                             error=f"{type(exc).__name__}: {exc}")

    return BenchReport(n, [run_cell(j) for j in jobs])
