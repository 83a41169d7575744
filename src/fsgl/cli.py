"""Command-line driver: data generation, solving, benchmarks, cut checks.

Exit codes: 0 success, 1 data or solver error, 2 usage error. Each
``key = value`` line of a --config file is parsed after the command
line as the flag ``--key=value`` (``_`` read as ``-``; ``true`` and
``false`` give ``--key`` and ``--no-key``), so it overrides that flag
and a bad value exits 2; an unknown key or a malformed line exits 1.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from pathlib import Path

import numpy as np

from .bench import check_reference, relative_error, run_benchmark
from .datagen import GENERATORS, connected_pairs, draw_instance
from .errors import FsglError
from .graph import ObservationSet, WeightedGraph, build_laplacian
from .init_graph import initial_graph
from .io import load_graph, load_observations, save_graph, save_observations
from .partition import BRUTE_FORCE_LIMIT, approx_cheeger_cut, brute_force_cheeger
from .solver import SOLVERS, SolverConfig, run_solver
from .spectral import lambda2, smallest_eigenpairs


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    d = SolverConfig()
    p.add_argument("--epsilon", type=float, default=d.epsilon, help="step size")
    p.add_argument("--alpha", type=float, default=d.alpha, help="log-det shift")
    p.add_argument("--gamma", type=float, default=d.gamma, help="connectivity weight")
    p.add_argument("--mu", type=float, default=d.mu, help="sparsity weight")
    p.add_argument("--budget", type=int, default=d.budget_b,
                   help="extra init edges beyond the tree (default 3N)")
    p.add_argument("--refresh", type=int, default=d.refresh_interval,
                   help="spectral refresh period in accepted steps")
    p.add_argument("--exact-logdet", action=argparse.BooleanOptionalAction,
                   default=d.exact_logdet,
                   help="score with the exact resolvent instead of the majorizer")


def _add_gen_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--generator", choices=GENERATORS, default=None)
    p.add_argument("--dof", type=float, default=3.0, help="t degrees of freedom")
    p.add_argument("--components", type=int, default=3, help="mixture components")
    p.add_argument("--mean-scale", type=float, default=1.0)
    p.add_argument("--density", type=float, default=0.2, help="edge probability")
    p.add_argument("--rho", type=float, default=0.5, help="precision diagonal shift")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsgl", allow_abbrev=False,
        description="Learn a sparse connected graph from few observations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, allow_abbrev=False, help=summary)
        p.add_argument("--config", help="flat key = value file; entries override flags")
        p.add_argument("-v", "--verbose", action=argparse.BooleanOptionalAction,
                       default=False, help="log the fsgl logger's INFO lines to stderr")
        p.set_defaults(func=func)
        return p

    p = command("gen", cmd_gen, "generate a ground truth and observations")
    p.add_argument("--n", type=int, default=30, help="node count")
    p.add_argument("--k", type=int, default=None, help="sample count (default N/5)")
    p.add_argument("--output", default="data", help="output file prefix")
    _add_gen_flags(p)

    p = command("solve", cmd_solve, "learn a graph from an observation file")
    p.add_argument("--input", required=True, help="observation matrix (.csv or .mtx)")
    p.add_argument("--output", default=None, help="learned graph edge-list CSV")
    p.add_argument("--truth", default=None, help="reference graph for relative error")
    p.add_argument("--solver", choices=SOLVERS, default="greedy")
    p.add_argument("--trace", default=None, help="per-step trace CSV")
    _add_solver_flags(p)

    p = command("bench", cmd_bench, "sweep generators, solvers, sample ratios")
    p.add_argument("--n", type=int, default=30, help="node count")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--ratios", default="0.2,0.4,0.6,0.8,1.0",
                   help="comma-separated K/N ratios")
    p.add_argument("--solver", choices=SOLVERS, default=None,
                   help="restrict to one solver (default both)")
    p.add_argument("--output", default="bench", help="output file prefix")
    _add_gen_flags(p)
    _add_solver_flags(p)

    p = command("cheeger-check", cmd_cheeger_check, "verify cut bounds on random graphs")
    p.add_argument("--n", type=int, default=8,
                   help=f"node count (<= {BRUTE_FORCE_LIMIT})")
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--density", type=float, default=0.35)
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    return parser


def config_entries(path: str) -> list[tuple[str, str]]:
    """Each entry of a config file as (its flag, the error if no flag takes it)."""
    entries = []
    with open(path) as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            if not (key and sep):
                raise ValueError(f"{path}:{line_no}: expected key = value")
            flag = "--" + key.replace("_", "-")
            unknown = f"{path}:{line_no}: unknown option {key!r}"
            if flag in ("--config", "--help"):
                raise ValueError(unknown)
            if value.lower() == "false":
                flag = "--no-" + flag[2:]
            elif value.lower() != "true":
                flag = f"{flag}={value}"
            entries.append((flag, unknown))
    return entries


def parse_command_line(argv: list[str]) -> argparse.Namespace:
    """Parse argv, then argv followed by the --config file's entries."""
    parser = build_parser()
    args = parser.parse_args(argv)
    entries = config_entries(args.config) if args.config else []
    args, unknown = parser.parse_known_args([*argv, *(flag for flag, _ in entries)])
    if unknown:
        raise ValueError(dict(entries)[unknown[0]])
    return args


def config_from_args(args: argparse.Namespace, kind: str) -> SolverConfig:
    return SolverConfig(
        epsilon=args.epsilon, alpha=args.alpha, gamma=args.gamma, mu=args.mu,
        budget_b=args.budget, refresh_interval=args.refresh,
        solver_kind=kind, exact_logdet=args.exact_logdet)


def cmd_gen(args: argparse.Namespace) -> int:
    n = args.n
    k = args.k if args.k is not None else max(1, round(0.2 * n))
    gt, obs = draw_instance(n, k, args.generator or "gmm", [args.seed], args.density,
                            args.rho, args.dof, args.components, args.mean_scale)
    x_path = f"{args.output}.x.csv"
    w_path = f"{args.output}.w.csv"
    save_observations(obs.x, x_path)
    save_graph(gt.w_star, w_path)
    print(f"wrote {x_path} ({n}x{k}) and {w_path} "
          f"({gt.w_star.edge_count} edges)")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    x = load_observations(args.input)
    obs = ObservationSet(x)
    cfg = config_from_args(args, args.solver)
    # A bad reference fails before the solve, not after it.
    w_star = load_graph(args.truth, n=obs.n) if args.truth else None
    if w_star is not None:
        check_reference(w_star, f"{args.truth}: reference graph")
    g0 = initial_graph(obs, cfg)
    t0 = time.perf_counter()
    g, trace = run_solver(g0, obs, cfg)
    ms = (time.perf_counter() - t0) * 1e3
    if args.output:
        save_graph(g, args.output)
    if args.trace:
        trace.to_csv(args.trace)
    lam2 = lambda2(build_laplacian(g))
    print(f"solver={args.solver} steps={len(trace)} stop={trace.stop_reason} "
          f"eigensolves={trace.eigensolves} ineligible={trace.ineligible} "
          f"edges={g.edge_count} lambda2={lam2:.6f} "
          f"objective={trace.initial_objective:.6f}->{trace.final_objective:.6f} "
          f"ms={ms:.1f}")
    if w_star is not None:
        print(f"relative_error={relative_error(g, w_star):.6f}")
    if args.output:
        print(f"wrote {args.output}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = config_from_args(args, "greedy")
    try:
        ratios = [float(tok) for tok in args.ratios.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--ratios takes comma-separated K/N ratios, "
                         f"got {args.ratios!r}") from None
    if not ratios:
        raise ValueError("at least one K/N ratio is required")
    generators = (args.generator,) if args.generator else GENERATORS
    solvers = (args.solver,) if args.solver else SOLVERS
    report = run_benchmark(cfg, ratios, args.trials, n=args.n,
                           generators=generators, solvers=solvers,
                           density=args.density, rho=args.rho, nu=args.dof,
                           n_components=args.components,
                           mean_scale=args.mean_scale, seed=args.seed)
    raw_path = f"{args.output}.raw.csv"
    summary_path = f"{args.output}.summary.csv"
    Path(raw_path).write_text(report.raw_csv())
    Path(summary_path).write_text(report.summary_csv())
    print(report.table(), end="")
    failed = [c for c in report.cells if not c.ok]
    for c in failed:
        print(f"failed cell {c.generator}/{c.solver}/ratio={c.ratio}/"
              f"trial={c.trial}: {c.error}", file=sys.stderr)
    print(f"wrote {raw_path} and {summary_path}")
    if failed:
        raise FsglError(f"{len(failed)} of {len(report.cells)} bench cells failed")
    return 0


def cmd_cheeger_check(args: argparse.Namespace) -> int:
    if not 2 <= args.n <= BRUTE_FORCE_LIMIT:
        raise ValueError(f"exact enumeration needs 2 <= n <= {BRUTE_FORCE_LIMIT}, "
                         f"got {args.n}")
    if not 0.0 < args.density <= 1.0:
        raise ValueError(f"density must lie in (0, 1], got {args.density}")
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(args.seed)
    violations = 0
    for trial in range(args.trials):
        g = WeightedGraph(args.n, dict.fromkeys(
            connected_pairs(args.n, args.density, rng), 1.0))
        lap = build_laplacian(g)
        state = smallest_eigenpairs(lap, min(3, g.n))
        lam2 = state.fiedler_value
        d_max = float(np.max(lap.diagonal()))
        upper = float(np.sqrt(2.0 * lam2 * d_max))
        exact = brute_force_cheeger(g)
        sweep = approx_cheeger_cut(g, state)
        checks = [
            lam2 / 2.0 <= exact.ratio + 1e-9,
            exact.ratio <= upper + 1e-9,
            sweep.ratio + 1e-12 >= exact.ratio,
            sweep.ratio + 1e-9 >= lam2 / 2.0,
        ]
        status = "ok" if all(checks) else "VIOLATION"
        if status != "ok":
            violations += 1
        print(f"trial={trial} lambda2/2={lam2 / 2.0:.4f} "
              f"exact={exact.ratio:.4f} sweep={sweep.ratio:.4f} "
              f"upper={upper:.4f} {status}")
    print(f"{args.trials - violations}/{args.trials} graphs satisfied the bounds")
    return 1 if violations else 0


def cli_main(argv: list[str]) -> int:
    log = logging.getLogger("fsgl")
    handler, level = logging.StreamHandler(sys.stderr), log.level
    try:
        args = parse_command_line(argv)
        if args.verbose:
            log.addHandler(handler)
            log.setLevel(logging.INFO)
        return args.func(args)
    except (FsglError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def main() -> None:
    raise SystemExit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
