"""Benchmark harness: error metric, cell seeding, and report layout."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from doubles import spy, traced_peak
from fsgl.bench import (
    RAW_HEADER,
    SUMMARY_HEADER,
    BenchCell,
    BenchReport,
    check_reference,
    relative_error,
    run_benchmark,
)
from fsgl.datagen import draw_instance, gen_ground_truth, sample_gmm
from fsgl.errors import InvalidBudget, InvalidDof, NonFiniteInput, TooLarge, ZeroReference
from fsgl.graph import WeightedGraph
from fsgl.init_graph import default_budget, initial_graph
from fsgl.solver import SolverConfig, run_solver
from randomgraph import random_graph


def test_relative_error_oracles():
    a = WeightedGraph(3, {(0, 1): 1.0})
    assert relative_error(a, a) == pytest.approx(0.0)
    empty = WeightedGraph(3)
    # missing the single unit edge entirely: |W|_F ratio is exactly 1
    assert relative_error(empty, a) == pytest.approx(1.0)
    b = WeightedGraph(3, {(0, 1): 2.0})
    assert relative_error(b, a) == pytest.approx(1.0)
    with pytest.raises(ZeroReference):
        relative_error(a, empty)
    with pytest.raises(ValueError):
        relative_error(a, WeightedGraph(4, {(0, 1): 1.0}))


def test_reference_whose_norm_overflows_is_non_finite_input():
    # an infinite norm would make every relative error 0 or NaN
    big = WeightedGraph(3, {(0, 1): 1e200, (1, 2): 1e200})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: check_reference(big, "t.csv"), lambda: relative_error(big, big)):
            with pytest.raises(NonFiniteInput, match="Frobenius norm overflows"):
                call()
    # a reference it accepts keeps its norm's bits
    for w in (1e-150, 1.0, 1e150):
        ok = WeightedGraph(3, {(0, 1): w, (1, 2): 2.0 * w})
        assert check_reference(ok) == float(np.linalg.norm(ok.adjacency()))


def test_run_benchmark_takes_each_cells_lambda2_from_its_trace(monkeypatch):
    # bench.py runs no eigensolve: a cell's lambda2 is the final objective's
    import fsgl.bench
    assert not hasattr(fsgl.bench, "smallest_eigenpairs")
    assert not hasattr(fsgl.bench, "build_laplacian")
    traces = spy(monkeypatch, "run_solver", lambda result, g0, obs, cfg: result[1], fsgl.bench)
    rep = run_benchmark(SolverConfig(max_iters=10), ratios=(0.3,), trials=2, n=8,
                        generators=("gmm",))
    assert all(c.ok for c in rep.cells) and len(rep.cells) == 4
    assert [c.lambda2 for c in rep.cells] == [t.final_lambda2 for t in traces]
    assert all(c.lambda2 > 0.0 for c in rep.cells)


def test_run_benchmark_refuses_no_ratio_before_any_cell(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a cell ran")
    monkeypatch.setattr("fsgl.bench.draw_instance", forbidden)
    for ratios in ([], (), iter([])):
        with pytest.raises(ValueError, match="^ratios must hold at least one K/N ratio$"):
            run_benchmark(SolverConfig(), ratios=ratios, trials=1, n=8)


def test_relative_error_matches_manual_frobenius():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        w_hat, w_star = (random_graph(rng, 8, density=0.4, low=0.1) for _ in range(2))
        if w_star.edge_count == 0:
            continue
        ref = np.linalg.norm(w_hat.adjacency() - w_star.adjacency())
        ref /= np.linalg.norm(w_star.adjacency())
        assert relative_error(w_hat, w_star) == pytest.approx(ref, rel=1e-12)


def test_default_budget():
    assert default_budget(30, None) == 90
    assert default_budget(30, 17) == 17
    assert default_budget(4, None) == 3   # capped by the pairs left
    assert default_budget(30, 0) == 0
    assert default_budget(8, 21) == 21    # 28 pairs, 7 in the tree
    with pytest.raises(InvalidBudget, match="budget_b must be at most 21"):
        default_budget(8, 22)
    assert default_budget(8, np.int64(5)) == 5


def test_default_budget_refuses_a_node_count_that_is_not_an_integer():
    # 10.0 once gave the float budget 30.0
    for bad in (10.0, True, "10"):
        with pytest.raises(TypeError, match="node count must be an integer"):
            default_budget(bad, None)
    assert type(default_budget(np.int64(10), None)) is int


def test_initial_graph_by_solver_kind():
    gt = gen_ground_truth(12, 0.3, seed=0)
    obs = sample_gmm(gt, 4, seed=1)
    dense = initial_graph(obs, SolverConfig(solver_kind="greedy"))
    assert dense.edge_count == 12 * 11 // 2
    sparse = initial_graph(obs, SolverConfig(solver_kind="recursive"))
    assert sparse.edge_count == 11 + min(36, 66 - 11)
    budgeted = initial_graph(obs, SolverConfig(solver_kind="greedy", budget_b=5))
    assert budgeted.edge_count == 11 + 5


def test_run_benchmark_shapes_and_determinism():
    cfg = SolverConfig(max_iters=40)
    kwargs = dict(ratios=(0.2,), trials=2, n=10, generators=("gmm",),
                  solvers=("greedy", "recursive"))
    rep_a = run_benchmark(cfg, **kwargs)
    rep_b = run_benchmark(cfg, **kwargs)
    assert len(rep_a.cells) == 4  # 1 generator x 2 solvers x 1 ratio x 2 trials
    for ca, cb in zip(rep_a.cells, rep_b.cells):
        assert ca.re == cb.re and ca.lambda2 == cb.lambda2 and ca.edges == cb.edges
    assert all(c.ok for c in rep_a.cells)


def test_run_benchmark_same_instance_across_solvers():
    # both solvers must consume identical data for a fair clock
    cfg = SolverConfig(max_iters=10)
    rep = run_benchmark(cfg, ratios=(0.3,), trials=3, n=8,
                        generators=("mvt",), solvers=("greedy", "recursive"))
    greedy = {c.trial: c for c in rep.cells if c.solver == "greedy"}
    rec = {c.trial: c for c in rep.cells if c.solver == "recursive"}
    assert set(greedy) == set(rec) == {0, 1, 2}
    # distinct trials used distinct data
    assert len({c.re for c in greedy.values()}) == 3


def test_cells_report_their_solves_steps_and_stop_reason():
    # each cell's steps and stop equal a direct solve of the same draw; this
    # step size ends some solves at the cap and lets the rest converge
    cfg = SolverConfig(epsilon=0.25, max_iters=40)
    generators = ("gmm", "mvt")
    rep = run_benchmark(cfg, ratios=(0.5,), trials=2, n=10, generators=generators)
    raw = rep.raw_csv().splitlines()[1:]
    for c, line in zip(rep.cells, raw, strict=True):
        _, obs = draw_instance(10, 5, c.generator, [0, generators.index(c.generator), 0,
                                                     c.trial], 0.2, 0.5, 3.0, 3, 1.0)
        solve_cfg = replace(cfg, solver_kind=c.solver)
        g, trace = run_solver(initial_graph(obs, solve_cfg), obs, solve_cfg)
        assert (c.steps, c.stop, c.edges) == (len(trace), trace.stop_reason, g.edge_count)
        assert line.endswith(f",{len(trace)},{trace.stop_reason}")
    assert {c.stop for c in rep.cells} == {"max_iters", "no_descent"}


def test_run_benchmark_records_failures():
    # a finite mean scale this large overflows only the gmm cell's Gram matrix
    cfg = SolverConfig(max_iters=5)
    rep = run_benchmark(cfg, ratios=(0.2,), trials=1, n=8, mean_scale=1e200,
                        generators=("gmm", "mvt"), solvers=("greedy",))
    ok = [c for c in rep.cells if c.ok]
    failed = [c for c in rep.cells if not c.ok]
    assert len(ok) == 1 and len(failed) == 1
    assert failed[0].generator == "gmm" and "Gram matrix" in failed[0].error
    assert (failed[0].steps, failed[0].stop) == (0, "")
    assert (ok[0].steps, ok[0].stop) == (5, "max_iters")
    summary = {r.generator: r for r in rep.summary()}
    assert summary["gmm"].failed == 1
    assert np.isnan(summary["gmm"].re_mean)


@pytest.mark.parametrize("names, message", [
    ({"generators": ("gmm", "bogus")}, "unknown generator 'bogus'"),
    ({"solvers": ("greedy", "bogus")}, "unknown solver_kind 'bogus'"),
])
def test_run_benchmark_rejects_unknown_names(names, message):
    # raised, not recorded as failed cells next to the good names' cells
    with pytest.raises(ValueError, match=message):
        run_benchmark(SolverConfig(), ratios=(0.2,), trials=1, n=8, **names)


def test_run_benchmark_rejects_bad_trials():
    with pytest.raises(ValueError):
        run_benchmark(SolverConfig(), ratios=(0.2,), trials=0)


@pytest.mark.parametrize("kwargs, message", [
    ({"trials": 1.5}, "trials must be an integer, got 1.5"),
    ({"n": 6.0}, "node count must be an integer, got 6.0"),
])
def test_run_benchmark_rejects_a_count_that_is_not_an_integer(kwargs, message):
    # both once failed mid-sweep: range() on 1.5, an IndexError on 6.0
    with pytest.raises(TypeError, match=message):
        run_benchmark(SolverConfig(), [0.2], **{"trials": 1, "n": 6, **kwargs})


@pytest.mark.parametrize("n, ratios, message", [
    (1, (0.2,), "node count"),
    (0, (0.2,), "node count"),
    (8, (np.inf,), "ratio"),
    (8, (np.nan,), "ratio"),
    (8, (0.0,), "ratio"),
    (8, (0.2, -1.0), "ratio"),
    (8, (True,), "K/N ratio must be finite and not a bool, got True"),
])
def test_run_benchmark_rejects_bad_size_and_ratios(n, ratios, message):
    # a cell records its own ValueError, so one that escapes came before them
    with pytest.raises(ValueError, match=message):
        run_benchmark(SolverConfig(), ratios=ratios, trials=1, n=n)


@pytest.mark.parametrize("n, ratio, message", [
    (3, 1e308, r"sample count inf \(K/N ratio 1e\+308\)"),
    (10 ** 400, 1e9, "node count"),
])
def test_run_benchmark_rejects_a_sample_count_no_float_holds(n, ratio, message):
    # r * n overflows a float here; that is a size error, not an OverflowError
    with pytest.raises(TooLarge, match=message):
        run_benchmark(SolverConfig(), ratios=(ratio,), trials=1, n=n)


def test_run_benchmark_rejects_budget_beyond_pairs_left():
    # every cell's init graph would raise it, so it is raised before any cell
    with pytest.raises(InvalidBudget, match="budget_b"):
        run_benchmark(SolverConfig(budget_b=22), ratios=(0.5,), trials=1, n=8)


@pytest.mark.parametrize("exact, arrays", [(False, 6.0), (True, 8.0)])
def test_a_cell_holds_only_the_true_graph_through_its_solve(exact, arrays):
    # a cell scores against w_star alone, so the truth's (N, N) covariance
    # is gone before the solve: its peak is the draw's or the solve's,
    # never the solve's plus the covariance
    cfg = SolverConfig(max_iters=20, exact_logdet=exact)
    def cell(n):
        return run_benchmark(cfg, [0.2], 1, n=n, generators=("mvt",), solvers=("recursive",))
    cell(30)  # first-call set-up
    n = 300
    report, peak = traced_peak(lambda: cell(n))
    assert report.cells[0].ok
    assert peak <= arrays * 8 * n * n, f"{peak / (8 * n * n):.2f} (N, N) arrays"


def test_run_benchmark_refuses_a_start_too_large_before_any_draw(monkeypatch):
    # at N = 60, K = 12 every draw fits a 400 kB ceiling, but the complete
    # start's edge arrays do not: no cell could run, so none draws
    monkeypatch.setattr("fsgl.datagen.MAX_ARRAY_BYTES", 400_000)
    draws = []
    monkeypatch.setattr("fsgl.bench.draw_instance", lambda *a, **kw: draws.append(a))
    with pytest.raises(TooLarge, match="complete start at node count 60 .* needs 580,560 bytes"):
        run_benchmark(SolverConfig(), [0.2], 2, n=60, generators=("gmm",),
                      solvers=("greedy",))
    assert draws == []


@pytest.mark.parametrize("generator, kwargs, error, message", [
    ("gmm", {"density": np.nan}, ValueError, "density"),
    ("gmm", {"rho": -1.0}, ValueError, "rho"),
    ("gmm", {"rho": np.nan}, ValueError, "rho"),
    ("gmm", {"n_components": 0}, ValueError, "component"),
    ("gmm", {"mean_scale": np.nan}, ValueError, "mean scale"),
    ("mvt", {"nu": 2.0}, InvalidDof, "degrees of freedom"),
    ("mvt", {"nu": np.nan}, InvalidDof, "degrees of freedom"),
    ("gmm", {"density": True}, ValueError, "density must be finite and not a bool"),
    ("gmm", {"rho": "0.5"}, ValueError, "rho must be finite and not a bool"),
    ("gmm", {"mean_scale": False}, ValueError, "mean scale must be finite and not a bool"),
    ("mvt", {"nu": True}, InvalidDof, "degrees of freedom must be finite and not a bool"),
])
def test_run_benchmark_rejects_bad_generator_parameters(generator, kwargs, error,
                                                        message):
    # cells record their own errors, so one that escapes came before them
    with pytest.raises(error, match=message):
        run_benchmark(SolverConfig(), ratios=(0.5,), trials=1, n=8,
                      generators=(generator,), solvers=("greedy",), **kwargs)


def test_run_benchmark_checks_only_swept_generators():
    # a bad dof is no error when no mvt cell runs, nor a bad mixture for mvt
    for generator, kwargs in (("gmm", {"nu": 2.0}),
                              ("mvt", {"n_components": 0, "mean_scale": np.nan})):
        report = run_benchmark(SolverConfig(), ratios=(0.5,), trials=1, n=8,
                               generators=(generator,), solvers=("greedy",),
                               **kwargs)
        assert [c.ok for c in report.cells] == [True]


def test_report_csv_layout():
    cells = [
        BenchCell("gmm", "greedy", 0.2, 0, 0.5, 0.1, 12, 3.25),
        BenchCell("gmm", "greedy", 0.2, 1, 0.7, 0.2, 14, 4.5),
        BenchCell("gmm", "greedy", 0.2, 2, float("nan"), float("nan"), 0,
                  float("nan"), error="ValueError: boom"),
    ]
    rep = BenchReport(10, cells)
    raw = rep.raw_csv().splitlines()
    assert raw[0] == RAW_HEADER
    assert len(raw) == 4
    assert raw[1].startswith("gmm,greedy,0.2,0,0.5,")
    assert raw[3] == "gmm,greedy,0.2,2,nan,nan,0,nan,0,"  # a failed cell
    summary = rep.summary_csv().splitlines()
    assert summary[0] == SUMMARY_HEADER
    row = rep.summary()[0]
    assert row.re_mean == pytest.approx(0.6)
    assert row.re_std == pytest.approx(np.std([0.5, 0.7]))
    assert row.failed == 1
    table = rep.table()
    assert "+/-" in table
    assert "gmm" in table


def test_csv_headers_are_the_dataclass_fields():
    assert RAW_HEADER == "generator,solver,ratio,trial,re,lambda2,edges,ms,steps,stop"
    assert SUMMARY_HEADER == ("generator,solver,ratio,re_mean,re_std,lambda2_mean,"
                              "lambda2_std,edges_mean,edges_std,ms_mean,ms_std,failed,"
                              "zero_step,max_iters")


def test_summary_counts_zero_step_and_max_iters_stops():
    # per row: ok solves that took no step, and ok solves the step cap
    # ended; a failed cell (0 steps, no stop) counts only as failed
    cells = [
        BenchCell("gmm", "greedy", 0.2, 0, 1.0, 0.5, 10, 1.0, 0, "no_descent"),
        BenchCell("gmm", "greedy", 0.2, 1, 0.9, 0.4, 9, 2.0, 40, "max_iters"),
        BenchCell("gmm", "greedy", 0.2, 2, 0.8, 0.3, 8, 3.0, 7, "no_descent"),
        BenchCell("gmm", "greedy", 0.2, 3, float("nan"), float("nan"), 0,
                  float("nan"), error="ValueError: boom"),
        BenchCell("gmm", "greedy", 1.0, 0, 0.7, 0.2, 7, 4.0, 0, "no_descent"),
        BenchCell("gmm", "greedy", 1.0, 1, 0.6, 0.1, 6, 5.0, 0, "no_descent"),
        BenchCell("mvt", "greedy", 0.2, 0, 0.5, 0.1, 5, 6.0, 20, "max_iters"),
    ]
    rep = BenchReport(10, cells)
    counts = [(r.generator, r.ratio, r.failed, r.zero_step, r.max_iters)
              for r in rep.summary()]
    assert counts == [("gmm", 0.2, 1, 1, 1), ("gmm", 1.0, 0, 2, 0), ("mvt", 0.2, 0, 0, 1)]
    assert [line.split(",")[-3:] for line in rep.summary_csv().splitlines()[1:]] == [
        ["1", "1", "1"], ["0", "2", "0"], ["0", "0", "1"]]
    header, *rows = rep.table().splitlines()
    assert header.split()[-3:] == ["failed", "0-step", "max_iters"]
    assert [row.split()[-3:] for row in rows] == [["1", "1", "1"], ["0", "2", "0"],
                                                  ["0", "0", "1"]]


def test_serial_benchmark_runs_are_identical():
    cfg = SolverConfig(max_iters=25)
    kwargs = dict(ratios=(0.2, 0.5), trials=2, n=9, generators=("gmm",),
                  solvers=("recursive",))
    first = run_benchmark(cfg, **kwargs)
    second = run_benchmark(cfg, **kwargs)
    assert len(first.cells) == len(second.cells) == 4
    for ca, cb in zip(first.cells, second.cells):
        assert ca.re == cb.re and ca.edges == cb.edges  # ms may differ
