"""Command-line interface: subcommands, config files, exit codes."""

import argparse
import inspect
import logging
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from doubles import counted_eigensolves, exit_code, spy
from fsgl.bench import run_benchmark
from fsgl.cli import build_parser, cli_main, parse_command_line
from fsgl.datagen import DRAW_ARRAYS, SAMPLE_ARRAYS
from fsgl.errors import NonFiniteObjective
from fsgl.graph import ObservationSet
from fsgl.io import load_graph, load_observations
from fsgl.solver import SOLVERS, SolverConfig

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    return cli_main(list(argv))


def test_gen_writes_deterministic_files(tmp_path, capsys):
    p1 = tmp_path / "a"
    p2 = tmp_path / "b"
    assert run_cli("gen", "--n", "12", "--k", "4", "--seed", "3",
                   "--output", str(p1)) == 0
    assert run_cli("gen", "--n", "12", "--k", "4", "--seed", "3",
                   "--output", str(p2)) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    x1 = (tmp_path / "a.x.csv").read_bytes()
    x2 = (tmp_path / "b.x.csv").read_bytes()
    assert x1 == x2
    w1 = (tmp_path / "a.w.csv").read_bytes()
    w2 = (tmp_path / "b.w.csv").read_bytes()
    assert w1 == w2
    assert load_observations(tmp_path / "a.x.csv").x.shape == (12, 4)
    g = load_graph(tmp_path / "a.w.csv", n=12)
    assert g.edge_count > 0


def test_gen_different_seeds_differ(tmp_path):
    run_cli("gen", "--n", "10", "--k", "3", "--seed", "1",
            "--output", str(tmp_path / "a"))
    run_cli("gen", "--n", "10", "--k", "3", "--seed", "2",
            "--output", str(tmp_path / "b"))
    assert ((tmp_path / "a.x.csv").read_bytes()
            != (tmp_path / "b.x.csv").read_bytes())


@pytest.mark.parametrize("args, message", [
    (["--rho", "nan"], "rho"), (["--rho", "inf"], "rho"),
    (["--generator", "mvt", "--dof", "nan"], "degrees of freedom"),
    (["--mean-scale", "inf"], "mean scale"),
    (["--n", "100000", "--k", "1"], "node count"),
    (["--n", "5", "--k", "1000000000"], "sample count"),
    (["--components", "1000000000"], "component count"),
    (["--n", "1" + "0" * 400], "node count"),
])
def test_gen_rejects_bad_generator_parameters(tmp_path, capsys, args, message):
    assert run_cli("gen", "--n", "8", "--output", str(tmp_path / "d"), *args) == 1
    err = capsys.readouterr().err
    assert "error:" in err and message in err
    assert not (tmp_path / "d.x.csv").exists()


def _forbid_ground_truth(monkeypatch):
    def no_ground_truth(*a, **kw):
        raise AssertionError("gen_ground_truth called on a draw that fails its checks")

    monkeypatch.setattr("fsgl.datagen.gen_ground_truth", no_ground_truth)


def test_gen_default_sample_count_of_a_node_count_no_float_holds(tmp_path, capsys):
    # 0.2 * n overflows a float: the node count's size error, not an OverflowError
    n = 10**400
    assert run_cli("gen", "--n", str(n), "--output", str(tmp_path / "d")) == 1
    assert capsys.readouterr().err == (f"error: node count {n} needs {DRAW_ARRAYS} {n} x {n} "
                                       f"float64 arrays at once, above the 1 GiB ceiling\n")


@pytest.mark.parametrize("args, message", [
    (["--k", "0"], "error: sample count must be >= 1, got 0"),
    (["--k", "1", "--components", "0"], "error: need at least one mixture component, got 0"),
    (["--k", "1", "--generator", "mvt", "--dof", "2"],
     "error: degrees of freedom must be finite and exceed 2, got 2.0"),
    (["--k", "1", "--seed", "-1"], "error: seed must be a non-negative integer, got -1"),
])
def test_gen_checks_before_building_the_ground_truth(tmp_path, capsys, monkeypatch,
                                                     args, message):
    # at N = 3000 the ground truth alone is seconds and hundreds of MB
    _forbid_ground_truth(monkeypatch)
    assert run_cli("gen", "--n", "3000", "--output", str(tmp_path / "d"), *args) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "d.x.csv").exists()


@pytest.mark.parametrize("n, k, message", [
    (12, 2, f"error: node count 12 needs {DRAW_ARRAYS} 12 x 12 float64 arrays at once"),
    (2, 200, "error: sample count 200 at node count 2 needs 3 2 x 200 float64 arrays"),
])
def test_gen_counts_every_array_a_draw_holds(tmp_path, capsys, monkeypatch, n, k, message):
    # under a 4 KiB ceiling one (N, N) and one (N, K) array fit, but the
    # draw holds DRAW_ARRAYS and SAMPLE_ARRAYS of them at once
    ceiling = 4096
    assert 8 * max(n * n, n * k) <= ceiling
    assert 8 * (DRAW_ARRAYS * n * n + SAMPLE_ARRAYS * n * k) > ceiling
    monkeypatch.setattr("fsgl.datagen.MAX_ARRAY_BYTES", ceiling)
    _forbid_ground_truth(monkeypatch)
    assert run_cli("gen", "--n", str(n), "--k", str(k), "--output", str(tmp_path / "d")) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "d.x.csv").exists()


def test_bench_refuses_a_start_too_large_before_writing(tmp_path, capsys, monkeypatch):
    # the draws fit a 400 kB ceiling at N = 60, the complete start does not
    monkeypatch.setattr("fsgl.datagen.MAX_ARRAY_BYTES", 400_000)
    _forbid_ground_truth(monkeypatch)
    code = run_cli("bench", "--n", "60", "--trials", "2", "--ratios", "0.2",
                   "--generator", "gmm", "--solver", "greedy",
                   "--output", str(tmp_path / "bench"))
    assert code == 1
    err = capsys.readouterr().err
    assert "error: the complete start at node count 60" in err
    assert "failed cell" not in err
    assert list(tmp_path.iterdir()) == []


def test_gen_names_rho_when_the_precision_is_singular(tmp_path, capsys):
    assert run_cli("gen", "--n", "5", "--rho", "1e-300",
                   "--output", str(tmp_path / "d")) == 1
    err = capsys.readouterr().err
    assert "error: precision L + rho I is singular at rho=1e-300" in err


def test_bench_rejects_a_negative_seed_before_any_cell(tmp_path, capsys, monkeypatch):
    _forbid_ground_truth(monkeypatch)
    code = run_cli("bench", "--n", "5", "--trials", "1", "--ratios", "0.4",
                   "--seed", "-1", "--output", str(tmp_path / "bench"))
    assert code == 1
    err = capsys.readouterr().err
    assert "error: seed must be a non-negative integer, got -1" in err
    assert "failed cell" not in err
    assert not (tmp_path / "bench.raw.csv").exists()


def test_gen_default_sample_count(tmp_path):
    run_cli("gen", "--n", "20", "--output", str(tmp_path / "d"))
    assert load_observations(tmp_path / "d.x.csv").x.shape == (20, 4)


def test_solve_round_trip(tmp_path, capsys):
    prefix = tmp_path / "data"
    run_cli("gen", "--n", "14", "--k", "5", "--seed", "7",
            "--output", str(prefix))
    out_graph = tmp_path / "learned.csv"
    trace = tmp_path / "trace.csv"
    code = run_cli("solve", "--input", str(tmp_path / "data.x.csv"),
                   "--solver", "recursive", "--output", str(out_graph),
                   "--trace", str(trace),
                   "--truth", str(tmp_path / "data.w.csv"))
    assert code == 0
    out = capsys.readouterr().out
    assert "solver=recursive" in out
    assert ("stop=no_descent" in out) != ("stop=max_iters" in out)
    assert "relative_error=" in out
    phases = re.findall(r" (\w+)_ms=([0-9.]+)", out)
    assert [p for p, _ in phases] == ["eigensolve", "select", "rebuild", "mutate"]
    total = float(re.search(r" ms=([0-9.]+)", out).group(1))
    # each field is rounded to 0.1 ms
    assert sum(float(t) for _, t in phases) <= total + 0.25
    g = load_graph(out_graph, n=14)
    assert g.edge_count >= 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "iter,m,n,grad_h,lambda2,edges,ms"


def test_verbose_flag_logs_info_to_stderr(tmp_path, capsys):
    run_cli("gen", "--n", "12", "--k", "3", "--seed", "4",
            "--output", str(tmp_path / "data"))
    x = str(tmp_path / "data.x.csv")
    capsys.readouterr()
    assert run_cli("solve", "--input", x, "--solver", "recursive") == 0
    quiet = capsys.readouterr()
    assert "eigensolves=" in quiet.out and "ineligible=0" in quiet.out
    assert run_cli("solve", "--input", x, "--solver", "recursive", "-v") == 0
    loud = capsys.readouterr()
    assert "recursive solve:" in loud.err and "recursive solve:" not in quiet.err
    assert loud.out.split(" ms=")[0] == quiet.out.split(" ms=")[0]
    assert logging.getLogger("fsgl").handlers == []
    assert logging.getLogger("fsgl").level == logging.NOTSET


def test_solve_rejects_a_step_too_small_to_change_a_weight(tmp_path, capsys):
    run_cli("gen", "--n", "3", "--output", str(tmp_path / "data"))
    capsys.readouterr()
    code = run_cli("solve", "--input", str(tmp_path / "data.x.csv"),
                   "--epsilon", "1e-320")
    assert code == 1
    captured = capsys.readouterr()
    assert "error: step 1e-320 leaves the weight 1.0 of edge" in captured.err
    assert "objective" not in captured.out


def test_solve_names_alpha_when_the_exact_resolvent_is_singular(tmp_path, capsys):
    run_cli("gen", "--n", "30", "--output", str(tmp_path / "t30"))
    capsys.readouterr()
    code = run_cli("solve", "--input", str(tmp_path / "t30.x.csv"), "--exact-logdet",
                   "--alpha", "1e-300")
    assert code == 1
    err = capsys.readouterr().err
    assert "error: L + alpha I is singular at alpha=1e-300" in err


def test_solve_refuses_an_alpha_lost_in_rounding_with_one_message(tmp_path, capsys):
    # alpha = 1e-300 once gave a wrong objective (greedy, exit 0), "not
    # positive definite" (recursive) and "singular" (--exact-logdet)
    run_cli("gen", "--n", "30", "--output", str(tmp_path / "t30"))
    capsys.readouterr()
    errors = []
    for extra in ([], ["--solver", "recursive"], ["--exact-logdet"]):
        assert run_cli("solve", "--input", str(tmp_path / "t30.x.csv"),
                       "--alpha", "1e-300", *extra) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == errors[2]
    assert "error: L + alpha I is singular at alpha=1e-300" in errors[0]


@pytest.mark.parametrize("args, message", [
    (["--mu", "1e308"], "initial objective is inf; "),
    (["--gamma", "1e308"], "initial objective is -inf; "),
])
def test_solve_names_gamma_and_mu_when_the_objective_overflows(tmp_path, capsys,
                                                              args, message):
    run_cli("gen", "--n", "30", "--output", str(tmp_path / "t30"))
    capsys.readouterr()
    assert run_cli("solve", "--input", str(tmp_path / "t30.x.csv"), *args) == 1
    err = capsys.readouterr().err
    assert message in err
    assert f"{args[0][2:]}=1e+308" in err


def test_solve_deterministic_output(tmp_path):
    prefix = tmp_path / "data"
    run_cli("gen", "--n", "12", "--k", "4", "--seed", "9",
            "--output", str(prefix))
    g1 = tmp_path / "g1.csv"
    g2 = tmp_path / "g2.csv"
    for out in (g1, g2):
        run_cli("solve", "--input", str(tmp_path / "data.x.csv"),
                "--solver", "greedy", "--budget", "20",
                "--output", str(out))
    assert g1.read_bytes() == g2.read_bytes()


def test_solve_checks_its_observations_once(tmp_path, monkeypatch, capsys):
    # the set load_observations checked is the one solved, not a second
    # one built from its matrix
    path = tmp_path / "x.csv"
    path.write_text("1.0,2.0\n0.5,-1.0\n3.0,0.25\n")
    built = spy(monkeypatch, "__init__", lambda result, obs, x: x, ObservationSet)
    assert run_cli("solve", "--input", str(path)) == 0
    assert "objective=" in capsys.readouterr().out
    assert len(built) == 1


def test_solve_missing_input_is_data_error(tmp_path, capsys):
    code = run_cli("solve", "--input", str(tmp_path / "nope.csv"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_solve_rejects_non_finite_observations(tmp_path, capsys):
    path = tmp_path / "x.csv"
    path.write_text("1.0,2.0\nnan,0.5\n3.0,-1.0\n")
    code = run_cli("solve", "--input", str(path))
    assert code == 1
    captured = capsys.readouterr()
    assert "non-finite" in captured.err and "row 1, column 0" in captured.err
    assert "objective" not in captured.out


@pytest.mark.parametrize("solver", ["greedy", "recursive"])
def test_solve_rejects_overflowing_gram(tmp_path, capsys, solver):
    # every entry is finite, but X X^T overflows: exit 1, never objective=nan
    path = tmp_path / "x.csv"
    path.write_text("1e200,-1e200\n-1e200,1e200\n1e200,1e200\n")
    code = run_cli("solve", "--input", str(path), "--solver", solver)
    assert code == 1
    captured = capsys.readouterr()
    assert "error: Gram matrix" in captured.err and "non-finite" in captured.err
    assert "Traceback" not in captured.err and "RuntimeWarning" not in captured.err
    assert "objective" not in captured.out


@pytest.mark.parametrize("solver, start", [("greedy", "complete"), ("recursive", "sparse")])
def test_solve_checks_its_edge_arrays_before_building_the_start(tmp_path, capsys,
                                                               monkeypatch, solver, start):
    # N = 12, K = 3 under a 4 KiB ceiling: every (N, N) array fits, but
    # the start's and the solve's edge arrays do not
    ceiling = 4096
    assert 8 * 12 * 12 <= ceiling
    monkeypatch.setattr("fsgl.datagen.MAX_ARRAY_BYTES", ceiling)
    for builder in ("complete_graph", "init_sparse_graph"):
        monkeypatch.setattr(f"fsgl.init_graph.{builder}", _forbid(builder))
    path = tmp_path / "x.csv"
    path.write_text("0.5,-1.0,2.0\n" * 12)
    assert run_cli("solve", "--input", str(path), "--solver", solver) == 1
    captured = capsys.readouterr()
    assert f"error: the {start} start at node count 12" in captured.err
    assert "objective" not in captured.out


def _forbid(name):
    def forbidden(*a, **kw):
        raise AssertionError(f"{name} called on a start that fails its size check")
    return forbidden


@pytest.mark.parametrize("solver", ["greedy", "recursive"])
def test_solve_rejects_single_node(tmp_path, capsys, solver):
    path = tmp_path / "x.csv"
    path.write_text("1.0,2.0,0.5\n")
    code = run_cli("solve", "--input", str(path), "--solver", solver)
    assert code == 1
    captured = capsys.readouterr()
    assert "error: need at least two nodes" in captured.err
    assert "Traceback" not in captured.err
    assert "objective" not in captured.out


@pytest.mark.parametrize("solver", ["greedy", "recursive"])
@pytest.mark.parametrize("rows", [
    "1.0,2.0,0.5\n-0.3,0.8,1.1\n",             # N = 2
    "1.0\n2.0\n-0.5\n0.3\n-1.2\n0.7\n",    # K = 1
])
def test_solve_runs_at_smallest_sizes(tmp_path, capsys, rows, solver):
    path = tmp_path / "x.csv"
    path.write_text(rows)
    truth = tmp_path / "t.csv"
    truth.write_text("m,n,w\n0,1,1.0\n")
    code = run_cli("solve", "--input", str(path), "--solver", solver,
                   "--truth", str(truth))
    assert code == 0
    out = capsys.readouterr().out
    assert "solver=" in out and "relative_error=" in out
    assert "nan" not in out and "inf" not in out


MTX = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize("name, text, message", [
    ("t.csv", "m,n,w\n0,1,nan\n", "non-finite weight"),
    ("t.csv", "m,n,w\n0,1,inf\n", "non-finite weight"),
    ("t.mtx", MTX + "3 3 2\n1 2 nan\n2 1 nan\n", "non-finite weight"),
    ("t.mtx", MTX + "2 3 1\n1 2 1.0\n", "must be square"),
    ("t.csv", "m,n,w\n0,1,0.0\n", "nonpositive weight"),
    ("t.csv", "m,n,w\n0,9,1.0\n", "out of range"),
    ("t.csv", "m,n,w\n0,1\n", "malformed edge row"),
    ("t.csv", "", "expected edge-list CSV"),
    ("t.csv", "m,n,w\n", "no edges"),
    ("t.csv", "m,n,w\n0,1,1e-200\n", "no edges"),  # norm underflows to 0
    ("t.csv", "m,n,w\n0,1,1e200\n1,2,1e200\n", "Frobenius norm overflows"),
    ("t.csv", None, "No such file"),
])
def test_solve_rejects_bad_truth_before_solving(tmp_path, capsys, name, text, message):
    x = tmp_path / "x.csv"
    x.write_text("1.0,2.0\n-0.5,0.3\n0.8,-1.1\n")
    truth = tmp_path / name
    if text is not None:
        truth.write_text(text)
    code = run_cli("solve", "--input", str(x), "--truth", str(truth))
    assert code == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and message in captured.err
    assert "Traceback" not in captured.err
    assert "solver=" not in captured.out and "relative_error=" not in captured.out


@pytest.mark.parametrize("text", [
    "%%MatrixMarket matrix coordinate complex general\n2 1 2\n1 1 1.0 5.0\n2 1 2.0 0.0\n",
    "%%MatrixMarket matrix array complex general\n2 1\n1.0 5.0\n2.0 0.0\n",
], ids=["coordinate", "array"])
def test_solve_refuses_complex_matrix_market_input(tmp_path, capsys, text):
    path = tmp_path / "c.mtx"
    path.write_text(text)
    assert run_cli("solve", "--input", str(path)) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "complex Matrix Market" in captured.err
    assert "solver=" not in captured.out


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("solve")  # --input is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--input", "x.csv", "--solver", "annealing")
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("solve", "--input", "x.csv", "--vmin", "4"),
    ("bench", "--vmin", "4"),
    ("solve", "--input", "x.csv", "--seed", "1"),
])
def test_removed_options_exit_two(capsys, argv):
    # the leaf size never changed a selection and solve never read a seed
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2


def test_config_file_rejects_removed_vmin(tmp_path, capsys):
    conf = tmp_path / "old.conf"
    conf.write_text("vmin = 4\n")
    code = run_cli("solve", "--input", str(tmp_path / "x.csv"),
                   "--config", str(conf))
    assert code == 1
    assert "unknown option 'vmin'" in capsys.readouterr().err


def test_config_file_overrides_flags(tmp_path, capsys):
    prefix = tmp_path / "data"
    run_cli("gen", "--n", "10", "--k", "4", "--seed", "5",
            "--output", str(prefix))
    conf = tmp_path / "run.conf"
    conf.write_text("# tuned run\nepsilon = 0.05\nbudget = 6\n")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    # flag says 0.01 but the config file wins with 0.05
    run_cli("solve", "--input", str(tmp_path / "data.x.csv"),
            "--epsilon", "0.01", "--config", str(conf),
            "--solver", "recursive", "--output", str(out_a))
    run_cli("solve", "--input", str(tmp_path / "data.x.csv"),
            "--epsilon", "0.05", "--budget", "6",
            "--solver", "recursive", "--output", str(out_b))
    assert out_a.read_bytes() == out_b.read_bytes()


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("warp_factor = 9\n")
    code = run_cli("gen", "--n", "8", "--config", str(conf),
                   "--output", str(tmp_path / "x"))
    assert code == 1
    assert "unknown option" in capsys.readouterr().err


def test_config_file_rejects_bad_syntax(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("epsilon 0.05\n")
    code = run_cli("gen", "--n", "8", "--config", str(conf),
                   "--output", str(tmp_path / "x"))
    assert code == 1


def test_bench_writes_reports(tmp_path, capsys):
    prefix = tmp_path / "bench"
    code = run_cli("bench", "--n", "8", "--trials", "1",
                   "--ratios", "0.25", "--generator", "gmm",
                   "--solver", "greedy", "--output", str(prefix))
    assert code == 0
    out = capsys.readouterr().out
    assert "re (mean+/-std)" in out
    raw = (tmp_path / "bench.raw.csv").read_text().splitlines()
    assert raw[0] == "generator,solver,ratio,trial,re,lambda2,edges,ms,steps,stop"
    assert len(raw) == 2
    summary = (tmp_path / "bench.summary.csv").read_text().splitlines()
    assert len(summary) == 2


def test_cheeger_check_passes_on_small_graphs(capsys):
    code = run_cli("cheeger-check", "--n", "7", "--trials", "5", "--seed", "2")
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("ok") >= 5
    assert "5/5" in out


def test_cheeger_check_counts_a_violated_bound(monkeypatch, capsys):
    # an exact cut below lambda2 / 2 breaks the lower Cheeger bound
    import fsgl.cli
    real = fsgl.cli.brute_force_cheeger
    monkeypatch.setattr(fsgl.cli, "brute_force_cheeger", lambda g: replace(real(g), ratio=0.0))
    assert run_cli("cheeger-check", "--n", "7", "--trials", "3", "--seed", "2") == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.endswith(" VIOLATION") for line in lines[:-1]] == [True] * 3
    assert lines[-1] == "0/3 graphs satisfied the bounds"


def test_cheeger_check_takes_lambda2_from_the_sweep_eigensolve(monkeypatch, capsys):
    import fsgl.cli
    calls = counted_eigensolves(monkeypatch, fsgl.cli)
    assert run_cli("cheeger-check", "--n", "7", "--trials", "5", "--seed", "2") == 0
    assert "5/5" in capsys.readouterr().out
    assert calls == [3] * 5  # one eigensolve per trial


def test_solve_reports_lambda2_from_the_final_objective(tmp_path, monkeypatch, capsys):
    # bench.py runs no eigensolve: after its snapshots the solve runs one
    # more eigensolve of the learned graph, the final objective's, and the
    # line prints that one's lambda2, trace.final_lambda2
    import fsgl.bench
    import fsgl.cli
    import fsgl.objective
    import fsgl.solver
    assert not hasattr(fsgl.bench, "smallest_eigenpairs")
    assert not hasattr(fsgl.bench, "build_laplacian")
    x = tmp_path / "x.csv"
    x.write_text("1.0,2.0\n-0.5,0.3\n0.8,-1.1\n0.1,0.4\n")
    traces = spy(monkeypatch, "run_solver", lambda result, g0, obs, cfg: result[1], fsgl.bench)
    objective_calls = counted_eigensolves(monkeypatch, fsgl.objective)
    snapshot_calls = counted_eigensolves(monkeypatch, fsgl.solver)
    cli_calls = counted_eigensolves(monkeypatch, fsgl.cli)
    assert run_cli("solve", "--input", str(x)) == 0
    (trace,) = traces
    assert objective_calls == [4, 4] and cli_calls == []  # initial and final objective
    assert len(snapshot_calls) == trace.eigensolves
    lam2 = re.search(r" lambda2=(\d+\.\d{6}) ", capsys.readouterr().out)
    assert lam2 and lam2.group(1) == f"{trace.final_lambda2:.6f}"


# Recorded from `fsgl bench --n 12 --trials 2 --ratios 0.2,1.0 --seed 3`
# (raw CSV, ms column dropped) and from `fsgl solve` on `gen --n 12 --k 4
# --seed 9` (ms fields dropped), before solve and bench shared one timed solve;
# lambda2 is each solve's trace.final_lambda2. The objective pair was
# re-read when the l0 term became mu per edge: 0.2 x 47 and 0.2 x 40 less.
RECORDED_SWEEP = """\
generator,solver,ratio,trial,re,lambda2,edges,steps,stop
gmm,greedy,0.2,0,1.774485411252806,4.000000000000003,58,800,no_descent
gmm,greedy,0.2,1,1.5637654130580827,1.9522756767118201,51,1500,no_descent
gmm,greedy,1.0,0,0.971547196317435,0.0,4,6549,no_descent
gmm,greedy,1.0,1,0.9613196592762816,0.0,4,6490,no_descent
gmm,recursive,0.2,0,1.6710862326175855,0.03264609107253996,46,197,no_descent
gmm,recursive,0.2,1,1.3818745504299643,0.8902277713535587,40,700,no_descent
gmm,recursive,1.0,0,0.971547196317435,0.0,4,4649,no_descent
gmm,recursive,1.0,1,0.9613196592762816,0.0,4,4590,no_descent
mvt,greedy,0.2,0,1.6854101989043084,8.0,63,300,no_descent
mvt,greedy,0.2,1,2.0173582336291576,11.999999999999996,66,0,no_descent
mvt,greedy,1.0,0,0.9497536424355478,0.09289408997061457,16,6003,no_descent
mvt,greedy,1.0,1,0.9622699293327426,0.0,4,6384,no_descent
mvt,recursive,0.2,0,1.4483926932503222,3.3205439220784925,46,100,no_descent
mvt,recursive,0.2,1,1.6848216273452739,4.621676534967164,47,0,no_descent
mvt,recursive,1.0,0,0.9617739953636255,0.09223082887199842,15,4128,no_descent
mvt,recursive,1.0,1,0.9622699293327426,0.0,4,4484,no_descent
"""
RECORDED_SOLVE = ("solver=recursive steps=787 stop=no_descent eigensolves=788 ineligible=0 "
                  "edges=40 lambda2=0.000000 objective=101.742007->47.618766\n"
                  "relative_error=1.215759\n")


def counted_timed_solves(monkeypatch):
    """The solver kind of every `bench.timed_solve` call from now on."""
    import fsgl.bench
    import fsgl.cli
    return spy(monkeypatch, "timed_solve", lambda result, obs, cfg: cfg.solver_kind,
               fsgl.bench, fsgl.cli)


def test_bench_runs_one_timed_solve_per_cell_and_keeps_its_rows(tmp_path, monkeypatch, capsys):
    calls = counted_timed_solves(monkeypatch)
    assert run_cli("bench", "--n", "12", "--trials", "2", "--ratios", "0.2,1.0", "--seed", "3",
                   "--output", str(tmp_path / "b")) == 0
    assert calls == (["greedy"] * 4 + ["recursive"] * 4) * 2
    rows = [line.split(",") for line in (tmp_path / "b.raw.csv").read_text().splitlines()]
    ms = rows[0].index("ms")
    assert "".join(",".join(r[:ms] + r[ms + 1:]) + "\n" for r in rows) == RECORDED_SWEEP


def test_solve_runs_one_timed_solve_and_prints_the_recorded_line(tmp_path, monkeypatch,
                                                                 capsys):
    import fsgl.cli
    assert run_cli("gen", "--n", "12", "--k", "4", "--seed", "9",
                   "--output", str(tmp_path / "d")) == 0
    capsys.readouterr()
    calls = counted_timed_solves(monkeypatch)
    assert run_cli("solve", "--input", str(tmp_path / "d.x.csv"), "--solver", "recursive",
                   "--truth", str(tmp_path / "d.w.csv")) == 0
    assert calls == ["recursive"]
    assert re.sub(r" (\w+_)?ms=[0-9.]+", "", capsys.readouterr().out) == RECORDED_SOLVE
    # the CLI neither starts, runs nor times a solve itself
    assert not {"time", "initial_graph", "run_solver"} & set(vars(fsgl.cli))


def test_cheeger_check_rejects_large_n(capsys):
    assert run_cli("cheeger-check", "--n", "17") == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--n", "1"], "2 <= n <= 16"),
    (["--n", "0"], "2 <= n <= 16"),
    (["--density", "-3"], "density"),
    (["--density", "0"], "density"),
    (["--density", "1.5"], "density"),
    (["--density", "nan"], "density"),
    (["--trials", "0"], "trials"),
    (["--trials", "-3"], "trials"),
])
def test_cheeger_check_rejects_bad_input(capsys, args, message):
    assert run_cli("cheeger-check", "--trials", "1", *args) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and message in captured.err
    assert "trial=" not in captured.out


# What the error line calls the parameter behind each flag.
BENCH_PARAMETER_NAMES = {
    "--ratios": "ratio", "--n": "node count", "--density": "density",
    "--rho": "rho", "--dof": "degrees of freedom", "--components": "component",
    "--mean-scale": "mean scale", "--budget": "budget_b",
}


@pytest.mark.parametrize("args", [
    ["--ratios", "inf"], ["--ratios", "nan"], ["--ratios", "0"],
    ["--ratios", "0.2,-1"], ["--n", "1"],
    ["--density", "nan"], ["--rho", "-1"], ["--rho", "nan"], ["--rho", "inf"],
    ["--generator", "mvt", "--dof", "2"], ["--generator", "mvt", "--dof", "nan"],
    ["--components", "0"], ["--mean-scale", "nan"], ["--budget", "-1"],
    ["--budget", "100"], ["--ratios", "x"],
    ["--n", "100000"], ["--n", "3", "--ratios", "1e9"],
])
def test_bench_rejects_bad_size_and_ratios(tmp_path, capsys, args):
    prefix = tmp_path / "bench"
    code = run_cli("bench", "--n", "8", "--trials", "1", "--ratios", "0.5",
                   "--generator", "gmm", "--solver", "greedy",
                   "--output", str(prefix), *args)
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and BENCH_PARAMETER_NAMES[args[-2]] in err
    assert "failed cell" not in err
    assert not (tmp_path / "bench.raw.csv").exists()


@pytest.mark.parametrize("solver", ["greedy", "recursive"])
def test_solve_rejects_a_negative_budget_before_any_step(tmp_path, capsys, monkeypatch,
                                                         solver):
    # the start, not SolverConfig, refuses the budget, as bench's does
    calls = []
    monkeypatch.setattr("fsgl.bench.run_solver", lambda *args: calls.append(args))
    path = tmp_path / "x.csv"
    path.write_text("0.5,-1.0,2.0\n1.5,0.3,-0.2\n-0.7,1.1,0.4\n0.2,0.9,-1.3\n")
    assert run_cli("solve", "--input", str(path), "--solver", solver, "--budget", "-1") == 1
    captured = capsys.readouterr()
    assert "error: budget_b must be >= 0, got -1" in captured.err
    assert captured.out == "" and calls == []


def test_bench_exits_1_after_writing_when_a_cell_fails(tmp_path, capsys, monkeypatch):
    # a failed cell is a NaN row in the CSV files, so the run is not a success
    def failing_solver(g0, obs, cfg):
        raise NonFiniteObjective("boom")

    monkeypatch.setattr("fsgl.bench.run_solver", failing_solver)
    code = run_cli("bench", "--n", "6", "--trials", "1", "--ratios", "0.5",
                   "--generator", "gmm", "--solver", "greedy",
                   "--output", str(tmp_path / "bench"))
    assert code == 1
    err = capsys.readouterr().err
    assert "failed cell gmm/greedy" in err
    assert "error: 1 of 1 bench cells failed" in err
    assert (tmp_path / "bench.raw.csv").exists()
    assert (tmp_path / "bench.summary.csv").exists()


def _subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_solver_names_are_listed_once():
    subs = _subparsers()
    for command in ("solve", "bench"):
        assert tuple(subs[command]._option_string_actions["--solver"].choices) == SOLVERS
    assert inspect.signature(run_benchmark).parameters["solvers"].default == SOLVERS
    assert [SolverConfig(solver_kind=kind).solver_kind for kind in SOLVERS] == list(SOLVERS)


# Each draw flag of gen and bench, and the run_benchmark parameter it sets.
DRAW_FLAGS = {"--density": "density", "--rho": "rho", "--dof": "nu",
              "--components": "n_components", "--mean-scale": "mean_scale", "--n": "n"}


def test_draw_defaults_are_the_library_defaults():
    # gen and bench draw what run_benchmark draws when no flag says otherwise
    subs = _subparsers()
    params = inspect.signature(run_benchmark).parameters
    found = {(command, flag): (subs[command]._option_string_actions[flag].default,
                               params[name].default)
             for command in ("gen", "bench") for flag, name in DRAW_FLAGS.items()}
    assert {key: pair for key, pair in found.items() if pair[0] != pair[1]} == {}


@pytest.mark.parametrize("argv, code, stream, text", [
    (["--help"], 0, "stdout", "usage: fsgl"),
    (["bench", "--n", "1"], 1, "stderr", "error:"),
])
def test_module_runs_the_cli(argv, code, stream, text):
    run = subprocess.run([sys.executable, "-m", "fsgl.cli", *argv],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run.returncode == code, run.stderr
    assert text in getattr(run, stream)


def _long_options(p):
    return {opt for a in p._actions for opt in a.option_strings
            if opt.startswith("--") and opt != "--help"}


def test_readme_cli_section_matches_parser():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z-]*", section))
    subs = _subparsers()
    known = set().union(*(_long_options(p) for p in subs.values()))
    assert named - known == set(), "README names options no subcommand has"
    for command, p in subs.items():
        missing = _long_options(p) - named
        assert missing == set(), f"README's CLI section omits {command} {missing}"


# Arguments each subcommand needs before any other flag parses.
REQUIRED = {"solve": ["--input", "x.csv"]}


def _flag_cases():
    return [(command, opt) for command, p in _subparsers().items()
            for opt in sorted(_long_options(p) - {"--config"})]


@pytest.mark.parametrize("command, option", _flag_cases())
def test_config_entry_parses_as_its_flag(tmp_path, command, option):
    action = _subparsers()[command]._option_string_actions[option]
    base = [command, *REQUIRED.get(command, [])]
    if isinstance(action, argparse.BooleanOptionalAction):
        negative = option.startswith("--no-")
        key = option.removeprefix("--no-" if negative else "--")
        if negative:  # switch it on first, so the entry has something to undo
            base.append("--" + key)
        flag, value = [option], "false" if negative else "true"
    else:
        value = (action.choices[-1] if action.choices
                 else {int: "7", float: "0.75"}.get(action.type, "x"))
        key, flag = option[2:], [option, value]
    conf = tmp_path / "one.conf"
    conf.write_text(f"{key.replace('-', '_')} = {value}\n")
    flagged = parse_command_line([*base, *flag])
    assert flagged != parse_command_line(base)
    from_file = parse_command_line([*base, "--config", str(conf)])
    assert vars(from_file) == {**vars(flagged), "config": str(conf)}


def test_bool_valued_flags_have_a_no_form():
    # parse_command_line reads a config true/false as --key/--no-key for
    # each flag whose parsed value is a bool
    for command, p in _subparsers().items():
        base = parse_command_line([command, *REQUIRED.get(command, [])])
        for a in p._actions:
            if isinstance(getattr(base, a.dest, None), bool):
                assert isinstance(a, argparse.BooleanOptionalAction), (command, a.dest)


def test_config_file_later_entries_win(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("epsilon = 0.1\nexact_logdet = TRUE\n"
                    "epsilon = 0.2\nexact_logdet = false\n")
    args = parse_command_line(["solve", "--input", "x.csv", "--exact-logdet",
                               "--epsilon", "0.3", "--config", str(conf)])
    assert args.epsilon == 0.2 and args.exact_logdet is False


def _run_in(monkeypatch, capsys, cwd, argv):
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    code = exit_code(argv)
    out, err = capsys.readouterr()
    return code, out.split(" ms=")[0], err, sorted(p.name for p in cwd.iterdir())


# Each value reaches its flag as written: a bad one fails as the flag
# fails, and an odd but valid one (an output file named 7) works.
@pytest.mark.parametrize("command, key, value, code", [
    ("gen", "k", "2.5", 2),
    ("gen", "mean_scale", "none", 2),
    ("solve", "budget", "1.5", 2),
    ("solve", "epsilon", "none", 2),
    ("solve", "epsilon", "false", 2),  # true/false switch only the boolean flags
    ("gen", "seed", "true", 2),
    ("bench", "generator", "1", 2),
    ("solve", "truth", "1", 1),
    ("solve", "output", "7", 0),
    ("solve", "trace", "0", 0),
])
def test_config_probe_behaves_like_its_flag(tmp_path, monkeypatch, capsys,
                                            command, key, value, code):
    x = tmp_path / "x.csv"
    x.write_text("1.0,2.0\n-0.5,0.3\n0.8,-1.1\n")
    base = {"gen": ["gen", "--n", "8", "--output", "d"],
            "solve": ["solve", "--input", str(x)],
            "bench": ["bench", "--n", "8", "--trials", "1", "--ratios", "0.5",
                      "--solver", "greedy", "--output", "b"]}[command]
    conf = tmp_path / "probe.conf"
    conf.write_text(f"{key} = {value}\n")
    flag = "--" + key.replace("_", "-")
    by_flag = _run_in(monkeypatch, capsys, tmp_path / "flag", [*base, flag, value])
    by_file = _run_in(monkeypatch, capsys, tmp_path / "file",
                      [*base, "--config", str(conf)])
    assert by_file == by_flag
    assert by_file[0] == code and "Traceback" not in by_file[2]
    if code == 2:
        assert f"error: argument {flag}: invalid" in by_file[2]
    if code == 0:
        assert value in by_file[3]


@pytest.mark.parametrize("command, key, value", [
    ("gen", "func", "x"),
    ("gen", "command", "gen"),
    ("solve", "config", "other.conf"),
    ("solve", "eps", "0.05"),  # abbreviations of --epsilon are not accepted
    ("solve", "help", "true"),
    ("gen", "warp_factor", "false"),
])
def test_config_file_rejects_keys_that_name_no_flag(tmp_path, capsys, command, key, value):
    conf = tmp_path / "bad.conf"
    conf.write_text(f"# comment\n{key} = {value}\n")
    code = run_cli(command, *REQUIRED.get(command, []), "--output", str(tmp_path / "o"),
                   "--config", str(conf))
    assert code == 1
    err = capsys.readouterr().err
    assert f"{conf}:2: unknown option '{key}'" in err
    assert list(tmp_path.iterdir()) == [conf]


def counted_calls(monkeypatch, name):
    """Calls of `fsgl.cli.<name>` from now on; each one only counts."""
    calls = []
    monkeypatch.setattr(f"fsgl.cli.{name}", lambda *args, **kwargs: calls.append(args))
    return calls


def test_gen_refuses_a_missing_output_directory_before_the_draw(tmp_path, capsys,
                                                                monkeypatch):
    calls = counted_calls(monkeypatch, "draw_instance")
    missing = tmp_path / "no" / "dir"
    assert (run_cli("gen", "--n", "8", "--output", str(missing / "d")), calls) == (1, [])
    assert f"error: --output: {missing} is not an existing directory" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--output", "--trace"])
def test_solve_refuses_a_missing_output_directory_before_the_solve(tmp_path, capsys,
                                                                   monkeypatch, flag):
    assert run_cli("gen", "--n", "8", "--k", "3", "--output", str(tmp_path / "d")) == 0
    calls = counted_calls(monkeypatch, "timed_solve")
    missing = tmp_path / "no" / "dir"
    code = run_cli("solve", "--input", str(tmp_path / "d.x.csv"), flag, str(missing / "t.csv"))
    assert (code, calls) == (1, [])
    assert f"error: {flag}: {missing} is not an existing directory" in capsys.readouterr().err


@pytest.mark.parametrize("parent", ["no/dir", "file"])
def test_bench_refuses_a_missing_output_directory_before_the_sweep(tmp_path, capsys,
                                                                   monkeypatch, parent):
    (tmp_path / "file").write_text("")
    calls = counted_calls(monkeypatch, "run_benchmark")
    missing = tmp_path / parent
    code = run_cli("bench", "--n", "12", "--trials", "1", "--ratios", "0.2",
                   "--output", str(missing / "b"))
    assert (code, calls) == (1, [])
    assert f"error: --output: {missing} is not an existing directory" in capsys.readouterr().err
    assert not list(tmp_path.glob("**/b.*"))
