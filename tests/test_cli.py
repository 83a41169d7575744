"""Command-line interface: subcommands, config files, exit codes."""

import argparse
import inspect
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fsgl.bench import run_benchmark
from fsgl.cli import build_parser, cli_main, parse_command_line
from fsgl.errors import NonFiniteObjective
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
    assert load_observations(tmp_path / "a.x.csv").shape == (12, 4)
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
])
def test_gen_rejects_bad_generator_parameters(tmp_path, capsys, args, message):
    assert run_cli("gen", "--n", "8", "--output", str(tmp_path / "d"), *args) == 1
    err = capsys.readouterr().err
    assert "error:" in err and message in err
    assert not (tmp_path / "d.x.csv").exists()


def test_gen_default_sample_count(tmp_path):
    run_cli("gen", "--n", "20", "--output", str(tmp_path / "d"))
    assert load_observations(tmp_path / "d.x.csv").shape == (20, 4)


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
    assert raw[0] == "generator,solver,ratio,trial,re,lambda2,edges,ms"
    assert len(raw) == 2
    summary = (tmp_path / "bench.summary.csv").read_text().splitlines()
    assert len(summary) == 2


def test_cheeger_check_passes_on_small_graphs(capsys):
    code = run_cli("cheeger-check", "--n", "7", "--trials", "5", "--seed", "2")
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("ok") >= 5
    assert "5/5" in out


def test_cheeger_check_takes_lambda2_from_the_sweep_eigensolve(monkeypatch, capsys):
    def full_spectrum(lap):
        raise AssertionError("cheeger-check ran a second eigensolve")
    monkeypatch.setattr("fsgl.cli.lambda2", full_spectrum)
    assert run_cli("cheeger-check", "--n", "7", "--trials", "5", "--seed", "2") == 0
    assert "5/5" in capsys.readouterr().out


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
    try:
        code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out.split(" ms=")[0], err, sorted(p.name for p in cwd.iterdir())


# Each value reaches its flag as written: a bad one fails as the flag
# fails, and an odd but valid one (an output file named 7) works.
@pytest.mark.parametrize("command, key, value, code", [
    ("gen", "k", "2.5", 2),
    ("gen", "mean_scale", "none", 2),
    ("solve", "budget", "1.5", 2),
    ("solve", "epsilon", "none", 2),
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
