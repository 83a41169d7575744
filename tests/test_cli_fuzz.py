"""Seeded fuzz of the CLI: every drawn input exits 0, 1 or 2, never with a
traceback, and never with a NaN or an infinity in what a success writes.

The draws use stdlib `random` only. Each one runs `cli_main` in-process
on a subcommand with its required options and a random subset of the
others, on inputs of at most 8 nodes. Every option takes a usual value,
except that most draws give one option, and some two, a value from a
fixed set of edge classes, so that each edge value usually meets
otherwise valid input and reaches the code behind the parser.
"""

import random
import re
from pathlib import Path

import pytest

from doubles import exit_code
from fsgl.cli import cli_main

SEED = 17
DRAWS = {"gen": 80, "solve": 120, "bench": 150, "cheeger-check": 40}

# The edge classes every numeric option draws from.
EDGES = ["0", "-1", "1", "2", "1e9", "1e300", "1e-300", "nan", "inf", "-inf",
         "abc", ""]
# An integer option takes 1e9 and 1e300 written out, so that the size
# checks see them, not the parser.
INT_EDGES = [{"1e9": "1000000000", "1e300": str(10 ** 300)}.get(v, v) for v in EDGES]
NON_FINITE = re.compile(r"(?<![a-z])(nan|inf)(?![a-z])", re.IGNORECASE)

# Each option: (usual values, edge values); None stands for a bare flag,
# and "{out}" for the draw's own output prefix.
GEN_OPTIONS = {
    "--seed": (["0", "3"], INT_EDGES), "--generator": (["gmm", "mvt"], ["abc", ""]),
    "--dof": (["3", "5"], EDGES), "--components": (["1", "3"], INT_EDGES),
    "--mean-scale": (["1", "0.5"], EDGES), "--density": (["0.2", "0.5"], EDGES),
    "--rho": (["0.5", "1"], EDGES),
}
SOLVER_OPTIONS = {
    "--epsilon": (["0.01", "0.1"], EDGES), "--alpha": (["0.5", "1"], EDGES),
    "--gamma": (["0.5", "0"], EDGES), "--mu": (["0.2", "0"], EDGES),
    "--budget": (["2", "6"], INT_EDGES), "--refresh": (["1", "3"], INT_EDGES),
    "--exact-logdet": ([None], [None]), "--no-exact-logdet": ([None], [None]),
}
SIZES = (["2", "5", "8"], INT_EDGES)
# A large --trials is a slow run, not a crash, so it takes no large value.
TRIALS = (["1", "2"], ["-1", "0", "abc"])
SOLVERS = (["greedy", "recursive"], ["abc"])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Observation and truth files; the first two of each list are the
    well-formed `six` and `eight` pair, the rest malformed or missing."""
    d = tmp_path_factory.mktemp("fuzz")
    assert cli_main(["gen", "--n", "6", "--k", "3", "--seed", "1",
                     "--output", str(d / "six")]) == 0
    assert cli_main(["gen", "--n", "8", "--k", "2", "--seed", "2",
                     "--generator", "mvt", "--output", str(d / "eight")]) == 0
    texts = {
        "ragged.csv": "1,2,3\n4,5\n",
        "words.csv": "1,2\nabc,3\n",
        "empty.csv": "",
        "nan.csv": "nan,1\n2,3\n1,1\n",
        "inf.csv": "inf,1\n2,3\n1,1\n",
        "huge.csv": "1e300,-1e300\n-1e300,1e300\n1e300,1e300\n",
        "tiny.csv": "1e-300,-1e-300\n-1e-300,1e-300\n0,1e-300\n",
        "one_row.csv": "1,2,3\n",
        "one_node.w.csv": "m,n,w\n",
        "bad_header.w.csv": "a,b,c\n0,1,1.0\n",
        "bad_row.w.csv": "m,n,w\n0,1\n",
        "nan_weight.w.csv": "m,n,w\n0,1,nan\n",
        "neg_weight.w.csv": "m,n,w\n0,1,-1.0\n",
        "self_loop.w.csv": "m,n,w\n1,1,1.0\n",
        "duplicate.w.csv": "m,n,w\n0,1,1.0\n1,0,2.0\n",
        "out_of_range.w.csv": "m,n,w\n0,99,1.0\n",
        "zero_weight.w.csv": "m,n,w\n0,1,0.0\n",
        "bad.mtx": "%%MatrixMarket matrix array real general\n2 2\n1\n",
        "words.mtx": "abc\n",
    }
    for name, text in texts.items():
        (d / name).write_text(text)
    (d / "a_directory").mkdir()
    inputs = [d / n for n in ("six.x.csv", "eight.x.csv", "ragged.csv", "words.csv",
                              "empty.csv", "nan.csv", "inf.csv", "huge.csv",
                              "tiny.csv", "one_row.csv", "bad.mtx", "words.mtx",
                              "missing.csv", "a_directory")]
    truths = [d / n for n in ("six.w.csv", "eight.w.csv", "one_node.w.csv",
                              "bad_header.w.csv", "bad_row.w.csv",
                              "nan_weight.w.csv", "neg_weight.w.csv",
                              "self_loop.w.csv", "duplicate.w.csv",
                              "out_of_range.w.csv", "zero_weight.w.csv",
                              "bad.mtx", "empty.csv", "missing.w.csv")]
    return {"dir": d, "inputs": inputs, "truths": truths}


def _commands(files):
    """Per subcommand: the options every draw gives, the options a draw
    gives at 30%, and the files a success writes (for solve, the options
    that name them)."""
    bad_dir = str(files["dir"] / "no_such_dir" / "f")
    bad_paths = [str(files["dir"] / "a_directory"), bad_dir]
    inputs, truths = files["inputs"], files["truths"]
    return {
        "gen": ({"--n": SIZES, "--output": (["{out}"], [bad_dir])},
                {"--k": (["3", "4"], INT_EDGES), **GEN_OPTIONS},
                ["{out}.x.csv", "{out}.w.csv"]),
        "solve": ({"--input": (inputs[:2], inputs[2:]), "--solver": SOLVERS},
                  {"--truth": (truths[:2], truths[2:]),
                   "--output": (["{out}.graph.csv"], bad_paths),
                   "--trace": (["{out}.trace.csv"], bad_paths), **SOLVER_OPTIONS},
                  ["--output", "--trace"]),
        "bench": ({"--n": (["3", "5"], INT_EDGES), "--trials": TRIALS,
                   "--ratios": (["0.5", "1", "0.5,1"], [*EDGES, "0.5,nan", "1,1e9"]),
                   "--output": (["{out}"], [bad_dir])},
                  {"--solver": SOLVERS, **GEN_OPTIONS, **SOLVER_OPTIONS},
                  ["{out}.raw.csv", "{out}.summary.csv"]),
        "cheeger-check": ({"--n": SIZES, "--trials": TRIALS},
                          {"--density": (["0.35", "1"], EDGES),
                           "--seed": (["0", "3"], INT_EDGES)},
                          []),
    }


def _draw(rng, command, files, out):
    """argv for one draw, and the files a success of it writes."""
    always, sometimes, writes = _commands(files)[command]
    chosen = {**always, **{f: v for f, v in sometimes.items() if rng.random() < 0.3}}
    odd = rng.sample(sorted(chosen), min(len(chosen), rng.choice([0, 1, 1, 1, 2])))
    values = {flag: rng.choice(edges if flag in odd else usual)
              for flag, (usual, edges) in chosen.items()}
    values = {flag: v if v is None else str(v).format(out=out)
              for flag, v in values.items()}
    in_config = [f for f in values if f in sometimes and rng.random() < 0.2]
    argv = [command] + [flag if v is None else f"{flag}={v}"
                        for flag, v in values.items() if flag not in in_config]
    if in_config or rng.random() < 0.05:
        lines = [f"{f[2:].replace('-', '_')} = {'true' if v is None else v}"
                 for f, v in values.items() if f in in_config]
        if rng.random() < 0.2:
            lines.append(rng.choice(["no equals sign", "eps = 0.1", "= 3",
                                     "help = true"]))
        config = out.with_suffix(".cfg")
        config.write_text("\n".join(lines) + "\n")
        argv.append(f"--config={config}")
    if command == "solve":
        return argv, [values[f] for f in writes if f in values]
    return argv, [w.format(out=out) for w in writes]


@pytest.mark.parametrize("command", list(DRAWS))
def test_cli_fuzz_exits_cleanly(command, files, tmp_path, capsys):
    rng = random.Random(f"{SEED}-{command}")
    outcomes = set()
    for i in range(DRAWS[command]):
        out = tmp_path / f"draw{i}"
        argv, written = _draw(rng, command, files, out)
        code = exit_code(argv)
        captured = capsys.readouterr()
        outcomes.add(code)
        assert code in (0, 1, 2), (argv, code, captured.err)
        if code == 1:
            assert "error:" in captured.err, (argv, captured.err)
        if code == 0:
            texts = [captured.out] + [Path(p).read_text() for p in written]
            assert not any(NON_FINITE.search(t) for t in texts), (argv, texts)
    assert outcomes == {0, 1, 2}, outcomes
