"""Tests of the benchmark itself: harness checks, span maths, the command."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
from fsgl import InvalidBudget, WeightedGraph  # noqa: E402


def _bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tiny_workload_runs_end_to_end():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = _bench("--workload", "tiny", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert out["correct"] is True
    assert out["attempted"] == harness.instance_count("tiny", 1)
    assert out["failed"] == 0
    assert list(out["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in out["metrics"].values())

    out = _bench("--workload", "tiny", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert out["correct"] is True
    assert list(out["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert out["metrics"]["partition.selects"]["value"] > 0


def _solved():
    inst = harness.make_instance("tiny", 5, 0)
    wl = harness.WORKLOADS["tiny"]
    g0 = harness.initial_graph(wl, inst.obs)
    g, trace = harness.run_solver(g0, inst.obs, harness.solver_config(wl))
    return g0, g, trace


def test_digest_check_rejects_perturbed_graph():
    g0, g, trace = _solved()
    digest, problems = harness.check_solve(g0, g, trace)
    assert problems == []
    assert harness.check_solve(g0, g, trace, digest) == (digest, [])

    edge, w = next(iter(g.edges.items()))
    nudged = WeightedGraph(g.n, {**g.edges, edge: w * (1 - 1e-15)})
    assert nudged.edges != g.edges
    _, problems = harness.check_solve(g0, nudged, trace, digest)
    assert any("digest" in p for p in problems)

    missing = next(e for e in [(a, b) for a in range(g.n) for b in range(a + 1, g.n)]
                   if e not in g0.edges)
    grown = WeightedGraph(g.n, {**g.edges, missing: 0.5, edge: g0.edges[edge] + 1.0})
    _, problems = harness.check_solve(g0, grown, trace)
    assert any("added" in p for p in problems)
    assert any("outside" in p for p in problems)


def test_self_time_on_synthetic_span_tree():
    spans = [
        ("root", 0, 100, -1, 0),
        ("a", 10, 30, 0, 0),
        ("b", 25, 50, 0, 0),     # overlaps a: root's children cover 10..50
        ("a.leaf", 12, 20, 1, 0),
        ("late", 90, 120, 0, 0),  # runs past its parent: only 90..100 counts
        ("other", 200, 210, -1, 1),
    ]
    assert harness.self_times(spans) == [100 - 40 - 10, 20 - 8, 25, 8, 30, 10]
    tracer = harness.Tracer()
    tracer.spans.extend(spans)
    summary = harness.layer_summary(tracer)
    assert summary["root.self_ms"] == pytest.approx(50e-6)
    assert summary["a.ms"] == pytest.approx(20e-6)


def test_tracer_records_nested_calls_and_restores_functions():
    import fsgl.solver

    original = fsgl.solver.score_edges
    tracer = harness.Tracer()
    with harness.instrumented(tracer):
        assert fsgl.solver.score_edges is not original
        inst = harness.make_instance("tiny", 5, 1)
        rec = harness.attempt("tiny", inst, None, tracer)
    assert fsgl.solver.score_edges is original
    assert rec["ok"]
    names = {s[0] for s in tracer.spans}
    assert {"init_graph", "solver.run_solver", "partition.partition_select",
            "objective.score_edges", "spectral.smallest_eigenpairs"} <= names
    own = harness.self_times(tracer.spans)
    roots = [i for i, s in enumerate(tracer.spans) if s[3] < 0]
    assert sum(own) == sum(tracer.spans[i][2] - tracer.spans[i][1] for i in roots)
    assert tracer.counts["edges_scored"] > 0


def test_raising_solve_counts_toward_failed_frac():
    def broken(g0, obs, cfg):
        raise InvalidBudget("synthetic failure")

    good = harness.attempt("tiny", harness.make_instance("tiny", 5, 0), None)
    assert good["ok"]
    bad = harness.attempt("tiny", harness.make_instance("tiny", 5, 1), None, solve=broken)
    assert not bad["ok"] and bad["error"] == "InvalidBudget: synthetic failure"
    metrics = run.end_to_end([good, bad])
    assert metrics["failed_frac"] == (0.5, "frac")
    assert metrics["solves_per_s"][0] == pytest.approx(1e3 / (good["ms"] + bad["ms"]))


def test_speed_probe_samples_and_restores_affinity():
    import os
    import time

    import worker

    allowed = os.sched_getaffinity(0)
    with worker.SpeedProbe() as probe:
        assert os.sched_getaffinity(0) == {max(allowed)}
        time.sleep(4 * worker.PROBE_EVERY_S)
    assert os.sched_getaffinity(0) == allowed
    assert probe.samples_ms and probe.mean_ms() > 0


def test_run_size_is_fixed_by_seconds():
    assert harness.instance_count("dense-greedy-n30", 45) == 10
    assert harness.instance_count("tiny", 0.01) == 2


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(10) is None
    assert run.tail_percentile(20) is None
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(1000) == 99
