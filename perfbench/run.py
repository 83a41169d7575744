"""fsgl benchmark: closed-loop solves of seeded instances, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ./src, never
from an installed copy. Every measurement happens in a fresh worker
process (worker.py) with one BLAS thread, solving one instance at a time:
init graph, then run_solver, timed together. Instances come from
fsgl.datagen and are a pure function of (workload, seed, index); the
program only sees the observations. A run solves a fixed number of
instances, sized from --seconds by the workload's expected solve time, so
two runs of one seed do the same work and fail the same solves. Each
solve is checked: no edge added, weights within [0, initial], final
objective finite and not above the initial one, and at the recorded seed
the SHA-256 of the step trace and learned graph must match
perfbench/digests.json.

--trace 0 prints the end-to-end metrics. Gated ones (BENCHMARK.json):
  norm_steps_per_s  steps_per_s times probe_ms / PROBE_QUIET_MS: the
                    throughput with the host's load during the run
                    divided out (see worker.SpeedProbe)
  setup_s           process start to first timed solve (imports, instance
                    generation, warm-up solve); median of seven processes
  peak_rss_mb       peak resident memory of the measuring process
  re_mean           mean relative error over the solved instances (1.0 is
                    the empty graph)
Printed only: steps_per_s (accepted solver steps / seconds in init +
run_solver, as measured; on a shared host two runs of one seed differ by
20%), probe_ms (mean probe-kernel time during the solves), solves_per_s
and solve_ms_p50 (and the highest percentile with ten samples beyond it),
which move with how many steps each instance needs, and failed_frac,
support_precision and support_recall, which can be zero.

--trace 1 runs an untraced worker sized for half of --seconds, then a
traced worker on the same instances, and prints per-layer metrics (totals
over the traced solves unless named per-something) plus the tracing
overhead, with each worker's time scaled by its probe_ms. Spans go to
.bench_out/trace-<workload>-seed<n>.csv.gz.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up-only processes run before and again after the timed worker, so
# setup_s, the median of these and the timed worker's own set-up, samples
# the host's load at both ends of the run.
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0       # whole command, all workers included
# worker._probe_kernel's time on an unloaded 2-vCPU Xeon at 2.0 GHz. It
# only scales norm_steps_per_s to about what steps_per_s reads there.
PROBE_QUIET_MS = 0.5
LAYERS = ("solver", "graph", "spectral", "objective", "partition", "init_graph")


class WorkerFailed(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; return its report and its spawn time."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {args} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {args} exited {proc.returncode}")
    return json.loads(lines[-1]), t_spawn


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of n samples beyond it."""
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    return p if p > 50 else None


def end_to_end(records: list[dict]) -> dict[str, tuple[float, str]]:
    """End-to-end metrics of one timed worker, by name: (value, unit)."""
    solved = [r for r in records if r["ok"]]
    seconds = sum(r["ms"] for r in records) / 1e3
    tp = sum(r["tp"] for r in solved)
    pred = sum(r["pred"] for r in solved)
    true = sum(r["true"] for r in solved)
    ms = [r["ms"] for r in solved]
    out = {
        "steps_per_s": (sum(r["steps"] for r in solved) / seconds, "1/s"),
        "solves_per_s": (len(solved) / seconds, "1/s"),
        "solve_ms_p50": (percentile(ms, 50) if ms else float("nan"), "ms"),
        "failed_frac": ((len(records) - len(solved)) / len(records), "frac"),
        "re_mean": (statistics.fmean(r["re"] for r in solved) if solved else float("nan"),
                    "ratio"),
        "support_precision": (tp / pred if pred else float("nan"), "frac"),
        "support_recall": (tp / true if true else float("nan"), "frac"),
    }
    p = tail_percentile(len(ms))
    if p is not None:
        out[f"solve_ms_p{p}"] = (percentile(ms, p), "ms")
    return out


def layer_self(spans_by_name: dict[str, float]) -> dict[str, float]:
    """Self time (ms) of each layer: its spans' self times, summed."""
    out = {layer: 0.0 for layer in LAYERS}
    for key, value in spans_by_name.items():
        if key.endswith(".self_ms"):
            out[key.split(".")[0]] += value
    return out


def per_layer(untraced: dict, traced: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced worker, with the untraced one as reference."""
    lay = traced["layers"]
    cnt = traced["counts"]
    recs = [r for r in traced["records"] if r["ok"]]
    steps = sum(r["steps"] for r in recs)
    solves = len(recs)

    def get(key):
        return lay.get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    self_by_layer = layer_self(lay)
    eigensolves = get("spectral.smallest_eigenpairs.calls")
    scored = cnt.get("edges_scored", 0.0)
    traced_ms = sum(r["ms"] for r in traced["records"])
    untraced_ms = sum(r["ms"] for r in untraced["records"])
    return {
        "solver.solves": (solves, "count"),
        "solver.accepted_steps": (steps, "count"),
        "solver.max_iters_stops": (sum(1 for r in recs if not r["converged"]), "count"),
        "solver.ms_per_step": (ratio(get("solver.run_solver.ms"), steps), "ms"),
        "solver.step_ms_p50": (untraced["step_ms_p50"], "ms"),
        "solver.step_ms_p99": (untraced["step_ms_p99"], "ms"),
        "solver.self_ms": (self_by_layer["solver"], "ms"),
        "graph.weaken_edge.calls": (get("graph.weaken_edge.calls"), "count"),
        "graph.weaken_edge.ms": (get("graph.weaken_edge.ms"), "ms"),
        "graph.build_laplacian.ms": (get("graph.build_laplacian.ms"), "ms"),
        "graph.edge_arrays.self_ms": (get("graph.edge_arrays.self_ms"), "ms"),
        "graph.edges_per_step_mean": (ratio(sum(r["edges_mean"] * r["steps"] for r in recs),
                                            steps), "count"),
        "graph.self_ms": (self_by_layer["graph"], "ms"),
        "spectral.eigensolves": (eigensolves, "count"),
        "spectral.eigensolves_per_step": (ratio(eigensolves, steps), "count"),
        "spectral.ms": (get("spectral.smallest_eigenpairs.ms"), "ms"),
        "spectral.us_per_call_p50": (get("spectral.smallest_eigenpairs.us_p50"), "us"),
        "spectral.retained_k": (ratio(cnt.get("retained_k", 0.0), eigensolves), "count"),
        "objective.score_edges.ms": (get("objective.score_edges.ms"), "ms"),
        "objective.edges_scored": (scored, "count"),
        "objective.ns_per_edge_scored": (ratio(get("objective.score_edges.ms") * 1e6, scored),
                                         "ns"),
        "objective.ineligible_frac": (ratio(cnt.get("ineligible", 0.0), scored), "frac"),
        "objective.best_scored.ms": (get("objective.best_scored.ms"), "ms"),
        "objective.objective_value.ms": (get("objective.objective_value.ms"), "ms"),
        "objective.self_ms": (self_by_layer["objective"], "ms"),
        "partition.selects": (get("partition.partition_select.calls"), "count"),
        "partition.ms": (get("partition.partition_select.ms"), "ms"),
        "partition.self_ms": (self_by_layer["partition"], "ms"),
        "partition.us_per_select_p50": (get("partition.partition_select.us_p50"), "us"),
        "partition.cache_entries": (traced["partition_cache_entries"], "count"),
        "init_graph.ms": (ratio(get("init_graph.ms"), solves), "ms"),
        "datagen.ms": (traced["datagen_ms"], "ms"),
        # Each worker's time divided by its probe_ms, so that a change in
        # host load between the two workers is not read as tracing cost.
        "trace.overhead_frac": (ratio(traced_ms / traced["probe_ms"],
                                      untraced_ms / untraced["probe_ms"]) - 1.0, "frac"),
        "trace.self_sum_ms": (sum(self_by_layer.values()), "ms"),
        "trace.untraced_ms": (untraced_ms, "ms"),
        "trace.spans": (traced["spans"], "count"),
    }


def solve_lines(records: list[dict]) -> list[str]:
    lines = []
    for r in records:
        if r["error"]:
            status = f"FAILED {r['error']}"
        elif r["problems"]:
            status = "FAILED check: " + "; ".join(r["problems"])
        else:
            status = "ok"
        stop = "converged" if r["converged"] else ("max_iters" if not r["error"] else "-")
        lines.append(f"  solve {r['index']:4d} {r['generator']:<4} steps {r['steps']:6d} "
                     f"stop {stop:<9} {r['ms']:10.1f} ms  digest "
                     f"{r.get('digest', '-')[:16]:<16}  {status}")
    return lines


def table(metrics: dict[str, tuple[float, str]]) -> list[str]:
    return [f"  {name:<32} {value:>16.6g} {unit}" for name, (value, unit) in metrics.items()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fsgl" / "__init__.py").is_file():
        print(f"no fsgl sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            # Both workers solve the same instances, each in its own process,
            # so neither inherits the other's memo caches and the time gap
            # between them is the tracing overhead.
            half = ["--seconds", str(args.seconds / 2)]
            untraced, _ = spawn(common + half, deadline)
            traced, _ = spawn(common + half + ["--trace"], deadline)
            runs = [untraced, traced]
        else:
            common += ["--seconds", str(args.seconds)]
            setups = [spawn(common + ["--setup-only"], deadline)
                      for _ in range(SETUP_PROBES)]
            timed, t_spawn = spawn(common, deadline)
            setups += [spawn(common + ["--setup-only"], deadline)
                       for _ in range(SETUP_PROBES)]
            runs = [timed]
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    env = runs[0]["env"]
    print(f"fsgl benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}; closed loop, one process, one solve at a time")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items() if k != "threads")
          + ", threads " + ", ".join(f"{k}={v}" for k, v in env["threads"].items()))
    records = [r for run in runs for r in run["records"]]
    for i, run in enumerate(runs):
        label = ("traced" if i else "untraced") if args.trace else "timed"
        print(f"{label} worker: {len(run['records'])} solves, "
              f"{run['digests_checked']} checked against recorded digests"
              + (f" ({run['no_digest']})" if run["no_digest"] else ""))
        print("\n".join(solve_lines(run["records"])))
    if args.trace:
        metrics = per_layer(untraced, traced)
        print(f"per-layer metrics ({traced['trace_file']}):")
        print("\n".join(table(metrics)))
        total = metrics["trace.self_sum_ms"][0]
        print("self time by layer (traced):")
        for layer, value in layer_self(traced["layers"]).items():
            print(f"  {layer:<12} {value:12.1f} ms  {100 * value / total if total else 0:5.1f}%")
    else:
        ready = [s["t_ready"] - t for s, t in setups] + [timed["t_ready"] - t_spawn]
        metrics = end_to_end(timed["records"])
        metrics["setup_s"] = (statistics.median(ready), "s")
        metrics["peak_rss_mb"] = (timed["peak_rss_mb"], "MB")
        metrics["probe_ms"] = (timed["probe_ms"], "ms")
        metrics["norm_steps_per_s"] = (metrics["steps_per_s"][0] * timed["probe_ms"]
                                       / PROBE_QUIET_MS, "1/s")
        print(f"end-to-end metrics ({sum(1 for r in records if r['ok'])} solved samples):")
        print("\n".join(table(metrics)))

    gated = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in gated["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": not any(r["problems"] for r in records),
        "attempted": len(records),
        "failed": sum(1 for r in records if not r["ok"]),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names},
    }
    undefined = [name for name in names if not math.isfinite(metrics[name][0])]
    if undefined:
        print(f"benchmark failed: no value for {undefined} (no solve succeeded)", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
