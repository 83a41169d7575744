"""Instances, per-solve checks, span tracing and one timed solve.

Everything here runs inside one workload process (see worker.py), after
the BLAS thread count is pinned. The program under test is called only
through its public functions; tracing wraps those functions from the
outside and never edits the package.
"""

from __future__ import annotations

import gzip
import hashlib
import math
import time
import zlib
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import wraps

import numpy as np

import fsgl
from fsgl import (
    FsglError,
    ObservationSet,
    SolverConfig,
    WeightedGraph,
    complete_graph,
    gen_ground_truth,
    init_sparse_graph,
    relative_error,
    run_solver,
    sample_gmm,
    sample_mvt,
)
from fsgl.bench import default_budget

# Ground-truth and sampler parameters: the defaults of fsgl.bench.run_benchmark.
DENSITY = 0.2
RHO = 0.5
NU = 3.0
N_COMPONENTS = 3
MEAN_SCALE = 1.0
GENERATORS = ("gmm", "mvt")
WARMUP_N = 12
WARMUP_STEPS = 100

# Errors that count a solve as failed instead of ending the run.
SOLVE_ERRORS = (FsglError, np.linalg.LinAlgError, ValueError)


@dataclass(frozen=True)
class Workload:
    """One solve pipeline: node count, sample ratio K/N, start, selector.

    `solve_s` is the mean seconds of one solve on the machine the
    benchmark was tuned on (2-vCPU Xeon at 2.0 GHz). It only sizes a run:
    a run of S seconds solves a fixed number of instances, instance_count,
    so two runs of one seed do the same work and fail the same solves,
    whatever the speed of the code or the machine.
    """

    n: int
    ratio: float
    init: str          # "complete" or "sparse" (tree + default 3N budget)
    selector: str      # SolverConfig.solver_kind
    solve_s: float


WORKLOADS = {
    # The paper's baseline arm: graph mutation, spectral and scoring all
    # carry load; partition is idle.
    "dense-greedy-n30": Workload(30, 0.2, "complete", "greedy", 4.5),
    # The paper's fast pipeline at the size criterion 7 compares; most of a
    # step is partition_select, graph mutation is nearly idle.
    "sparse-recursive-n30": Workload(30, 0.2, "sparse", "recursive", 1.2),
    # K = N keeps the full eigenbasis (full eigh path) and the steps mostly
    # delete edges of a sparse start instead of weakening a dense one. Run
    # by hand; BENCHMARK.json leaves it out so that the two workloads it
    # lists get runs long enough to be steady on a shared 2-vCPU machine.
    "sparse-greedy-full-n30": Workload(30, 1.0, "sparse", "greedy", 3.0),
    # Seconds-long smoke workload for the benchmark's own tests.
    "tiny": Workload(10, 0.5, "sparse", "recursive", 0.5),
}


def instance_count(name: str, seconds: float) -> int:
    """Instances a run of `seconds` solves: instances 0 .. count-1 of its seed."""
    return max(2, math.ceil(seconds / WORKLOADS[name].solve_s))


@dataclass(frozen=True)
class Instance:
    index: int
    generator: str
    obs: ObservationSet
    truth: WeightedGraph


def _seeds(*entropy: int) -> tuple[int, int]:
    gt_ss, x_ss = np.random.SeedSequence(list(entropy)).spawn(2)
    return int(gt_ss.generate_state(1)[0]), int(x_ss.generate_state(1)[0])


def make_instance(name: str, seed: int, index: int, n: int | None = None) -> Instance:
    """Instance `index` of a workload, a pure function of (name, seed, index, n).

    Generators alternate by index, so every run draws from both. A node
    count other than the workload's draws from a separate stream.
    """
    wl = WORKLOADS[name]
    entropy = [seed % 2**64, zlib.crc32(name.encode()), index]
    if n is not None:
        entropy.append(n)
    n = wl.n if n is None else n
    s_gt, s_x = _seeds(*entropy)
    gt = gen_ground_truth(n, DENSITY, RHO, seed=s_gt)
    k = max(1, round(wl.ratio * n))
    generator = GENERATORS[index % len(GENERATORS)]
    if generator == "gmm":
        obs = sample_gmm(gt, k, N_COMPONENTS, MEAN_SCALE, seed=s_x)
    else:
        obs = sample_mvt(gt, k, NU, seed=s_x)
    return Instance(index, generator, obs, gt.w_star)


def warm_up(name: str, seed: int) -> None:
    """One short solve of a small instance on the workload's pipeline.

    It runs every code path and LAPACK routine the timed solves use, on an
    instance none of them sees. It is set-up, not measurement, so it stops
    after WARMUP_STEPS steps.
    """
    wl = WORKLOADS[name]
    inst = make_instance(name, seed, 0, n=WARMUP_N)
    cfg = replace(solver_config(wl), max_iters=WARMUP_STEPS)
    run_solver(initial_graph(wl, inst.obs), inst.obs, cfg)


def initial_graph(wl: Workload, obs: ObservationSet) -> WeightedGraph:
    if wl.init == "complete":
        return complete_graph(obs.n)
    return init_sparse_graph(obs.gram, default_budget(obs.n, None))


def solver_config(wl: Workload) -> SolverConfig:
    return SolverConfig(solver_kind=wl.selector)


# --- correctness -----------------------------------------------------------

def digest(trace, g: WeightedGraph) -> str:
    """SHA-256 of the per-step trace (edges, grad_h) and the learned graph."""
    h = hashlib.sha256()
    h.update(np.asarray(trace.edges_mn, dtype=np.int64).tobytes())
    h.update(np.asarray(trace.grad_h, dtype=np.float64).tobytes())
    m, n, w = g.edge_arrays()
    h.update(m.astype(np.int64).tobytes())
    h.update(n.astype(np.int64).tobytes())
    h.update(np.asarray(w, dtype=np.float64).tobytes())
    return h.hexdigest()


def check_solve(g0: WeightedGraph, g: WeightedGraph, trace,
                expected_digest: str | None = None) -> tuple[str, list[str]]:
    """Invariants every solve must keep, plus the recorded digest if given.

    Returns (digest, problems); an empty list means the solve passed.
    """
    problems = []
    added = set(g.edges) - set(g0.edges)
    if added:
        problems.append(f"{len(added)} edge(s) added, e.g. {min(added)}")
    for edge, w in g.edges.items():
        w0 = g0.edges.get(edge)
        if w0 is not None and not 0.0 <= w <= w0:
            problems.append(f"edge {edge} weight {w!r} outside [0, {w0!r}]")
            break
    h0, h1 = trace.initial_objective, trace.final_objective
    if not np.isfinite(h1):
        problems.append(f"final objective {h1!r} is not finite")
    elif not h1 <= h0:
        problems.append(f"final objective {h1!r} above initial {h0!r}")
    got = digest(trace, g)
    if expected_digest is not None and got != expected_digest:
        problems.append(f"digest {got[:16]} != recorded {expected_digest[:16]}")
    return got, problems


# --- tracing ---------------------------------------------------------------

class Tracer:
    """In-memory spans (name, start_ns, end_ns, parent index, solve id).

    Spans are recorded only while `active` is set, so calls made by the
    benchmark itself (checks, quality metrics) never show up. Counters
    are kept at the same boundaries as the spans.
    """

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.solve = -1
        self.active = False
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.solve)
            if on_result is not None:
                on_result(self, args, out)
            return out
        return traced

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_ns,end_ns,parent,solve\n")
            for name, start, end, parent, solve in self.spans:
                fh.write(f"{name},{start},{end},{parent},{solve}\n")


def _count_eigensolve(tracer, args, state):
    tracer.counts["retained_k"] += state.k


def _count_scored(tracer, args, scores):
    tracer.counts["edges_scored"] += scores.grad.shape[0]
    tracer.counts["ineligible"] += int(np.count_nonzero(~np.isfinite(scores.grad)))


def _patch_table():
    """(module or class, attribute, span name, counter) for each wrapped call.

    Each entry is a public function the solve path looks up at call time,
    so replacing the attribute routes every call through the span wrapper.
    """
    return [
        (fsgl.solver, "build_laplacian", "graph.build_laplacian", None),
        (fsgl.objective, "build_laplacian", "graph.build_laplacian", None),
        (fsgl.graph.WeightedGraph, "edge_arrays", "graph.edge_arrays", None),
        (fsgl.solver, "weaken_edge", "graph.weaken_edge", None),
        (fsgl.solver, "smallest_eigenpairs", "spectral.smallest_eigenpairs", _count_eigensolve),
        (fsgl.solver, "score_edges", "objective.score_edges", _count_scored),
        (fsgl.partition, "score_edges", "objective.score_edges", _count_scored),
        (fsgl.solver, "best_scored", "objective.best_scored", None),
        (fsgl.solver, "objective_value", "objective.objective_value", None),
        (fsgl.partition, "partition_select", "partition.partition_select", None),
    ]


@contextmanager
def instrumented(tracer: Tracer):
    """Route the solve path's public functions through `tracer`."""
    saved = []
    try:
        for owner, attr, name, counter in _patch_table():
            original = getattr(owner, attr, None)
            if original is None:  # gone from this version: its metrics read 0
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, counter))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        lo = hi = None
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if hi is None or c_start > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_start, c_end
            else:
                hi = max(hi, c_end)
        if hi is not None:
            covered += hi - lo
        out.append(end - start - covered)
    return out


def layer_summary(tracer: Tracer) -> dict[str, float]:
    """Per-span-name totals (ms), self totals (ms), call counts and medians (us)."""
    spans = tracer.spans
    own = self_times(spans)
    total = defaultdict(int)
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    durations = defaultdict(list)
    for (name, start, end, _, _), s in zip(spans, own):
        total[name] += end - start
        self_ns[name] += s
        calls[name] += 1
        durations[name].append(end - start)
    out = {}
    for name in total:
        out[f"{name}.ms"] = total[name] / 1e6
        out[f"{name}.self_ms"] = self_ns[name] / 1e6
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.us_p50"] = float(np.median(durations[name])) / 1e3
    return out


# --- solving ---------------------------------------------------------------

def attempt(name: str, inst: Instance, expected: str | None, tracer: Tracer | None = None,
            solve=run_solver) -> dict:
    """Init + solve one instance, timed, then check it outside the timing."""
    wl = WORKLOADS[name]
    cfg = solver_config(wl)
    rec = {"index": inst.index, "generator": inst.generator, "ok": False, "error": "",
           "problems": [], "steps": 0, "converged": False, "ms": 0.0}
    init = initial_graph
    if tracer is not None:
        init = tracer.wrap("init_graph", initial_graph)
        solve = tracer.wrap("solver.run_solver", solve)
        tracer.solve = inst.index
        tracer.active = True
    t0 = time.perf_counter()
    try:
        g0 = init(wl, inst.obs)
        g, trace = solve(g0, inst.obs, cfg)
        t2 = time.perf_counter()
    except SOLVE_ERRORS as exc:
        rec["ms"] = (time.perf_counter() - t0) * 1e3
        rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec
    finally:
        if tracer is not None:
            tracer.active = False
    rec["ms"] = (t2 - t0) * 1e3
    rec["steps"] = len(trace)
    rec["converged"] = bool(trace.converged)
    rec["digest"], rec["problems"] = check_solve(g0, g, trace, expected)
    rec["ok"] = not rec["problems"]
    learned, true = set(g.edges), set(inst.truth.edges)
    rec["re"] = relative_error(g, inst.truth)
    rec["tp"], rec["pred"], rec["true"] = len(learned & true), len(learned), len(true)
    rec["step_ms"] = np.diff(np.asarray(trace.ms), prepend=0.0)
    rec["edges_mean"] = float(np.mean(trace.edge_counts)) if len(trace) else 0.0
    return rec

