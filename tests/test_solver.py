"""Solver configuration, trace bookkeeping, and the greedy loop."""

import logging
import pickle
import re
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from doubles import counted_eigensolves, spy, traced_peak
from fsgl.datagen import draw_instance, gen_ground_truth, sample_gmm
from fsgl.errors import FsglError, NonFiniteInput, NonFiniteObjective
from fsgl.graph import (Laplacian, ObservationSet, WeightedGraph, build_laplacian,
                        complete_graph, is_connected, weaken_edge)
from fsgl.init_graph import default_budget, init_sparse_graph, initial_graph
from fsgl.objective import EdgeScores, objective_value, score_edges, smoothness_trace
from fsgl.partition import partition_select
from fsgl.solver import (
    _ROW,
    SolverConfig,
    SolveTrace,
    compute_state,
    greedy_step,
    run_solver,
)
from fsgl.spectral import smallest_eigenpairs


def small_instance(seed, n=12, k=3):
    gt = gen_ground_truth(n, 0.3, seed=seed)
    obs = sample_gmm(gt, k, seed=seed + 1)
    return obs


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SolverConfig(alpha=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(gamma=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(mu=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(refresh_interval=0)
    with pytest.raises(ValueError, match="max_iters"):
        SolverConfig(max_iters=-1)
    with pytest.raises(ValueError):
        SolverConfig(solver_kind="random")
    for name in ("epsilon", "alpha", "gamma", "mu"):
        for bad in (np.nan, np.inf, "0.1", None, 1 + 2j, [0.5], 10**400):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SolverConfig(**{name: bad})
    for name in ("refresh_interval", "max_iters"):
        for bad in (1.5, 2.0, True, "3"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                SolverConfig(**{name: bad})
        assert getattr(SolverConfig(**{name: np.int64(4)}), name) == 4
    for name in ("epsilon", "alpha", "gamma", "mu"):
        for bad in (True, False, np.True_):
            with pytest.raises(ValueError, match=f"{name} must be finite and not a bool"):
                SolverConfig(**{name: bad})
    for bad in ("false", 0.5, [0], 1, None):
        with pytest.raises(ValueError, match="exact_logdet must be a bool"):
            SolverConfig(exact_logdet=bad)
    assert SolverConfig(exact_logdet=np.True_).exact_logdet
    assert SolverConfig().epsilon == 0.01


@pytest.mark.parametrize("start_nodes", [5, 10])
def test_run_solver_rejects_start_graph_of_another_size(start_nodes):
    obs = small_instance(0, n=8)
    with pytest.raises(ValueError, match=f"{start_nodes} nodes .* 8 rows"):
        run_solver(complete_graph(start_nodes), obs, SolverConfig())


def test_compute_state_sizes_basis():
    g = complete_graph(10)
    cfg = SolverConfig()
    assert compute_state(g, cfg, 5).k == 5
    assert compute_state(g, cfg, 1).k == 3       # floored at 3
    assert compute_state(g, cfg, 50).k == 10     # capped at N


def test_greedy_step_picks_global_argmin():
    for seed in range(10):
        obs = small_instance(seed)
        g = complete_graph(obs.n)
        cfg = SolverConfig()
        state = compute_state(g, cfg, obs.k)
        sel = greedy_step(g, obs.gram, state, cfg)
        if sel is None:
            continue
        edge, grad, row = sel
        assert grad < 0.0
        m_arr, n_arr, _ = g.edge_arrays()
        assert edge == (m_arr[row], n_arr[row])
        # no other edge, scored on its own, scores strictly lower
        for (m, n), w in g.edges.items():
            one = score_edges(state, obs.gram, np.array([m]), np.array([n]),
                              np.array([w]), cfg)
            assert grad <= one.grad[0] + 1e-15


def test_greedy_step_tie_breaks_lexicographic(monkeypatch):
    import fsgl.solver

    g = WeightedGraph(3, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})

    def step(grads):
        k = len(grads)
        fake = EdgeScores(np.ones(k), np.zeros(k), np.asarray(grads, dtype=np.float64))
        monkeypatch.setattr(fsgl.solver, "score_edges", lambda *args: fake)
        return greedy_step(g if k else WeightedGraph(3), None, None, SolverConfig())

    sel = step([-1.0, -1.0, -1.0])
    assert sel == ((0, 1), -1.0, 0)  # first minimum wins on sorted arrays
    assert type(sel[0][0]) is int and type(sel[1]) is float and type(sel[2]) is int
    assert step([0.5, -1.0, -1.0]) == ((0, 2), -1.0, 1)
    # a selection needs a finite, negative winning score
    for grads in ([np.inf] * 3, [0.0, 0.5, np.inf], [np.nan, -1.0, -1.0],
                  [-np.inf, -1.0, 0.0]):
        assert step(grads) is None, grads
    assert step([]) is None


@pytest.mark.parametrize("kind", ["greedy", "recursive"])
@pytest.mark.parametrize("max_iters", [4, 20000])
def test_both_arms_select_only_through_the_public_selectors(kind, max_iters, monkeypatch):
    import fsgl.partition
    import fsgl.solver

    calls = {"greedy": 0, "recursive": 0}

    def counted(arm, real):
        def wrapper(*args, **kwargs):
            calls[arm] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fsgl.solver, "greedy_step",
                        counted("greedy", fsgl.solver.greedy_step))
    monkeypatch.setattr(fsgl.partition, "partition_select",
                        counted("recursive", fsgl.partition.partition_select))
    obs = small_instance(3, n=10, k=3)
    _, trace = run_solver(complete_graph(obs.n), obs,
                          SolverConfig(solver_kind=kind, max_iters=max_iters))
    assert trace.stop_reason == ("max_iters" if max_iters == 4 else "no_descent")
    assert calls[kind] == len(trace) + trace.converged
    assert calls["recursive" if kind == "greedy" else "greedy"] == 0


def test_run_solver_accepted_steps_all_negative():
    obs = small_instance(3)
    g0 = complete_graph(obs.n)
    g, trace = run_solver(g0, obs, SolverConfig())
    assert len(trace) > 0
    assert all(v < 0.0 for v in trace.grad_h)
    assert trace.edge_counts[-1] == g.edge_count


def test_run_solver_objective_monotone_with_fresh_snapshots():
    # refresh_interval=1 certifies every step, so the exact objective
    # can never increase along the trace
    for seed in range(5):
        obs = small_instance(seed, n=10, k=4)
        g0 = init_sparse_graph(obs.gram, 8)
        cfg = SolverConfig(refresh_interval=1)
        g, trace = run_solver(g0, obs, cfg)
        replayed, values = g0, [objective_value(g0, obs.gram, cfg)]
        for edge in trace.edges_mn:
            replayed = weaken_edge(replayed, edge, cfg.epsilon)
            values.append(objective_value(replayed, obs.gram, cfg))
        assert replayed.edges == g.edges
        assert values[-1] == trace.final_objective
        drops = np.diff(values)
        assert np.all(drops <= 1e-8), f"seed {seed}: objective rose {drops.max()}"


@pytest.mark.parametrize("kind", ["greedy", "recursive"])
def test_run_solver_returns_its_own_graph_without_a_copy(kind, monkeypatch):
    obs = small_instance(5, n=10, k=3)
    g0 = complete_graph(obs.n) if kind == "greedy" else init_sparse_graph(obs.gram, 8)
    cfg = SolverConfig(solver_kind=kind, epsilon=0.05)
    builds, from_arrays = [], WeightedGraph.from_arrays.__func__

    def counted(cls, *args):
        builds.append(args)
        return from_arrays(cls, *args)

    monkeypatch.setattr(WeightedGraph, "from_arrays", classmethod(counted))
    g, trace = run_solver(g0, obs, cfg)
    monkeypatch.undo()
    assert builds == [] and len(set(trace.edge_counts)) > 1  # deletions included
    replayed = g0
    for edge in trace.edges_mn:
        replayed = weaken_edge(replayed, edge, cfg.epsilon)
    weights = g.edge_arrays()[2]
    assert not weights.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        weights[0] = 1.0
    for other in (replayed, pickle.loads(pickle.dumps(g))):
        for got, want in zip(other.edge_arrays(), g.edge_arrays()):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_run_solver_stops_at_max_iters():
    obs = small_instance(1)
    g0 = complete_graph(obs.n)
    g, trace = run_solver(g0, obs, SolverConfig(max_iters=7))
    assert len(trace) == 7
    assert not trace.converged
    assert trace.stop_reason == "max_iters"


def test_stop_reason_names_the_cap_and_the_converged_solve():
    obs = small_instance(2, n=8, k=3)
    g0 = init_sparse_graph(obs.gram, 4)
    _, capped = run_solver(g0, obs, SolverConfig(max_iters=5))
    assert len(capped) == 5 and capped.stop_reason == "max_iters"
    cfg = SolverConfig()
    g, done = run_solver(g0, obs, cfg)
    assert len(done) < cfg.max_iters
    assert done.stop_reason == "no_descent" and done.converged
    assert greedy_step(g, obs.gram, compute_state(g, cfg, obs.k), cfg) is None


@pytest.mark.parametrize("n", [70, 100])
def test_dense_greedy_above_64_nodes_completes(n):
    # N > 64 once went to LOBPCG, which raised on the complete graph's
    # degenerate spectrum before the first step
    gt = gen_ground_truth(n, 0.2, 0.5, seed=0)
    obs = sample_gmm(gt, n // 5, 3, 1.0, seed=10)
    g, trace = run_solver(complete_graph(n), obs, SolverConfig(max_iters=400))
    assert len(trace) == 400 and trace.stop_reason == "max_iters"
    assert np.isfinite(trace.final_objective)
    assert trace.final_objective < trace.initial_objective


def test_run_solver_converged_flag_means_no_negative_score():
    obs = small_instance(2, n=8, k=3)
    g0 = init_sparse_graph(obs.gram, 4)
    cfg = SolverConfig()
    g, trace = run_solver(g0, obs, cfg)
    if trace.converged:
        state = compute_state(g, cfg, obs.k)
        assert greedy_step(g, obs.gram, state, cfg) is None


def test_partial_final_step_clamps_to_zero():
    # a weight below eps is removed, not driven negative
    obs = small_instance(4, n=6, k=2)
    g0 = init_sparse_graph(obs.gram, 2)
    key = next(iter(g0.edges))
    g1 = WeightedGraph(g0.n, {**g0.edges, key: 0.004})  # below the 0.01 step
    g2 = weaken_edge(g1, key, 0.01)
    assert not g2.has_edge(*key)
    assert all(w > 0 for w in g2.edges.values())


def test_deterministic():
    obs = small_instance(5)
    g0 = complete_graph(obs.n)
    cfg = SolverConfig()
    g_a, tr_a = run_solver(g0, obs, cfg)
    g_b, tr_b = run_solver(g0, obs, cfg)
    assert g_a.edges == g_b.edges
    assert np.array_equal(tr_a.edges_mn, tr_b.edges_mn)
    assert np.array_equal(tr_a.grad_h, tr_b.grad_h)
    assert tr_a.final_objective == tr_b.final_objective


def test_trace_csv_layout(tmp_path):
    obs = small_instance(7, n=8, k=3)
    g0 = complete_graph(obs.n)
    # 100 rows: past the first growth of the trace's columns
    g, trace = run_solver(g0, obs, SolverConfig(max_iters=100))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,m,n,grad_h,lambda2,edges,ms"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = re.search(r"with columns\s+`([^`]+)`", readme)
    assert documented and documented.group(1) == lines[0]
    assert len(lines) == len(trace) + 1 == 101
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert len(fields) == 7 and not any("np." in f for f in fields), line
        assert int(fields[0]) == i + 1
        assert [int(fields[1]), int(fields[2])] == trace.edges_mn[i].tolist()
        assert float(fields[3]) == trace.grad_h[i]
        assert float(fields[4]) == trace.lambda2[i]
        assert int(fields[5]) == trace.edge_counts[i]
        assert fields[6] == f"{trace.ms[i]:.3f}"


def test_trace_columns_are_typed_and_read_only():
    obs = small_instance(7, n=8, k=3)
    _, trace = run_solver(complete_graph(obs.n), obs, SolverConfig(max_iters=70))
    columns = {"edges_mn": (np.int64, (70, 2)), "grad_h": (np.float64, (70,)),
               "lambda2": (np.float64, (70,)), "edge_counts": (np.int64, (70,)),
               "ms": (np.float64, (70,))}
    for name, (dtype, shape) in columns.items():
        col = getattr(trace, name)
        assert col.dtype == dtype and col.shape == shape, name
        with pytest.raises(ValueError, match="read-only"):
            col[0] = 0
    empty = SolveTrace()
    assert len(empty) == 0 and empty.edges_mn.shape == (0, 2) and empty.ms.shape == (0,)


def test_trace_holds_at_most_about_two_rows_per_step():
    # a row is 48 bytes of typed columns, which at most double past the
    # rows in use; five Python objects a step took 132 bytes here
    obs = small_instance(2, n=20, k=4)
    g0 = complete_graph(obs.n)
    tracemalloc.start()
    try:
        _, trace = run_solver(g0, obs, SolverConfig())
        steps, held = len(trace), tracemalloc.get_traced_memory()[0]
        del trace
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert steps >= 3000
    assert held <= 120 * steps, f"{held / steps:.0f} B per step"


def test_trace_growth_peaks_at_one_and_a_half_capacities():
    # a full buffer of n rows is copied into a fresh one of 2n: n + 2n at
    # the peak, 1.5 times the final capacity; concatenating it with an
    # empty copy of itself would hold 2n more, 2 times
    assert _ROW.itemsize == 48
    def fill():
        trace = SolveTrace()
        for i in range(10_000):
            trace.append((i, i + 1), -1.0, 0.5, 3, float(i))
        return trace
    trace, peak = traced_peak(fill)
    capacity = trace._buf.nbytes
    assert len(trace) == 10_000 and trace.edges_mn[-1].tolist() == [9_999, 10_000]
    assert peak <= 1.55 * capacity, f"peak {peak / capacity:.3f} x capacity"


def test_a_huge_step_cap_allocates_nothing_up_front():
    # the trace's columns grow with the steps taken, never with the cap
    obs = small_instance(2, n=8, k=3)
    g0 = init_sparse_graph(obs.gram, 4)
    g, trace = run_solver(g0, obs, SolverConfig(max_iters=2**62))
    g_ref, ref = run_solver(g0, obs, SolverConfig())
    assert trace.converged and len(trace) == len(ref) > 0
    assert np.array_equal(trace.edges_mn, ref.edges_mn)
    assert np.array_equal(trace.grad_h, ref.grad_h)
    assert g.edges == g_ref.edges


def test_trace_records_lambda2_of_scoring_snapshot():
    obs = small_instance(8, n=9, k=3)
    g0 = complete_graph(obs.n)
    cfg = SolverConfig(max_iters=3)
    g, trace = run_solver(g0, obs, cfg)
    state0 = compute_state(g0, cfg, obs.k)
    assert trace.lambda2[0] == pytest.approx(state0.fiedler_value)


def test_scores_take_alpha_from_the_config():
    # the snapshot holds eigenpairs only, so a bare eigensolve and the
    # solver's own snapshot score the same under a non-default alpha
    gt = gen_ground_truth(12, 0.3, seed=1)
    obs = sample_gmm(gt, 4, seed=2)
    g = init_sparse_graph(obs.gram, None)
    cfg = SolverConfig(alpha=2.0)
    bare = smallest_eigenpairs(build_laplacian(g), 4)
    state = compute_state(g, cfg, obs.k)
    m_arr, n_arr, w_arr = g.edge_arrays()
    got = score_edges(bare, obs.gram, m_arr, n_arr, w_arr, cfg)
    want = score_edges(state, obs.gram, m_arr, n_arr, w_arr, cfg)
    for name in ("eta", "rho", "grad"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert greedy_step(g, obs.gram, bare, cfg) == greedy_step(g, obs.gram, state, cfg)


def test_compute_state_attaches_exact_resolvent():
    obs = small_instance(5, n=8, k=4)
    g = init_sparse_graph(obs.gram, None)
    lap = build_laplacian(g)
    # the resolvent and the retained pairs come from one full spectrum
    full = smallest_eigenpairs(lap, 8)
    for alpha in (0.5, 2.0):
        assert compute_state(g, SolverConfig(alpha=alpha), obs.k).resolvent is None
        state = compute_state(g, SolverConfig(alpha=alpha, exact_logdet=True), obs.k)
        want = (full.eigvecs / (full.eigvals + alpha)) @ full.eigvecs.T
        assert state.resolvent.tobytes() == want.tobytes()
        assert state.eigvals.tobytes() == full.eigvals[:4].tobytes()
        assert state.eigvecs.tobytes() == full.eigvecs[:, :4].tobytes()
        ref = np.linalg.inv(lap + alpha * np.eye(8))
        assert np.abs(state.resolvent - ref).max() <= 1e-12 * np.abs(ref).max()


def test_exact_logdet_no_worse_than_majorizer():
    # exact scoring weakens at least as aggressively per step
    obs = small_instance(9, n=10, k=4)
    g0 = complete_graph(obs.n)
    cfg_m = SolverConfig()
    cfg_e = SolverConfig(exact_logdet=True)
    state_m = compute_state(g0, cfg_m, obs.k)
    state_e = compute_state(g0, cfg_e, obs.k)
    sel_m = greedy_step(g0, obs.gram, state_m, cfg_m)
    sel_e = greedy_step(g0, obs.gram, state_e, cfg_e)
    assert sel_m is not None and sel_e is not None
    assert sel_e[1] <= sel_m[1] + 1e-12


@pytest.mark.parametrize("kind", ["greedy", "recursive"])
def test_trace_counts_eigensolves_and_ineligible_edges(kind, monkeypatch, caplog):
    import fsgl.partition
    import fsgl.solver

    counted = []
    for module in (fsgl.solver, fsgl.partition):
        def counting(*args, real=module.score_edges):
            scores = real(*args)
            counted.append(int(np.count_nonzero(scores.grad == np.inf)))
            return scores
        monkeypatch.setattr(module, "score_edges", counting)
    obs = small_instance(2, n=10, k=3)
    g0 = init_sparse_graph(obs.gram, 10)
    # 2 eps / alpha > 1, so some determinant factors go nonpositive
    with caplog.at_level(logging.WARNING, logger="fsgl"):
        _, trace = run_solver(g0, obs, SolverConfig(solver_kind=kind, epsilon=0.3,
                                                    refresh_interval=2))
    assert len(trace) > 0
    assert trace.eigensolves == 1 + len(trace) // 2
    assert trace.ineligible == sum(counted) > 0
    assert len(counted) == len(trace) + 1
    assert sum("step too large" in r.getMessage() for r in caplog.records) == 1
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="fsgl"):
        _, trace = run_solver(g0, obs, SolverConfig(solver_kind=kind, refresh_interval=3))
    assert trace.eigensolves == 1 + len(trace) // 3
    assert trace.ineligible == 0 and caplog.records == []


def test_zero_step_solve_logs_one_warning(caplog):
    obs = small_instance(0, n=10, k=3)
    g0 = init_sparse_graph(obs.gram, 10)
    with caplog.at_level(logging.WARNING, logger="fsgl"):
        g, trace = run_solver(g0, obs, SolverConfig(gamma=1000.0))
    assert len(trace) == 0 and trace.stop_reason == "no_descent"
    assert g.edges == g0.edges
    assert [r.getMessage() for r in caplog.records] == [
        "no edge descends from the initial graph; returned unchanged"]



@pytest.mark.parametrize("kind", ["greedy", "recursive"])
def test_max_iters_stop_logs_one_warning(kind, monkeypatch, caplog):
    import fsgl.solver

    obs = small_instance(2, n=10, k=3)
    g0 = init_sparse_graph(obs.gram, 10)
    cfg = SolverConfig(solver_kind=kind, epsilon=0.05)
    with caplog.at_level(logging.WARNING, logger="fsgl"):
        _, full = run_solver(g0, obs, cfg)
    assert full.stop_reason == "no_descent" and len(full) > 6
    assert caplog.records == []
    calls = counted_eigensolves(monkeypatch, fsgl.solver)
    for refresh in (1, 3):
        for cap in (0, 5, 6):
            caplog.clear()
            calls.clear()
            with caplog.at_level(logging.WARNING, logger="fsgl"):
                g, trace = run_solver(g0, obs, replace(cfg, max_iters=cap,
                                                       refresh_interval=refresh))
            assert trace.stop_reason == "max_iters" and len(trace) == cap
            # a snapshot only for a step that is scored: none after the last
            assert trace.eigensolves == len(calls) == -(-cap // refresh)
            assert [r.getMessage() for r in caplog.records] == [
                f"max_iters = {cap} ended the solve after {cap} steps with "
                f"{g.edge_count} edges left"]
            if cap == 0:
                assert g.edges == g0.edges

@pytest.mark.parametrize("kind", ["greedy", "recursive"])
def test_non_finite_initial_objective_is_a_typed_error(kind):
    # finite weights and a finite Gram matrix whose smoothness term overflows
    g0 = WeightedGraph(3, {(0, 1): 1e10, (1, 2): 1e10})
    obs = ObservationSet(np.array([[1e150, 0.0], [-1e150, 1.0], [0.0, 2.0]]))
    assert np.isfinite(obs.gram).all()
    # the overflow is reported once, as the error, with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteObjective, match="initial objective is inf") as info:
            run_solver(g0, obs, SolverConfig(solver_kind=kind))
    assert isinstance(info.value, FsglError)


@pytest.mark.parametrize("kind", ["greedy", "recursive"])
def test_start_graph_whose_degree_overflows_is_non_finite_input(kind):
    # finite weights whose sum at node 1 overflows: no eigensolver error, no warning
    g0 = WeightedGraph(3, {(0, 1): 1e308, (1, 2): 1e308})
    obs = ObservationSet(np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, 2.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput, match="node 1's weighted degree overflows"):
            run_solver(g0, obs, SolverConfig(solver_kind=kind))


def _replay_bitwise(g0, obs, cfg, monkeypatch):
    """Run a solve, then replay its trace with the public pieces
    (weaken_edge, compute_state, greedy_step or partition_select): the same
    edge and grad_h bits at every step, every Laplacian the solve handed
    to the eigensolver bitwise build_laplacian of the replayed graph, and
    the same final graph. Returns the solve's trace and the weights each
    step found on its edge."""
    import fsgl.solver

    laps, real = [], fsgl.solver.smallest_eigenpairs

    def capturing(lap, k):
        laps.append(lap.copy())  # the solve's Laplacian is updated in place
        return real(lap, k)

    monkeypatch.setattr(fsgl.solver, "smallest_eigenpairs", capturing)
    g_out, trace = run_solver(g0, obs, cfg)
    monkeypatch.setattr(fsgl.solver, "smallest_eigenpairs", real)

    def bits(x):
        return np.asarray(x, dtype=np.float64).view(np.int64)

    def select(g, state):
        if cfg.solver_kind == "recursive":
            return partition_select(g, state, obs, cfg)
        return greedy_step(g, obs.gram, state, cfg)

    g, snapshots, found = g0, 0, []
    # a converged solve's last scan finds no edge
    for step in range(len(trace) + trace.converged):
        if step % cfg.refresh_interval == 0:
            assert np.array_equal(bits(laps[snapshots]), bits(build_laplacian(g))), step
            state = compute_state(g, cfg, obs.k)
            snapshots += 1
        sel = select(g, state)
        if step == len(trace):
            assert sel is None
            break
        edge = trace.edges_mn[step]
        assert sel is not None and sel[0] == tuple(edge.tolist()), step
        assert bits(sel[1]) == bits(trace.grad_h[step]), step
        found.append(g.weight(*edge))
        g = weaken_edge(g, edge, cfg.epsilon)
        assert trace.edge_counts[step] == g.edge_count
    assert len(laps) == snapshots == trace.eigensolves
    (m_want, n_want, w_want), (m_got, n_got, w_got) = g.edge_arrays(), g_out.edge_arrays()
    assert np.array_equal(m_want, m_got) and np.array_equal(n_want, n_got)
    assert np.array_equal(bits(w_want), bits(w_got))
    assert trace.initial_objective == objective_value(g0, obs.gram, cfg)
    assert trace.final_objective == objective_value(g, obs.gram, cfg)
    return trace, found


@pytest.mark.parametrize("kind", ["greedy", "recursive"])
@pytest.mark.parametrize("refresh", [1, 3])
@pytest.mark.parametrize("exact", [False, True])
def test_solve_replays_bitwise_with_the_public_pieces(kind, refresh, exact, monkeypatch):
    obs = small_instance(19, n=10, k=3)
    start = complete_graph(obs.n) if kind == "greedy" else init_sparse_graph(obs.gram, 10)
    cfg = SolverConfig(solver_kind=kind, refresh_interval=refresh, exact_logdet=exact,
                       epsilon=0.05)
    trace, _ = _replay_bitwise(start, obs, cfg, monkeypatch)
    assert trace.converged and len(set(trace.edge_counts)) > 1


@pytest.mark.parametrize("kind", ["greedy", "recursive"])
def test_solve_replays_bitwise_when_most_edges_go(kind, monkeypatch):
    # K/N = 1.0 from the complete graph
    obs = small_instance(12, n=9, k=9)
    g0 = complete_graph(obs.n)
    trace, _ = _replay_bitwise(g0, obs, SolverConfig(solver_kind=kind, epsilon=0.05),
                               monkeypatch)
    assert trace.edge_counts[-1] < g0.edge_count // 2


@pytest.mark.parametrize("kind", ["greedy", "recursive"])
def test_solve_replays_bitwise_to_a_cap_inside_an_edge_set(kind, monkeypatch):
    obs = small_instance(13, n=10, k=3)
    g0 = complete_graph(obs.n)
    cfg = SolverConfig(solver_kind=kind, epsilon=0.05, refresh_interval=2)
    counts = run_solver(g0, obs, cfg)[1].edge_counts
    # stop two steps after a deletion, inside the edge set it left
    cap = next(s for s in range(1, len(counts) - 1)
               if counts[s - 1] > counts[s] == counts[s + 1]) + 2
    trace, _ = _replay_bitwise(g0, obs, replace(cfg, max_iters=cap), monkeypatch)
    assert trace.stop_reason == "max_iters" and len(trace) == cap
    assert trace.edge_counts[-1] == trace.edge_counts[-2] < trace.edge_counts[-3]


@pytest.mark.parametrize("kind", ["greedy", "recursive"])
def test_solve_replays_bitwise_through_a_step_clamped_to_zero(kind, monkeypatch):
    # 0.025 takes two full steps of 0.01, then one clamped from 0.005 to 0
    obs = small_instance(28, n=10, k=3)
    g0 = init_sparse_graph(obs.gram, 10)
    g0 = WeightedGraph(g0.n, dict.fromkeys(g0.edges, 0.025))
    cfg = SolverConfig(solver_kind=kind)
    trace, found = _replay_bitwise(g0, obs, cfg, monkeypatch)
    clamped = [s for s, w in enumerate(found) if 0.0 < w < cfg.epsilon]
    assert clamped
    s = clamped[0]
    assert trace.edge_counts[s] == (trace.edge_counts[s - 1] if s else g0.edge_count) - 1


def full_spectrum_objective(g, y, cfg):
    """The objective with log det summed as log(l_i + alpha) over the whole
    computed spectrum, zero eigenvalues' rounding included."""
    lam = np.linalg.eigvalsh(build_laplacian(g))
    return (smoothness_trace(g, y) - np.log(lam + cfg.alpha).sum() - cfg.gamma * lam[1]
            + cfg.mu * g.edge_count)


@pytest.mark.parametrize("kind", ["greedy", "recursive"])
def test_exact_zero_eigenvalues_move_the_replay_objectives_by_rounding_only(kind):
    # at the default alpha = 0.5, entering l_1 = 0 exactly (per component)
    # changes initial_objective and final_objective by at most 1e-12 relative
    instances = [(small_instance(19, n=10, k=3), 0.05), (small_instance(12, n=9, k=9), 0.05),
                 (small_instance(13, n=10, k=3), 0.05), (small_instance(28, n=10, k=3), 0.01)]
    for obs, eps in instances:
        cfg = SolverConfig(solver_kind=kind, epsilon=eps)
        g0 = complete_graph(obs.n) if kind == "greedy" else init_sparse_graph(obs.gram, 10)
        g, trace = run_solver(g0, obs, cfg)
        for graph, value in ((g0, trace.initial_objective), (g, trace.final_objective)):
            expected = full_spectrum_objective(graph, obs.gram, cfg)
            assert value == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kind", ["greedy", "recursive"])
def test_a_solve_builds_one_laplacian_per_edge_set(kind, monkeypatch):
    # the start graph's, read by the initial objective, the snapshots and
    # the final objective, then one per deletion; none for monitoring
    obs = small_instance(19, n=10, k=3)
    g0 = complete_graph(obs.n) if kind == "greedy" else init_sparse_graph(obs.gram, 10)
    builds, real = [], Laplacian.__init__

    def counted(self, g):
        builds.append(g.edge_count)
        real(self, g)

    cfg = SolverConfig(solver_kind=kind, epsilon=0.05)
    monkeypatch.setattr(Laplacian, "__init__", counted)
    g, trace = run_solver(g0, obs, cfg)
    monkeypatch.undo()
    deletions = g0.edge_count - g.edge_count
    assert deletions > 0 and len(builds) == 1 + deletions
    assert builds == list(range(g0.edge_count, g.edge_count - 1, -1))
    assert trace.initial_objective == objective_value(g0, obs.gram, cfg)
    assert trace.final_objective == objective_value(g, obs.gram, cfg)


@pytest.mark.parametrize("kind", ["greedy", "recursive"])
def test_final_lambda2_is_exactly_zero_when_the_learned_graph_is_disconnected(kind):
    # K/N = 1.0 empties the graph into components; K/N = 0.2 keeps it whole
    # (the recursive arm's seed 12 disconnects at both)
    connected = set()
    for seed in (12, 13, 19):
        for k in (2, 10):
            obs = small_instance(seed, n=10, k=k)
            g0 = complete_graph(obs.n) if kind == "greedy" else init_sparse_graph(obs.gram, 10)
            g, trace = run_solver(g0, obs, SolverConfig(solver_kind=kind))
            if is_connected(g):
                lam2 = smallest_eigenpairs(build_laplacian(g), g.n).fiedler_value
                assert trace.final_lambda2 == lam2 > 0.0
            else:
                assert trace.final_lambda2 == 0.0
            connected.add((k, is_connected(g)))
    assert (2, True) in connected and (10, False) in connected


def replay_snapshots(g0, obs, cfg, trace):
    """Replay `trace` with the public pieces (compute_state, greedy_step,
    weaken_edge), checking each row's edge and grad_h bits. Returns, per
    row, the computed l2 of the snapshot the row was scored on, whether
    that snapshot's edge set is connected, and whether the row's own is."""
    g, rows = g0, []
    for step, edge in enumerate(trace.edges_mn):
        if step % cfg.refresh_interval == 0:
            state, snapshot_connected = compute_state(g, cfg, obs.k), is_connected(g)
        sel = greedy_step(g, obs.gram, state, cfg)
        assert sel is not None and sel[0] == tuple(edge.tolist()), step
        assert np.float64(sel[1]).view(np.int64) == trace.grad_h[step].view(np.int64), step
        rows.append((state.fiedler_value, snapshot_connected, is_connected(g)))
        g = weaken_edge(g, edge, cfg.epsilon)
    lam2, snapshot_connected, connected = map(np.array, zip(*rows))
    return lam2, snapshot_connected, connected


def criterion_8_cell(generator, trial):
    """The start graph and observations of criterion 8's K/N = 0.2 cell
    (N = 30, seed 0, recursive arm) for this generator and trial."""
    gi = ("gmm", "mvt").index(generator)
    _, obs = draw_instance(30, 6, generator, [0, gi, 0, trial], 0.2, 0.5, 3.0, 3, 1.0)
    return initial_graph(obs, SolverConfig(solver_kind="recursive")), obs


@pytest.mark.parametrize("eps", [0.1, 0.125, 0.25])
def test_mu_changes_the_solve_where_the_last_step_starts_at_eps(eps):
    # from weight 1.0 these steps leave a last step that starts at w >= eps
    # and still deletes the edge; the score pays mu on it as on any other
    # deletion, so mu = 5 weakens other edges, or scores them otherwise,
    # than mu = 0
    g0, obs = criterion_8_cell("gmm", 0)
    a, b = (run_solver(g0, obs, SolverConfig(epsilon=eps, mu=mu, solver_kind="recursive"))[1]
            for mu in (0.0, 5.0))
    assert (a.edges_mn.tobytes(), a.grad_h.tobytes()) != (b.edges_mn.tobytes(),
                                                          b.grad_h.tobytes())


@pytest.mark.parametrize("cell", [("gmm", 0), ("gmm", 2), ("gmm", 6), ("gmm", 8),
                                  ("mvt", 3), ("mvt", 8), ("small", 12)],
                         ids=lambda cell: f"{cell[0]}-{cell[1]}")
def test_trace_lambda2_is_exactly_zero_on_a_disconnected_snapshot(cell):
    # criterion 8's disconnected K/N = 0.2 cells, and a K/N = 1.0 solve at
    # N = 10: their disconnected snapshots compute l2 as rounding noise,
    # some of it negative, and the trace reads it as 0.0, as the final
    # objective does; every other row is the replayed snapshot's l2, bitwise
    if cell[0] == "small":
        obs = small_instance(cell[1], n=10, k=10)
        g0 = init_sparse_graph(obs.gram, 10)
    else:
        g0, obs = criterion_8_cell(*cell)
    cfg = SolverConfig(solver_kind="recursive")
    g, trace = run_solver(g0, obs, cfg)
    lam2, snapshot_connected, _ = replay_snapshots(g0, obs, cfg, trace)
    rows = trace.lambda2.view(np.int64)
    assert not snapshot_connected.all() and (lam2[~snapshot_connected] != 0.0).any()
    assert (rows[~snapshot_connected] == 0).all()  # +0.0, not -0.0
    assert np.array_equal(rows[snapshot_connected], lam2[snapshot_connected].view(np.int64))
    assert not (trace.lambda2 < 0.0).any()
    assert not is_connected(g) and trace.final_lambda2 == 0.0


def test_a_stale_snapshot_row_keeps_its_snapshots_connectivity():
    # refresh 3: the deletion that disconnects the graph falls early in a
    # snapshot's window, so the window's later rows are scored on a snapshot
    # of a connected edge set and record its l2; from the next snapshot on,
    # rows read 0.0. The solve is capped two snapshots after the deletion.
    obs = small_instance(13, n=10, k=10)
    g0 = init_sparse_graph(obs.gram, 10)
    cfg = SolverConfig(solver_kind="recursive", refresh_interval=3)
    full = run_solver(g0, obs, cfg)[1]
    g, cut = g0, None
    for step, edge in enumerate(full.edges_mn):
        g = weaken_edge(g, edge, cfg.epsilon)
        if not is_connected(g):
            cut = step
            break
    assert cut is not None and cut % 3 < 2  # rows after it share its snapshot
    capped = replace(cfg, max_iters=cut - cut % 3 + 9)
    g, trace = run_solver(g0, obs, capped)
    assert trace.stop_reason == "max_iters" and not is_connected(g)
    assert np.array_equal(trace.edges_mn, full.edges_mn[:len(trace)])
    lam2, snapshot_connected, connected = replay_snapshots(g0, obs, capped, trace)
    stale = snapshot_connected & ~connected
    assert np.flatnonzero(stale).tolist() == list(range(cut + 1, cut - cut % 3 + 3))
    rows = trace.lambda2.view(np.int64)
    assert np.array_equal(rows[snapshot_connected], lam2[snapshot_connected].view(np.int64))
    assert (trace.lambda2[stale] > 0.0).all()
    assert (rows[~snapshot_connected] == 0).all()
    assert (lam2[~snapshot_connected] != 0.0).any()


@pytest.mark.parametrize("kind", ["greedy", "recursive"])
@pytest.mark.parametrize("max_iters", [0, 3, 40])
def test_an_exact_solve_checks_alpha_in_its_two_objectives_only(kind, max_iters,
                                                                monkeypatch):
    # weakening never raises a diagonal entry, so the initial objective's
    # check covers every snapshot; compute_state, outside a solve, checks
    import fsgl.objective
    import fsgl.solver
    calls = spy(monkeypatch, "check_shift", lambda result, lap, c, name: name,
                fsgl.objective, fsgl.solver)
    obs = small_instance(19, n=10, k=3)
    g0 = complete_graph(obs.n) if kind == "greedy" else init_sparse_graph(obs.gram, 10)
    cfg = SolverConfig(solver_kind=kind, exact_logdet=True, max_iters=max_iters)
    trace = run_solver(g0, obs, cfg)[1]
    assert len(trace) == max_iters and trace.eigensolves == max_iters
    assert calls == ["alpha", "alpha"]
    compute_state(g0, cfg, obs.k)
    compute_state(g0, replace(cfg, exact_logdet=False), obs.k)
    assert calls == ["alpha"] * 3


@pytest.mark.parametrize("kind", ["greedy", "recursive"])
def test_phase_totals_fit_inside_the_solve(kind):
    obs = small_instance(19, n=10, k=3)
    g0 = complete_graph(obs.n) if kind == "greedy" else init_sparse_graph(obs.gram, 10)
    t0 = time.perf_counter()
    _, trace = run_solver(g0, obs, SolverConfig(solver_kind=kind, epsilon=0.05))
    wall_ms = (time.perf_counter() - t0) * 1e3
    assert len(set(trace.edge_counts)) > 1
    phases = trace.phase_ms
    assert list(phases) == ["eigensolve", "select", "rebuild", "mutate"]
    assert all(t > 0.0 for t in phases.values())
    assert sum(phases.values()) <= wall_ms
    # the phases tile the loop: the time to the last step is charged too
    assert sum(phases.values()) >= trace.ms[-1]


def test_run_solver_leaves_the_two_node_minimum_to_the_objective():
    obs = ObservationSet(np.ones((1, 2)))
    with pytest.raises(ValueError, match="^need at least two nodes: lambda2 is undefined$"):
        run_solver(WeightedGraph(1), obs, SolverConfig())


NUMERIC_FIELDS = {"epsilon": float, "alpha": float, "gamma": float, "mu": float,
                  "refresh_interval": int, "max_iters": int}


def test_config_keeps_the_python_number_each_check_returns():
    # a NumPy scalar becomes the int or float graph.integer or graph.real
    # returns, so its fixed width never reaches the solve
    cfg = SolverConfig(epsilon=np.float32(0.01), alpha=np.float16(0.5), gamma=np.int8(1),
                       mu=np.float64(0.2), refresh_interval=np.uint8(2), max_iters=np.int32(5))
    assert {name: type(getattr(cfg, name)) for name in NUMERIC_FIELDS} == NUMERIC_FIELDS
    assert cfg.epsilon == float(np.float32(0.01)) and cfg.refresh_interval == 2
    assert {name: type(getattr(SolverConfig(), name)) for name in NUMERIC_FIELDS} == NUMERIC_FIELDS
    # the budget is checked, and made a Python int, by the start that reads it
    assert type(default_budget(8, np.int16(3))) is int


def fixed_width_instance():
    return draw_instance(10, 4, "gmm", [3], 0.3, 0.5, 3.0, 3, 1.0)[1]


@pytest.mark.parametrize("refresh", [np.uint8(1), np.int8(1)])
def test_a_fixed_width_refresh_interval_solves_past_its_range(refresh):
    # step 256 (uint8) or 128 (int8) once overflowed `accepted % refresh`
    obs = fixed_width_instance()
    _, trace = run_solver(complete_graph(10), obs,
                          SolverConfig(refresh_interval=refresh, max_iters=300))
    _, plain = run_solver(complete_graph(10), obs, SolverConfig(max_iters=300))
    assert len(trace) == 300
    assert trace.grad_h.tobytes() == plain.grad_h.tobytes()
    assert np.array_equal(trace.edges_mn, plain.edges_mn)


def test_a_float32_epsilon_solves_in_float64():
    # the solve steps by float(np.float32(0.01)), never in float32
    obs = fixed_width_instance()
    g, trace = run_solver(complete_graph(10), obs,
                          SolverConfig(epsilon=np.float32(0.01), max_iters=300))
    g64, trace64 = run_solver(complete_graph(10), obs,
                              SolverConfig(epsilon=float(np.float32(0.01)), max_iters=300))
    assert trace.grad_h.tobytes() == trace64.grad_h.tobytes()
    assert np.array_equal(trace.edges_mn, trace64.edges_mn)
    assert [a.tobytes() for a in g.edge_arrays()] == [a.tobytes() for a in g64.edge_arrays()]
