"""Cheeger cuts and the recursive edge selector."""

import sys
from collections import namedtuple

import numpy as np
import pytest

import fsgl.spectral
from fsgl.errors import Disconnected, TooLarge
from fsgl.graph import (
    ObservationSet,
    WeightedGraph,
    build_laplacian,
    complete_graph,
    weaken_edge,
)
from fsgl.objective import EdgeScores
from fsgl.partition import (
    approx_cheeger_cut,
    brute_force_cheeger,
    cut_plan,
    partition_select,
)
from fsgl.solver import SolveTrace, SolverConfig, compute_state, greedy_step, run_solver
from fsgl.datagen import connected_pairs, gen_ground_truth, sample_gmm, sample_mvt
from fsgl.init_graph import init_sparse_graph
from fsgl.spectral import smallest_eigenpairs


Sweep = namedtuple("Sweep", "depth n t cut order m_arr n_arr")


def random_connected_unit_graph(rng, n, density=0.35):
    return WeightedGraph(n, dict.fromkeys(connected_pairs(n, density, rng), 1.0))


def test_brute_force_known_ratios():
    # path 0-1-2: peeling one endpoint cuts one edge, ratio 1
    p3 = WeightedGraph(3, {(0, 1): 1.0, (1, 2): 1.0})
    cut = brute_force_cheeger(p3)
    assert cut.ratio == pytest.approx(1.0)
    assert cut.s == (0,)
    assert cut.cut_edges == ((0, 1),)
    # 4-cycle: opposite halves cut two edges over two nodes, ratio 1
    c4 = WeightedGraph(4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 1.0})
    assert brute_force_cheeger(c4).ratio == pytest.approx(1.0)
    # star: any leaf cuts one edge, ratio 1
    star = WeightedGraph(5, {(0, i): 1.0 for i in range(1, 5)})
    cut = brute_force_cheeger(star)
    assert cut.ratio == pytest.approx(1.0)
    assert cut.s == (1,)  # smallest subset, then lexicographic
    # single edge: ratio 1 as well, subset is the first node
    k2 = WeightedGraph(2, {(0, 1): 1.0})
    assert brute_force_cheeger(k2).s == (0,)
    # complete graph on 4: a balanced half cuts 4 edges over 2 nodes
    assert brute_force_cheeger(complete_graph(4)).ratio == pytest.approx(2.0)


def test_brute_force_dumbbell_prefers_bridge():
    # two triangles joined by one edge: the bridge is the bottleneck
    g = WeightedGraph(6, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0,
                          (3, 4): 1.0, (3, 5): 1.0, (4, 5): 1.0,
                          (2, 3): 1.0})
    cut = brute_force_cheeger(g)
    assert cut.ratio == pytest.approx(1.0 / 3.0)
    assert cut.s == (0, 1, 2)
    assert cut.cut_edges == ((2, 3),)


def test_brute_force_limits():
    with pytest.raises(TooLarge):
        brute_force_cheeger(complete_graph(17))
    with pytest.raises(ValueError):
        brute_force_cheeger(WeightedGraph(1))


def test_brute_force_subset_never_majority():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        g = random_connected_unit_graph(rng, n)
        cut = brute_force_cheeger(g)
        assert 1 <= len(cut.s) <= n // 2
        assert cut.s == tuple(sorted(cut.s))
        inside = set(cut.s)
        expect = tuple(e for e in g.edges if (e[0] in inside) != (e[1] in inside))
        assert cut.cut_edges == expect
        assert cut.ratio == pytest.approx(len(cut.cut_edges) / len(cut.s))


def test_sweep_cut_within_cheeger_bounds():
    # lambda2 / 2 <= exact <= sweep and sweep respects the lower bound too
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 13))
        g = random_connected_unit_graph(rng, n)
        lap = build_laplacian(g)
        lam2 = float(np.linalg.eigvalsh(lap)[1])
        state = smallest_eigenpairs(lap, 3)
        sweep = approx_cheeger_cut(g, state)
        exact = brute_force_cheeger(g)
        assert len(sweep.s) <= g.n // 2
        assert sweep.ratio >= exact.ratio - 1e-12
        assert sweep.ratio >= lam2 / 2.0 - 1e-9
        inside = set(sweep.s)
        expect = tuple(e for e in g.edges if (e[0] in inside) != (e[1] in inside))
        assert sweep.cut_edges == expect


def test_sweep_cut_requires_connected():
    g = WeightedGraph(4, {(0, 1): 1.0, (2, 3): 1.0})
    state = smallest_eigenpairs(build_laplacian(g), 3)
    with pytest.raises(Disconnected):
        approx_cheeger_cut(g, state)


def plan_blocks(plan):
    """The blocks of a laid-out cut plan, checked non-empty (reduceat needs it)."""
    rows, starts = plan
    blocks = np.split(rows, starts[1:])
    assert starts[0] == 0 and all(b.shape[0] > 0 for b in blocks)
    return blocks


def solve_instance(seed, n, generator="gmm"):
    gt = gen_ground_truth(n, 0.2, seed=seed)
    k = max(3, round(0.2 * n))
    if generator == "gmm":
        obs = sample_gmm(gt, k, seed=seed + 1)
    else:
        obs = sample_mvt(gt, k, seed=seed + 1)
    return obs


def test_partition_select_equals_exhaustive_scan_stepwise():
    # drive both selectors in lockstep on the same evolving graph
    for seed in range(6):
        obs = solve_instance(seed, 16, "gmm" if seed % 2 == 0 else "mvt")
        cfg = SolverConfig(epsilon=0.05, solver_kind="recursive")
        g = init_sparse_graph(obs.gram, 3 * obs.n)
        for _ in range(200):
            state = compute_state(g, cfg, obs.k)
            sel_p = partition_select(g, state, obs, cfg)
            sel_g = greedy_step(g, obs.gram, state, cfg)
            if sel_g is None:
                assert sel_p is None
                break
            assert sel_p is not None
            assert sel_p[0] == sel_g[0]
            assert sel_p[1] == sel_g[1]  # bitwise
            g = weaken_edge(g, sel_g[0], cfg.epsilon)


def test_partition_select_empty_graph():
    obs = solve_instance(0, 6)
    cfg = SolverConfig(solver_kind="recursive")
    g = WeightedGraph(6)
    state = compute_state(g, cfg, obs.k)
    assert partition_select(g, state, obs, cfg) is None
    assert greedy_step(g, obs.gram, state, cfg) is None


def record_sweeps(monkeypatch):
    """Patch partition._sweep_prefix to log a Sweep at every split.

    depth counts the `split` frames of cut_plan below the first, so the
    top-level sweep has depth 0.
    """
    import fsgl.partition as partition

    real = partition._sweep_prefix
    sweeps = []

    def recording(n, m_arr, n_arr, v2):
        order, t, cut = real(n, m_arr, n_arr, v2)
        depth, frame = -1, sys._getframe(1)
        while frame is not None:
            code = frame.f_code
            depth += code.co_name == "split" and code.co_filename == partition.__file__
            frame = frame.f_back
        sweeps.append(Sweep(depth, n, t, cut, order, m_arr, n_arr))
        return order, t, cut

    monkeypatch.setattr(partition, "_sweep_prefix", recording)
    return sweeps


def test_partition_audit_rows_partition_exactly(monkeypatch):
    # every split sends each candidate edge to exactly one side or the cut
    obs = solve_instance(1, 20)
    g = init_sparse_graph(obs.gram, 40)
    sweeps = record_sweeps(monkeypatch)
    cut_plan(g, 4)
    assert sweeps, "recursion should split at least once"
    for sw in sweeps:
        assert 1 <= sw.t < sw.n
        assert sw.n > 4
        in_s = np.zeros(sw.n, dtype=bool)
        in_s[sw.order[:sw.t]] = True
        m_in, n_in = in_s[sw.m_arr], in_s[sw.n_arr]
        rows = sw.m_arr.shape[0]
        r1, r2 = int((m_in & n_in).sum()), int((~(m_in | n_in)).sum())
        assert r1 + r2 + sw.cut == rows
        assert rows > 0
    assert sweeps[0].depth == 0 and sweeps[0].n == 20


def test_cut_plan_skips_nodes_without_edges(monkeypatch):
    # edges among nodes 0-5 of 30: one leaf block, no eigensolve
    import fsgl.partition as partition

    rng = np.random.default_rng(5)
    g = WeightedGraph(30, dict.fromkeys(connected_pairs(6, 0.5, rng), 1.0))
    eigensolves = []
    real = partition.smallest_eigenpairs
    monkeypatch.setattr(partition, "smallest_eigenpairs",
                        lambda lap, k: eigensolves.append(lap.shape) or real(lap, k))
    rows, starts = cut_plan(g, 8)
    assert eigensolves == []
    np.testing.assert_array_equal(rows, np.arange(g.edge_count))
    np.testing.assert_array_equal(starts, [0])


def test_cut_plan_sweeps_disconnected_graph_along_components(monkeypatch):
    # two 5-node components: the first sweep cuts nothing and puts one
    # component on each side
    rng = np.random.default_rng(3)
    ga = random_connected_unit_graph(rng, 5)
    edges = dict(ga.edges)
    edges.update({(m + 5, n + 5): w for (m, n), w in ga.edges.items()})
    g = WeightedGraph(10, edges)
    sweeps = record_sweeps(monkeypatch)
    rows, starts = cut_plan(g, 4)
    first = sweeps[0]
    assert (first.n, first.t, first.cut) == (10, 5, 0)
    assert sorted(first.order[:first.t].tolist()) in ([0, 1, 2, 3, 4], [5, 6, 7, 8, 9])
    np.testing.assert_array_equal(np.sort(rows), np.arange(g.edge_count))


def test_cut_plan_depends_on_edge_set_not_weights():
    # a weight-only step keeps the plan; deleting an edge makes a new one
    obs = solve_instance(4, 24)
    g = init_sparse_graph(obs.gram, 60)
    rows, starts = cut_plan(g, 4)
    assert starts.shape[0] > 1
    for edge in list(g.edges)[::7]:
        weaker = weaken_edge(g, edge, 0.3)
        assert weaker.edge_count == g.edge_count
        replay_rows, replay_starts = cut_plan(weaker, 4)
        np.testing.assert_array_equal(replay_rows, rows)
        np.testing.assert_array_equal(replay_starts, starts)
    edge = next(iter(g.edges))
    smaller = weaken_edge(g, edge, g.edges[edge])
    assert smaller.edge_count == g.edge_count - 1
    fresh_rows, fresh_starts = cut_plan(smaller, 4)
    assert fresh_rows.shape[0] == smaller.edge_count
    assert not (np.array_equal(fresh_rows, rows)
                and np.array_equal(fresh_starts, starts))


def test_run_solver_builds_one_plan_per_edge_set(monkeypatch):
    import fsgl.partition as partition

    calls = []
    real = partition.cut_plan
    monkeypatch.setattr(partition, "cut_plan",
                        lambda g, v_min: calls.append(g.edge_count) or real(g, v_min))
    obs = solve_instance(3, 16)
    g0 = init_sparse_graph(obs.gram, 30)
    _, trace = run_solver(g0, obs, SolverConfig(solver_kind="recursive",
                                                epsilon=0.05))
    assert len(trace) > 0
    # each accepted step selected on the edge set before its own step
    selected_on = [g0.edge_count] + trace.edge_counts[:-1]
    if trace.stop_reason == "no_descent":
        selected_on.append(trace.edge_counts[-1])
    assert len(set(selected_on)) > 1, "the solve should delete an edge"
    assert calls == sorted(set(selected_on), reverse=True)
    calls.clear()
    run_solver(g0, obs, SolverConfig(solver_kind="greedy", epsilon=0.05))
    assert calls == []


def _select_block_by_block(grad, m_arr, n_arr, plan):
    """The reduction as first written: an argmin per block, then the best
    (grad, m, n) key over the finite block minima. Returns a row, or None
    when no finite block minimum is negative."""
    best = None
    for rows in plan:
        i = int(rows[grad[rows].argmin()])
        key = (grad[i], m_arr[i], n_arr[i])
        if np.isfinite(grad[i]) and (best is None or key < best[0]):
            best = (key, i)
    return None if best is None or best[0][0] >= 0.0 else best[1]


def test_block_reduction_matches_block_by_block_loop(monkeypatch):
    # synthetic scores with few distinct values (ties across blocks) and
    # +inf rows, reduced over real plans, against the loop as a reference
    import fsgl.partition as partition

    rng = np.random.default_rng(17)
    scores = {}
    monkeypatch.setattr(partition, "score_edges", lambda *args: scores["now"])
    cfg = SolverConfig(solver_kind="recursive")
    seen = {"cross_block_tie": 0, "singleton": 0, "none": 0, "inf_rows": 0}
    for seed in range(4):
        obs = solve_instance(seed, 20, "gmm" if seed % 2 == 0 else "mvt")
        g = init_sparse_graph(obs.gram, 40)
        m_arr, n_arr, _ = g.edge_arrays()
        e = g.edge_count
        for v_min in (2, 4, 8):
            plan = cut_plan(g, v_min)
            blocks = plan_blocks(plan)
            seen["singleton"] += sum(b.shape[0] == 1 for b in blocks)
            block_of = np.empty(e, dtype=np.intp)
            for b, rows in enumerate(blocks):
                block_of[rows] = b
            for trial in range(40):
                grad = rng.integers(-3, 3, e).astype(np.float64)
                grad[rng.random(e) < rng.choice([0.0, 0.3, 0.9, 1.0])] = np.inf
                scores["now"] = EdgeScores(-grad, np.ones(e), np.zeros(e),
                                           np.zeros(e), grad)
                trace = SolveTrace()
                got = partition_select(g, None, obs, cfg, plan, None, trace)
                want = _select_block_by_block(grad, m_arr, n_arr, blocks)
                inf_rows = int(np.isinf(grad).sum())
                assert trace.ineligible == inf_rows
                seen["inf_rows"] += inf_rows > 0
                if want is None:
                    assert got is None
                    seen["none"] += 1
                    continue
                assert got[0] == (int(m_arr[want]), int(n_arr[want]))
                assert got[1] == grad[want]
                tied = np.flatnonzero(grad == grad[want])
                seen["cross_block_tie"] += len(set(block_of[tied])) > 1
    assert all(seen.values()), seen


def test_cut_plan_blocks_cover_every_edge_once(monkeypatch):
    rng = np.random.default_rng(3)
    ga = random_connected_unit_graph(rng, 5)
    edges = dict(ga.edges)
    edges.update({(m + 5, n + 5): w for (m, n), w in ga.edges.items()})
    two_components = WeightedGraph(10, edges)
    graphs = [two_components]
    for seed in range(4):
        obs = solve_instance(seed, 20, "gmm" if seed % 2 == 0 else "mvt")
        graphs.append(init_sparse_graph(obs.gram, 40))
    real_syevr = fsgl.spectral._SYEVR
    failures = []

    def failing_syevr(*args, **kwargs):
        # dsyevr's own failure report: outputs as computed, info = 1
        w, z, m, isuppz, _ = real_syevr(*args, **kwargs)
        failures.append(1)
        return w, z, m, isuppz, 1

    # second pass: every sub-graph Fiedler pair comes from the full eigh
    for fail in (False, True):
        with monkeypatch.context() as mp:
            if fail:
                mp.setattr(fsgl.spectral, "_SYEVR", failing_syevr)
            for g in graphs:
                for v_min in (2, 4, 8):
                    plan = cut_plan(g, v_min)
                    plan_blocks(plan)
                    np.testing.assert_array_equal(np.sort(plan[0]),
                                                  np.arange(g.edge_count))
    assert failures


def test_partition_recursion_depth_bounded(monkeypatch):
    # each split strictly shrinks the node set, so depth < N
    obs = solve_instance(2, 24)
    g = init_sparse_graph(obs.gram, 60)
    sweeps = record_sweeps(monkeypatch)
    cut_plan(g, 4)
    max_depth = max(sw.depth for sw in sweeps)
    assert max_depth < 24
    for sw in sweeps:
        assert sw.n <= 24 - sw.depth  # at least one node peels per level


def test_partition_handles_disconnected_candidates():
    # two components: selector must still return the global best edge
    rng = np.random.default_rng(3)
    ga = random_connected_unit_graph(rng, 5)
    edges = dict(ga.edges)
    edges.update({(m + 5, n + 5): w for (m, n), w in ga.edges.items()})
    g = WeightedGraph(10, edges)
    obs = ObservationSet(rng.standard_normal((10, 4)))
    cfg = SolverConfig(solver_kind="recursive")
    state = compute_state(g, cfg, obs.k)
    sel_p = partition_select(g, state, obs, cfg, plan=cut_plan(g, 2))
    sel_g = greedy_step(g, obs.gram, state, cfg)
    assert (sel_p is None) == (sel_g is None)
    if sel_g is not None:
        assert sel_p == sel_g


def test_full_runs_identical_across_selectors():
    # end to end: same trace from the recursive and exhaustive solvers
    for seed in (0, 1):
        obs = solve_instance(seed, 14)
        g0 = init_sparse_graph(obs.gram, 20)
        g_r, tr_r = run_solver(g0, obs, SolverConfig(solver_kind="recursive"))
        g_g, tr_g = run_solver(g0, obs, SolverConfig(solver_kind="greedy"))
        assert tr_r.edges_mn == tr_g.edges_mn
        assert tr_r.grad_h == tr_g.grad_h
        assert g_r.edges == g_g.edges
