"""Cheeger cuts and the recursive edge selector."""

import sys
import warnings
from collections import namedtuple

import numpy as np
import pytest

from doubles import patch_syevr
from lockstep import gram_terms, lockstep
from subsetcut import reference_cheeger
import fsgl.solver
from fsgl.errors import Disconnected, TooLarge
from fsgl.graph import (
    ObservationSet,
    WeightedGraph,
    build_laplacian,
    complete_graph,
    component_labels,
    is_connected,
    weaken_edge,
)
from fsgl.objective import EdgeScores, edge_terms
from fsgl.partition import (
    LEAF_NODES,
    approx_cheeger_cut,
    brute_force_cheeger,
    cut_plan,
    partition_select,
)
from fsgl.solver import SolverConfig, compute_state, greedy_step, run_solver
from fsgl.datagen import connected_pairs, gen_ground_truth, sample_gmm, sample_mvt
from fsgl.init_graph import init_sparse_graph
from fsgl.spectral import smallest_eigenpairs


Sweep = namedtuple("Sweep", "depth n inside m_arr n_arr")


def random_connected_unit_graph(rng, n, density=0.35):
    ms, ns = connected_pairs(n, density, rng)
    return WeightedGraph.from_arrays(n, ms, ns, np.ones(ms.shape[0]))


def two_component_graph(rng):
    """Nodes 0-4 and 5-9, each holding one copy of one random connected unit graph."""
    ga = random_connected_unit_graph(rng, 5)
    edges = dict(ga.edges)
    edges.update({(m + 5, n + 5): w for (m, n), w in ga.edges.items()})
    return WeightedGraph(10, edges)


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


def test_brute_force_matches_the_per_subset_reference():
    # connected, disconnected and edgeless graphs, weighted: every field
    # equal, as Python ints and floats
    kinds = set()
    for seed in range(150):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 11))
        iu, ju = np.triu_indices(n, k=1)
        mask = rng.random(iu.shape[0]) < [0.0, 0.15, 0.4, 0.8][seed % 4]
        g = WeightedGraph.from_arrays(n, iu[mask], ju[mask], rng.uniform(0.1, 3.0, mask.sum()))
        cut, ref = brute_force_cheeger(g), reference_cheeger(g)
        assert (cut.s, cut.cut_edges, cut.ratio) == (ref.s, ref.cut_edges, ref.ratio)
        assert type(cut.ratio) is float
        assert all(type(v) is int for v in cut.s + sum(cut.cut_edges, ()))
        kinds.add((g.edge_count > 0, bool(component_labels(n, iu[mask], ju[mask]).any())))
    assert kinds == {(False, True), (True, True), (True, False)}


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


def test_sweep_cut_takes_a_connected_graph_however_small_its_l2():
    # connectivity comes from the edges: a 1e-10 bridge keeps the path
    # connected, l2 = 1e-10, and the sweep cuts across it
    g = WeightedGraph(4, {(0, 1): 1.0, (1, 2): 1e-10, (2, 3): 1.0})
    state = smallest_eigenpairs(build_laplacian(g), 3)
    assert 0.0 < state.fiedler_value < 1e-9
    cut = approx_cheeger_cut(g, state)
    assert (cut.s, cut.cut_edges, cut.ratio) == ((0, 1), ((1, 2),), 0.5)
    assert cut.ratio >= state.fiedler_value / 2.0
    # without the bridge it is two components, whatever the spectrum says
    g = WeightedGraph(4, {(0, 1): 1.0, (2, 3): 1.0})
    with pytest.raises(Disconnected, match="needs a connected graph"):
        approx_cheeger_cut(g, state)


def brute_sweep(n, m_arr, n_arr, v2):
    """The sweep as the pair (order, t): v2's stable sort order and the
    first prefix length t in [1, n) with the fewest crossing edges per
    node of its smaller side, each prefix's crossings counted on its own."""
    order = v2.argsort(kind="stable")
    inside, best = np.zeros(n, dtype=bool), None
    for t in range(1, n):
        inside[order[t - 1]] = True  # the first t nodes of the order
        ratio = np.count_nonzero(inside[m_arr] != inside[n_arr]) / min(t, n - t)
        if best is None or ratio < best[0]:
            best = (ratio, t)
    return order, best[1]


def seeded_graphs(size, seed0=0):
    """`size` unit-weight graphs on 4 to 59 nodes, by seed, in turn:
    connected, two connected components side by side, and sparse with
    the last quarter of the nodes left without an edge."""
    for seed in range(seed0, seed0 + size):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 60))
        if seed % 3 == 0:
            ms, ns = connected_pairs(n, rng.uniform(0.05, 0.5), rng)
        elif seed % 3 == 1:
            a = int(rng.integers(2, n - 1))
            ms, ns = connected_pairs(a, 0.3, rng)
            ms2, ns2 = connected_pairs(n - a, 0.3, rng)
            ms, ns = np.concatenate([ms, ms2 + a]), np.concatenate([ns, ns2 + a])
        else:
            iu, ju = np.triu_indices(n - n // 4, k=1)
            keep = rng.random(iu.shape[0]) < rng.uniform(0.1, 0.4)
            ms, ns = iu[keep], ju[keep]
        yield WeightedGraph.from_arrays(n, ms, ns, np.ones(ms.shape[0]))


def test_sweep_side_is_the_best_prefix_counted_by_brute_force():
    # Fiedler vectors of connected graphs, two components and isolated
    # nodes, and vectors with many ties, where the stable order decides
    import fsgl.partition as partition

    larger = 0
    for i, g in enumerate(seeded_graphs(60)):
        m_arr, n_arr, _ = g.edge_arrays()
        v2 = smallest_eigenpairs(build_laplacian(g), 2).fiedler_vector
        ties = np.random.default_rng(i).integers(0, 4, g.n).astype(float)
        for v in (v2, ties):
            order, t = brute_sweep(g.n, m_arr, n_arr, v)
            inside = partition._sweep_side(g.n, m_arr, n_arr, v)
            assert inside.dtype == bool
            np.testing.assert_array_equal(inside, np.isin(np.arange(g.n), order[:t]))
            larger += t > g.n - t
    assert larger > 0  # the best prefix is the larger side too


def test_sweep_cut_is_the_smaller_side_of_the_best_prefix():
    # the side with at most half the nodes, the prefix itself at a tie,
    # as the prefix's node set rebuilt from the sweep order by argsort
    larger = 0
    for g in seeded_graphs(300):
        if not is_connected(g):
            continue
        m_arr, n_arr, _ = g.edge_arrays()
        state = smallest_eigenpairs(build_laplacian(g), 3)
        order, t = brute_sweep(g.n, m_arr, n_arr, state.fiedler_vector)
        inside = order.argsort() < t
        side = inside if t <= g.n - t else ~inside
        crossing = side[m_arr] != side[n_arr]
        cut = approx_cheeger_cut(g, state)
        assert len(cut.s) <= g.n // 2
        assert cut.s == tuple(np.flatnonzero(side).tolist())
        assert cut.cut_edges == tuple(zip(m_arr[crossing].tolist(), n_arr[crossing].tolist()))
        assert cut.ratio == crossing.sum() / side.sum()
        larger += t > g.n - t
    assert larger > 0


def plan_blocks(block):
    """The rows of each block of a cut plan, by block id. Checks that no
    row keeps the -1 sentinel and that a fresh plan uses every id."""
    assert block.dtype == np.intp and (block >= 0).all()
    blocks = [np.flatnonzero(block == b) for b in range(int(block.max(initial=-1)) + 1)]
    assert all(b.shape[0] > 0 for b in blocks)
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
    for seed in range(6):
        obs = solve_instance(seed, 16, "gmm" if seed % 2 == 0 else "mvt")
        cfg = SolverConfig(epsilon=0.05, solver_kind="recursive")
        lockstep(init_sparse_graph(obs.gram, 3 * obs.n), obs, cfg, 200)


def test_partition_select_empty_graph():
    obs = solve_instance(0, 6)
    cfg = SolverConfig(solver_kind="recursive")
    g = WeightedGraph(6)
    state = compute_state(g, cfg, obs.k)
    terms = gram_terms(g, obs.gram, cfg)
    assert partition_select(g, state, cfg, terms, cut_plan(g, LEAF_NODES)) is None
    assert greedy_step(g, state, cfg, terms) is None


def record_sweeps(monkeypatch, v_min):
    """Patch partition._sweep_side to log a Sweep at every split of a
    cut_plan(g, v_min) call.

    depth is how many splits lie above the sub-graph being split, worked
    out from the splits: cut_plan walks depth first, inside side first,
    and sweeps a side only when it has edges and touches more than v_min
    nodes, so each sweep is the next such side still pending, one level
    below the split that made it, or a new top-level sweep (depth 0).
    """
    import fsgl.partition as partition

    real = partition._sweep_side
    sweeps, pending = [], []  # pending: (depth, local m, local n) of sides to sweep

    def recording(n, m_arr, n_arr, v2):
        inside = real(n, m_arr, n_arr, v2)
        depth = 0
        if pending:
            depth, lm, ln = pending.pop()
            assert np.array_equal(lm, m_arr) and np.array_equal(ln, n_arr)
        sweeps.append(Sweep(depth, n, inside, m_arr, n_arr))
        m_in, n_in = inside[m_arr], inside[n_arr]
        for side in (~(m_in | n_in), m_in & n_in):  # the inside side pops first
            touched = np.zeros(n, dtype=bool)
            touched[m_arr[side]] = touched[n_arr[side]] = True
            if touched.sum() > v_min:
                local = touched.cumsum() - 1
                pending.append((depth + 1, local[m_arr[side]], local[n_arr[side]]))
        return inside

    monkeypatch.setattr(partition, "_sweep_side", recording)
    return sweeps


def test_partition_audit_rows_partition_exactly(monkeypatch):
    # every split is a node mask with nodes on both sides, taken of a
    # sub-graph that has edges and touches more than v_min nodes
    obs = solve_instance(1, 20)
    g = init_sparse_graph(obs.gram, 40)
    sweeps = record_sweeps(monkeypatch, 4)
    cut_plan(g, 4)
    assert sweeps, "recursion should split at least once"
    for sw in sweeps:
        assert sw.inside.dtype == bool and sw.inside.shape == (sw.n,)
        assert 1 <= np.count_nonzero(sw.inside) < sw.n
        assert sw.n > 4
        assert sw.m_arr.shape[0] > 0
    assert sweeps[0].depth == 0 and sweeps[0].n == 20


def test_cut_plan_skips_nodes_without_edges(monkeypatch):
    # edges among nodes 0-5 of 30: one leaf block, no eigensolve
    import fsgl.partition as partition

    rng = np.random.default_rng(5)
    ms, ns = connected_pairs(6, 0.5, rng)
    g = WeightedGraph.from_arrays(30, ms, ns, np.ones(ms.shape[0]))
    eigensolves = []
    real = partition.smallest_eigenpairs
    monkeypatch.setattr(partition, "smallest_eigenpairs",
                        lambda lap, k: eigensolves.append(lap.shape) or real(lap, k))
    block = cut_plan(g, 8)
    assert eigensolves == []
    np.testing.assert_array_equal(block, np.zeros(g.edge_count))


def test_cut_plan_sweeps_disconnected_graph_along_components(monkeypatch):
    # two 5-node components: the first sweep cuts nothing and puts one
    # component on each side
    rng = np.random.default_rng(3)
    g = two_component_graph(rng)
    sweeps = record_sweeps(monkeypatch, 4)
    block = cut_plan(g, 4)
    first = sweeps[0]
    assert first.n == 10
    assert not (first.inside[first.m_arr] != first.inside[first.n_arr]).any()
    assert np.flatnonzero(first.inside).tolist() in ([0, 1, 2, 3, 4], [5, 6, 7, 8, 9])
    assert block.shape == (g.edge_count,)
    plan_blocks(block)


def test_cut_plan_depends_on_edge_set_not_weights():
    # a weight-only step keeps the plan; deleting an edge makes a new one,
    # labelled 0, 1, ... afresh, which selects what the old plan with the
    # deleted row's label taken out selects
    obs = solve_instance(4, 24)
    g = init_sparse_graph(obs.gram, 60)
    block = cut_plan(g, 4)
    assert block.max() > 0
    for edge in list(g.edges)[::7]:
        weaker = weaken_edge(g, edge, 0.3)
        assert weaker.edge_count == g.edge_count
        np.testing.assert_array_equal(cut_plan(weaker, 4), block)
    edge = next(iter(g.edges))
    smaller = weaken_edge(g, edge, g.edges[edge])
    assert smaller.edge_count == g.edge_count - 1
    fresh = cut_plan(smaller, 4)
    assert fresh.shape[0] == smaller.edge_count
    plan_blocks(fresh)
    m_arr, n_arr, _ = g.edge_arrays()
    row = int(np.flatnonzero((m_arr == edge[0]) & (n_arr == edge[1]))[0])
    cfg = SolverConfig(solver_kind="recursive", alpha=2.0)  # some edge descends
    state = compute_state(smaller, cfg, obs.k)
    terms = gram_terms(smaller, obs.gram, cfg)
    sel = partition_select(smaller, state, cfg, terms, fresh)
    assert sel is not None
    restricted = np.delete(block, row)
    assert not np.array_equal(fresh, restricted)  # same shape, other blocks
    assert partition_select(smaller, state, cfg, terms, restricted) == sel


def test_run_solver_builds_one_plan_per_solve(monkeypatch):
    # and computes the scoring terms once per solve, on either arm
    import fsgl.partition as partition

    calls, terms = [], []
    real, real_terms = partition.cut_plan, fsgl.solver.edge_terms
    monkeypatch.setattr(partition, "cut_plan",
                        lambda g, v_min: calls.append(g.edge_count) or real(g, v_min))
    monkeypatch.setattr(fsgl.solver, "edge_terms",
                        lambda y, m, n, eps: terms.append(m.shape[0]) or real_terms(y, m, n, eps))
    obs = solve_instance(3, 16)
    g0 = init_sparse_graph(obs.gram, 30)
    _, trace = run_solver(g0, obs, SolverConfig(solver_kind="recursive",
                                                epsilon=0.05))
    assert len(trace) > 0
    assert trace.edge_counts[-1] < g0.edge_count, "the solve should delete an edge"
    assert calls == [g0.edge_count] and terms == [g0.edge_count]
    calls.clear()
    terms.clear()
    _, trace = run_solver(g0, obs, SolverConfig(solver_kind="greedy", epsilon=0.05))
    assert trace.edge_counts[-1] < g0.edge_count
    assert calls == [] and terms == [g0.edge_count]


def assert_terms_of(terms, y, g, cfg):
    """`terms` is bitwise edge_terms of g's edges."""
    m_arr, n_arr, _ = g.edge_arrays()
    want = edge_terms(y, m_arr, n_arr, cfg.epsilon)
    assert terms.shape == want.shape and terms.tobytes() == want.tobytes()


def test_solve_plan_is_the_start_plan_restricted_to_surviving_edges(monkeypatch):
    # each step's plan is the start graph's labels of the edges left, matched
    # by (m, n); a deletion that empties a block leaves its id unused. The
    # terms carried with it are the edges' own, bit for bit
    import fsgl.partition as partition

    real = partition.partition_select
    seen = {"steps": 0, "emptied": 0, "last_emptied": 0}

    def checked(g, state, cfg, terms, plan, trace):
        assert_terms_of(terms, obs.gram, g, cfg)
        m_arr, n_arr, _ = g.edge_arrays()
        keep = np.isin(keys0, m_arr * g.n + n_arr)
        np.testing.assert_array_equal(keys0[keep], m_arr * g.n + n_arr)
        assert plan.dtype == np.intp
        np.testing.assert_array_equal(plan, plan0[keep])
        seen["steps"] += 1
        seen["emptied"] += np.unique(plan).shape[0] < plan0.max() + 1
        seen["last_emptied"] += plan.max() < plan0.max()
        return real(g, state, cfg, terms, plan, trace)

    monkeypatch.setattr(partition, "partition_select", checked)
    # the N = 12 solve's one deletion empties the plan's last block, a singleton
    for seed, n, generator in ((1, 12, "mvt"), (2, 16, "gmm"), (0, 24, "gmm"),
                               (3, 30, "gmm")):
        obs = solve_instance(seed, n, generator)
        g0 = init_sparse_graph(obs.gram, 3 * n)
        m0, n0, _ = g0.edge_arrays()
        keys0, plan0 = m0 * n + n0, cut_plan(g0, LEAF_NODES)
        g, trace = run_solver(g0, obs, SolverConfig(solver_kind="recursive", epsilon=0.05))
        assert g.edge_count == trace.edge_counts[-1] < g0.edge_count
    assert all(seen.values()), seen


def test_greedy_solve_carries_the_terms_of_surviving_edges(monkeypatch):
    # the scan's twin of the check above: at each step of a greedy solve,
    # sparse or complete start, the carried terms are edge_terms of the
    # edges left, bit for bit, also after deletions
    real = fsgl.solver.greedy_step
    seen = {"steps": 0, "after_deletion": 0}

    def checked(g, state, cfg, terms, trace):
        assert_terms_of(terms, obs.gram, g, cfg)
        seen["steps"] += 1
        seen["after_deletion"] += g.edge_count < start
        return real(g, state, cfg, terms, trace)

    monkeypatch.setattr(fsgl.solver, "greedy_step", checked)
    for seed, n, generator, complete in ((1, 12, "mvt", True), (2, 16, "gmm", False),
                                         (3, 30, "gmm", False)):
        obs = solve_instance(seed, n, generator)
        g0 = complete_graph(n) if complete else init_sparse_graph(obs.gram, 3 * n)
        start = g0.edge_count
        g, trace = run_solver(g0, obs, SolverConfig(epsilon=0.25 if complete else 0.05))
        assert g.edge_count == trace.edge_counts[-1] < start
    assert all(seen.values()), seen


def test_selection_through_a_plan_whose_last_block_emptied():
    # a path of four edges in blocks {0, 1}, {2}, {3} loses its last edge:
    # block 2 empties, and the winner is in block 1, the new last block
    obs = solve_instance(3, 5)
    g = WeightedGraph(5, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (3, 4): 1.0})
    start = np.array([0, 0, 1, 2], dtype=np.intp)
    g = weaken_edge(g, (3, 4), 1.0)
    plan = np.delete(start, 3)
    np.testing.assert_array_equal(plan, [0, 0, 1])
    cfg = SolverConfig(solver_kind="recursive")
    state = compute_state(g, cfg, obs.k)
    terms = gram_terms(g, obs.gram, cfg)
    sel = greedy_step(g, state, cfg, terms)
    assert sel[2] == 2 and partition_select(g, state, cfg, terms, plan) == sel


def test_partition_select_raises_when_its_blocks_disagree_with_the_pick(monkeypatch):
    # a pick that is not the best block minimum is a fault, never a solve
    # that stops as if no edge descended
    import fsgl.partition as partition

    obs = solve_instance(0, 12)
    g = complete_graph(12)
    cfg = SolverConfig(solver_kind="recursive")
    state = compute_state(g, cfg, obs.k)

    def the_worst_descent(grad, m_arr, n_arr):
        i = int(np.argmax(np.where(grad < 0.0, grad, -np.inf)))
        return (int(m_arr[i]), int(n_arr[i])), float(grad[i]), i
    monkeypatch.setattr(partition, "selection", the_worst_descent)
    with pytest.raises(RuntimeError, match=r"the scan picked -\S+, not the best block "
                       r"minimum -\S+$"):
        partition_select(g, state, cfg, gram_terms(g, obs.gram, cfg), cut_plan(g, LEAF_NODES))


@pytest.mark.parametrize("rows", [65, 67])
def test_partition_select_refuses_a_plan_that_does_not_label_every_edge(rows):
    # complete_graph(12) has 66 edge rows; a plan one short or one long
    # once ended in NumPy's broadcast error from np.fmin.at
    obs = solve_instance(0, 12)
    g = complete_graph(12)
    cfg = SolverConfig(solver_kind="recursive")
    state = compute_state(g, cfg, obs.k)
    terms = gram_terms(g, obs.gram, cfg)
    sel = greedy_step(g, state, cfg, terms)
    assert sel is not None
    assert partition_select(g, state, cfg, terms, np.zeros(66, dtype=np.intp)) == sel
    with pytest.raises(ValueError, match=f"plan labels {rows} edge rows, but g has 66"):
        partition_select(g, state, cfg, terms, np.zeros(rows, dtype=np.intp))


def _odd_rows_unlabelled(plan):
    plan = plan.copy()
    plan[1::2] = -1
    return plan


@pytest.mark.parametrize("malformed, fault", [
    (lambda plan: np.full(plan.shape[0], -1), "plan gives row 0 the label -1"),
    (_odd_rows_unlabelled, "plan gives row 1 the label -1"),
    (lambda plan: plan.astype(float), "integer array, got a 1-D float64 array"),
    (list, "integer array, got a list"),
], ids=["all-minus-one", "odd-rows-minus-one", "float", "list"])
def test_partition_select_refuses_a_malformed_plan(malformed, fault):
    # on the N = 30 sparse start's 119 edge rows these plans once raised
    # IndexError or AttributeError, or (odd rows -1, which np.fmin.at wraps
    # to the last block) selected without a word
    obs = solve_instance(0, 30)
    cfg = SolverConfig(solver_kind="recursive")
    g = init_sparse_graph(obs.gram, None)
    state = compute_state(g, cfg, obs.k)
    plan, terms = cut_plan(g, LEAF_NODES), gram_terms(g, obs.gram, cfg)
    sel = greedy_step(g, state, cfg, terms)
    assert g.edge_count == 119 and sel is not None
    assert partition_select(g, state, cfg, terms, plan) == sel
    with pytest.raises(ValueError, match=fault):
        partition_select(g, state, cfg, terms, malformed(plan))


def _select_block_by_block(grad, m_arr, n_arr, plan):
    """The reduction as a loop: an argmin per block, then the best
    (grad, m, n) key over the block minima. plan is the list of each
    block's rows. Returns a row, or None when a NaN is anywhere (as in
    greedy_step, whose argmin stops at it) or the best minimum is not
    finite and negative."""
    if np.isnan(grad).any():
        return None
    best = min((grad[i], m_arr[i], n_arr[i], i)
               for i in (int(rows[grad[rows].argmin()]) for rows in plan))
    return best[3] if -np.inf < best[0] < 0.0 else None


def test_block_reduction_matches_block_by_block_loop(monkeypatch):
    # synthetic scores with few distinct values (ties across blocks) and
    # +inf, -inf and NaN rows, reduced over real plans, against the loop as
    # a reference and against greedy_step; each plan also runs with its ids
    # spread out, so some ids label no row
    import fsgl.partition as partition

    rng = np.random.default_rng(17)
    scores = {}
    monkeypatch.setattr(partition, "score_edges", lambda *args: scores["now"])
    monkeypatch.setattr(fsgl.solver, "score_edges", lambda *args: scores["now"])
    cfg = SolverConfig(solver_kind="recursive")
    seen = {"cross_block_tie": 0, "singleton": 0, "none": 0, "inf_rows": 0,
            "all_inf": 0, "neg_inf_rows": 0, "nan_rows": 0, "unused_ids": 0}
    for seed in range(4):
        obs = solve_instance(seed, 20, "gmm" if seed % 2 == 0 else "mvt")
        g = init_sparse_graph(obs.gram, 40)
        m_arr, n_arr, _ = g.edge_arrays()
        e = g.edge_count
        for v_min in (2, 4, 8):
            block_of = cut_plan(g, v_min)
            blocks = plan_blocks(block_of)
            seen["singleton"] += sum(b.shape[0] == 1 for b in blocks)
            ids = rng.permutation(3 * len(blocks))[:len(blocks)]
            for plan in (block_of, ids[block_of]) * 40:
                seen["unused_ids"] += plan.max() + 1 > len(blocks)
                grad = rng.integers(-3, 3, e).astype(np.float64)
                grad[rng.random(e) < rng.choice([0.0, 0.3, 0.9, 1.0])] = np.inf
                grad[rng.random(e) < rng.choice([0.0, 0.0, 0.02])] = -np.inf
                grad[rng.random(e) < rng.choice([0.0, 0.0, 0.02])] = np.nan
                scores["now"] = EdgeScores(np.ones(e), np.zeros(e), grad)
                got = partition_select(g, None, cfg, None, plan)
                want = _select_block_by_block(grad, m_arr, n_arr, blocks)
                assert got == greedy_step(g, None, cfg, None)
                seen["inf_rows"] += (grad == np.inf).any()
                seen["all_inf"] += (grad == np.inf).all()
                seen["neg_inf_rows"] += (grad == -np.inf).any()
                seen["nan_rows"] += np.isnan(grad).any()
                if want is None:
                    assert got is None
                    seen["none"] += 1
                    continue
                assert got[0] == (int(m_arr[want]), int(n_arr[want]))
                assert got[1] == grad[want]
                tied = np.flatnonzero(grad == grad[want])
                seen["cross_block_tie"] += len(set(block_of[tied])) > 1
    assert all(seen.values()), seen


def test_a_nan_score_makes_neither_selector_warn(monkeypatch):
    # both select nothing, the scan because argmin stops at the NaN and the
    # recursive arm because the block minima skip it
    import fsgl.partition as partition

    obs = solve_instance(0, 20, "gmm")
    g = init_sparse_graph(obs.gram, 40)
    plan = cut_plan(g, LEAF_NODES)
    e = g.edge_count
    cfg = SolverConfig(solver_kind="recursive")
    for nan_rows in ([e // 2], [0, e - 1], list(range(e))):
        grad = -np.arange(1.0, e + 1.0)
        grad[nan_rows] = np.nan
        scores = EdgeScores(np.ones(e), np.zeros(e), grad)
        monkeypatch.setattr(partition, "score_edges", lambda *args: scores)
        monkeypatch.setattr(fsgl.solver, "score_edges", lambda *args: scores)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert partition_select(g, None, cfg, None, plan) is None
            assert greedy_step(g, None, cfg, None) is None


def test_cut_plan_blocks_cover_every_edge_once(monkeypatch):
    # and match the recursive reference, also where a sub-graph falls apart
    import fsgl.partition as partition

    rng = np.random.default_rng(3)
    graphs = [two_component_graph(rng)]
    for seed in range(4):
        obs = solve_instance(seed, 20, "gmm" if seed % 2 == 0 else "mvt")
        graphs.append(init_sparse_graph(obs.gram, 40))
    for seed in range(12):  # sparse, mostly disconnected, isolated nodes too
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(6, 31))
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(iu.shape[0]) < rng.uniform(0.05, 0.3)
        graphs.append(WeightedGraph.from_arrays(n, iu[keep], ju[keep], np.ones(keep.sum())))
    real_sweep, apart = partition._sweep_side, []

    def sweep(k, lm, ln, v2):  # every swept node has an edge
        apart.append(bool(component_labels(k, lm, ln).any()))
        return real_sweep(k, lm, ln, v2)

    monkeypatch.setattr(partition, "_sweep_side", sweep)
    failures = []
    # second pass: every sub-graph Fiedler pair comes from the full eigh,
    # after dsyevr's own failure report (outputs as computed, info = 1)
    for fail in (False, True):
        with monkeypatch.context() as mp:
            if fail:
                failures = patch_syevr(mp, info=1)
            for g in graphs:
                for v_min in range(2, 10):
                    block = cut_plan(g, v_min)
                    assert block.shape == (g.edge_count,)
                    plan_blocks(block)
                    np.testing.assert_array_equal(block, recursive_plan(g, v_min))
    assert failures and any(apart) and not all(apart)


def test_partition_recursion_depth_bounded(monkeypatch):
    # each split strictly shrinks the node set, so depth < N
    obs = solve_instance(2, 24)
    g = init_sparse_graph(obs.gram, 60)
    sweeps = record_sweeps(monkeypatch, 4)
    cut_plan(g, 4)
    max_depth = max(sw.depth for sw in sweeps)
    assert max_depth < 24
    for sw in sweeps:
        assert sw.n <= 24 - sw.depth  # at least one node peels per level


def hand_built_fiedler(k, lm, ln):
    """Fiedler vector of a sub-graph on k local nodes, unit weights, from a
    Laplacian laid out here by hand rather than by graph.py."""
    lap = np.zeros((k, k))
    lap[lm, ln] = -1.0
    lap[ln, lm] = -1.0
    np.fill_diagonal(lap, np.bincount(lm, minlength=k) + np.bincount(ln, minlength=k))
    return smallest_eigenpairs(lap, 2).fiedler_vector


def recursive_plan(g, v_min):
    """cut_plan as the recursion it was: each sub-graph's blocks labelled
    in pre-order, the inside side split before the outside one, each
    split's Fiedler vector from `hand_built_fiedler` and its inside
    nodes scattered from `brute_sweep`'s order and prefix length."""
    m_arr, n_arr, _ = g.edge_arrays()
    block = np.full(m_arr.shape[0], -1, dtype=np.intp)
    blocks = []

    def split(rows, lm, ln, k):
        if rows.shape[0] == 0:
            return
        touched = np.zeros(k, dtype=bool)
        touched[lm] = touched[ln] = True
        local = touched.cumsum() - 1
        k = int(local[-1]) + 1
        if k <= v_min:
            blocks.append(rows)
            return
        lm, ln = local[lm], local[ln]
        order, t = brute_sweep(k, lm, ln, hand_built_fiedler(k, lm, ln))
        in_s = np.zeros(k, dtype=bool)
        in_s[order[:t]] = True
        m_in, n_in = in_s[lm], in_s[ln]
        if (m_in ^ n_in).any():
            blocks.append(rows[m_in ^ n_in])
        for side in (m_in & n_in, ~(m_in | n_in)):
            split(rows[side], lm[side], ln[side], k)

    split(np.arange(m_arr.shape[0], dtype=np.intp), m_arr, n_arr, g.n)
    for b, rows in enumerate(blocks):
        block[rows] = b
    return block


def test_cut_plan_splits_by_the_hand_built_laplacians_fiedler_vectors(monkeypatch):
    # every split's Laplacian comes from graph.py; its Fiedler vector and the
    # plan's labels are bitwise those of a hand-built local Laplacian, on
    # connected graphs, disconnected ones and ones with isolated nodes
    import fsgl.partition as partition

    graphs = []
    for seed in range(12):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(10, 31))
        if seed % 3 < 2:  # connected, or two connected components side by side
            a = n if seed % 3 == 0 else int(rng.integers(4, n - 3))
            ms, ns = connected_pairs(a, 0.3, rng)
            if a < n:
                ms2, ns2 = connected_pairs(n - a, 0.3, rng)
                ms, ns = np.concatenate([ms, ms2 + a]), np.concatenate([ns, ns2 + a])
        else:  # sparse, and the last quarter of the nodes keep no edge
            iu, ju = np.triu_indices(n - n // 4, k=1)
            keep = rng.random(iu.shape[0]) < rng.uniform(0.08, 0.3)
            ms, ns = iu[keep], ju[keep]
        graphs.append(WeightedGraph.from_arrays(n, ms, ns, np.ones(ms.shape[0])))
    real_sweep, splits = partition._sweep_side, []

    def bits(a):
        return a.view(np.int64).tolist()

    def sweep(k, lm, ln, v2):
        splits.append(bits(v2) == bits(hand_built_fiedler(k, lm, ln)))
        return real_sweep(k, lm, ln, v2)

    monkeypatch.setattr(partition, "_sweep_side", sweep)
    kinds = set()
    for g in graphs:
        m_arr, n_arr, _ = g.edge_arrays()
        labels = component_labels(g.n, m_arr, n_arr)
        isolated = np.bincount(np.concatenate([m_arr, n_arr]), minlength=g.n) == 0
        kinds.add((bool(labels.any()), bool(isolated.any())))
        for v_min in range(2, 9):
            got = cut_plan(g, v_min)
            with monkeypatch.context() as mp:
                mp.setattr(partition, "_sweep_side", real_sweep)
                want = recursive_plan(g, v_min)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
    assert splits and all(splits)
    assert kinds == {(False, False), (True, False), (True, True)}


def test_cut_plan_lays_blocks_out_in_recursive_pre_order():
    for seed in range(4):
        obs = solve_instance(seed, 40, "gmm" if seed % 2 == 0 else "mvt")
        for b in (None, 0):
            g = init_sparse_graph(obs.gram, b)
            for v_min in (2, 4, 8):
                got, want = cut_plan(g, v_min), recursive_plan(g, v_min)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)


def test_cut_plan_is_the_recursion_on_300_seeded_graphs():
    kinds = set()
    for g in seeded_graphs(300, 1000):
        m_arr, n_arr, _ = g.edge_arrays()
        isolated = np.bincount(np.concatenate([m_arr, n_arr]), minlength=g.n) == 0
        kinds.add((is_connected(g), bool(isolated.any())))
        for v_min in (2, 4, 8):
            got, want = cut_plan(g, v_min), recursive_plan(g, v_min)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
    assert kinds == {(True, False), (False, False), (False, True)}


def test_cut_plan_nests_deeper_than_the_recursion_limit(monkeypatch):
    # this N = 240 sparse start nests 112 splits deep; cut_plan keeps its
    # sub-graphs on a stack of its own, not one Python frame per level
    g = init_sparse_graph(solve_instance(2, 240).gram, None)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        block = cut_plan(g, LEAF_NODES)
    finally:
        sys.setrecursionlimit(limit)
    assert block.shape == (g.edge_count,)
    plan_blocks(block)
    sweeps = record_sweeps(monkeypatch, LEAF_NODES)
    cut_plan(g, LEAF_NODES)
    assert max(sw.depth for sw in sweeps) == 112


def test_partition_handles_disconnected_candidates():
    # two components: selector must still return the global best edge
    rng = np.random.default_rng(3)
    g = two_component_graph(rng)
    obs = ObservationSet(rng.standard_normal((10, 4)))
    cfg = SolverConfig(solver_kind="recursive")
    state = compute_state(g, cfg, obs.k)
    terms = gram_terms(g, obs.gram, cfg)
    sel_p = partition_select(g, state, cfg, terms, cut_plan(g, 2))
    sel_g = greedy_step(g, state, cfg, terms)
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
        assert np.array_equal(tr_r.edges_mn, tr_g.edges_mn)
        assert np.array_equal(tr_r.grad_h, tr_g.grad_h)
        assert g_r.edges == g_g.edges

