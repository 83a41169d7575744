"""Graph container, Laplacian construction, and edge mutation."""

import pickle
import re
import warnings
from copy import deepcopy

import numpy as np
import pytest

from edgecheck import random_edge_list, reference_arrays
from unionfind import connected_components, reference_labels
from fsgl.errors import DuplicateEdge, FsglError, MissingEdge, NonFiniteInput
from fsgl.graph import (
    WEIGHT_ZERO,
    Laplacian,
    ObservationSet,
    WeightedGraph,
    build_laplacian,
    canonical_edge,
    check_shift,
    complete_graph,
    component_labels,
    gram,
    is_connected,
    weaken_edge,
)


def random_graph(rng, n, density=0.4):
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.shape[0]) < density
    edges = {(int(a), int(b)): float(w)
             for a, b, w in zip(iu[mask], ju[mask],
                                rng.uniform(0.2, 2.0, int(mask.sum())))}
    return WeightedGraph(n, edges)


def test_canonical_edge_orders_and_rejects_loops():
    assert canonical_edge(5, 2) == (2, 5)
    assert canonical_edge(2, 5) == (2, 5)
    with pytest.raises(ValueError):
        canonical_edge(3, 3)


def test_constructor_canonicalizes_and_validates():
    g = WeightedGraph(4, {(3, 1): 2.0, (0, 2): 1.0})
    assert set(g.edges) == {(1, 3), (0, 2)}
    assert g.weight(3, 1) == 2.0
    with pytest.raises(ValueError):
        WeightedGraph(3, {(0, 1): 0.0})
    with pytest.raises(ValueError):
        WeightedGraph(3, {(0, 1): -1.0})
    with pytest.raises(ValueError):
        WeightedGraph(3, {(0, 5): 1.0})
    with pytest.raises(ValueError):
        WeightedGraph(0)


def test_constructor_rejects_a_pair_given_in_both_orders():
    # one weight per unordered pair: the second one is an error, not a win
    with pytest.raises(DuplicateEdge, match=r"edge \(0,1\) given twice"):
        WeightedGraph(3, {(0, 1): 1.0, (1, 0): 2.0})
    with pytest.raises(DuplicateEdge, match=r"edge \(1,2\)"):
        WeightedGraph(3, {(2, 1): 1.0, (0, 1): 1.0, (1, 2): 1.0})


@pytest.mark.parametrize("w", [np.nan, np.inf, -np.inf])
def test_constructor_rejects_non_finite_weights(w):
    with pytest.raises(NonFiniteInput, match="non-finite weight"):
        WeightedGraph(3, {(0, 1): 1.0, (1, 2): w})


OUTCOMES = ("graph", "self-loop", "out of range", "non-finite", "nonpositive", "given twice")


def build_outcome(build):
    """The arrays (ms, ns, ws, keys) a build makes, as dtype and bytes, or
    the type, message, position and earlier row of what it raises. A
    graph's keys m * N + n come from its returned arrays, so comparing
    them checks the sort order."""
    try:
        arrays = build()
    except (ValueError, FsglError) as exc:
        return (type(exc), str(exc), getattr(exc, "position", None),
                getattr(exc, "earlier", None))
    if isinstance(arrays, WeightedGraph):
        ms, ns, ws = arrays.edge_arrays()
        arrays = (ms, ns, ws, ms * arrays.n + ns)
    return tuple((a.dtype.str, a.tobytes()) for a in arrays)


def test_array_and_mapping_builds_match_the_per_edge_reference():
    kinds = set()
    for seed in range(400):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        edges = random_edge_list(rng, n)
        ms, ns, ws = (np.array(col) for col in zip(*edges)) if edges else ([], [], [])
        expected = build_outcome(lambda: reference_arrays(n, edges))
        assert build_outcome(lambda: WeightedGraph.from_arrays(n, ms, ns, ws)) == expected
        mapping = {(m, k): w for m, k, w in edges}
        expected = build_outcome(lambda: reference_arrays(
            n, [(m, k, w) for (m, k), w in mapping.items()]))
        assert build_outcome(lambda: WeightedGraph(n, mapping)) == expected
        message = expected[1] if isinstance(expected[0], type) else "graph"
        kinds.update(kind for kind in OUTCOMES if kind in message)
    assert kinds == set(OUTCOMES)


def test_node_beyond_the_index_range_is_out_of_range():
    # such a node never reaches the bulk checks: it fits no intp array
    for build in (lambda: WeightedGraph(3, {(0, 1): 1.0, (0, 10**20): 1.0}),
                  lambda: WeightedGraph.from_arrays(3, [0, -10**20], [1, 2], [1.0, 1.0])):
        with pytest.raises(ValueError, match="out of range for n=3"):
            build()


def test_unsigned_node_id_past_the_intp_range_is_named_as_given():
    # an intp cast wraps 2**64 - 1 to -1, a node the caller never gave
    top = 2**64 - 1
    for ms, ns, position in (([top], [1], 0), ([0, 1], [1, top], 1), ([1, top], [0, 2], 1)):
        with pytest.raises(ValueError, match=rf"edge \({min(ms[position], ns[position])},"
                                             rf"{top}\) out of range for n=3") as info:
            WeightedGraph.from_arrays(3, np.array(ms, np.uint64), np.array(ns, np.uint64),
                                      np.ones(len(ms)))
        assert info.value.position == position
    # two such ids are distinct nodes, and an earlier bad edge still comes first
    with pytest.raises(ValueError, match=rf"edge \({top - 1},{top}\) out of range"):
        WeightedGraph.from_arrays(3, np.array([top], np.uint64), np.array([top - 1], np.uint64),
                                  [1.0])
    with pytest.raises(ValueError, match="edge \\(0,1\\) has nonpositive weight") as info:
        WeightedGraph.from_arrays(3, np.array([0, top], np.uint64), [1, 1], [-1.0, 1.0])
    assert info.value.position == 0


def test_laplacian_of_a_degree_that_overflows_is_non_finite_input():
    # every weight is finite; node 1's degree, their sum, is not
    g = WeightedGraph(3, {(0, 1): 1e308, (1, 2): 1e308})
    for build in (build_laplacian, Laplacian):
        with pytest.raises(NonFiniteInput, match="node 1's weighted degree overflows"):
            build(g)


def test_edge_arrays_sorted_lexicographically():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 12)
        m_arr, n_arr, w_arr = g.edge_arrays()
        pairs = list(zip(m_arr.tolist(), n_arr.tolist()))
        assert pairs == sorted(pairs)
        assert np.all(m_arr < n_arr)
        assert np.all(w_arr > 0)


def test_adjacency_symmetric_zero_diagonal():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 9)
    w = g.adjacency()
    assert np.array_equal(w, w.T)
    assert np.all(np.diag(w) == 0.0)
    assert np.count_nonzero(w) == 2 * g.edge_count


def test_laplacian_matches_definition_and_invariants():
    # L = diag(W 1) - W, rows sum to zero, eigenvalues >= -1e-9
    for seed in range(30):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, int(rng.integers(2, 14)))
        lap = build_laplacian(g)
        w = g.adjacency()
        ref = np.diag(w.sum(axis=1)) - w
        assert np.allclose(lap, ref, atol=0.0)
        row_tol = 1e-12 * (1.0 + float(np.linalg.norm(w)))
        assert np.max(np.abs(lap.sum(axis=1))) <= row_tol
        assert np.linalg.eigvalsh(lap)[0] >= -1e-9


def test_check_shift_refuses_a_shift_within_rounding_of_zero():
    # tol = n eps 2 max_i L_ii bounds the rounding of L's zero eigenvalue;
    # c = tol is refused and the next float up accepted
    for seed in range(10):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, int(rng.integers(2, 30)))
        lap = build_laplacian(g)
        tol = lap.shape[0] * 2.0**-52 * 2.0 * lap.diagonal().max()
        assert abs(np.linalg.eigvalsh(lap)[0]) <= tol
        with pytest.raises(ValueError, match=r"^L \+ rho I is singular at rho="):
            check_shift(lap, tol, "rho")
        check_shift(lap, np.nextafter(tol, np.inf), "rho")
    # no edge, no rounding: every positive shift is exact
    check_shift(build_laplacian(WeightedGraph(3)), 5e-324, "alpha")
    with pytest.raises(ValueError, match=r"L \+ alpha I is singular at alpha=0.0;"):
        check_shift(build_laplacian(WeightedGraph(3)), 0.0, "alpha")


def test_laplacian_dense_above_former_sparse_limit():
    # N = 70 once built a CSR matrix; every size is now a dense ndarray
    rng = np.random.default_rng(1)
    g = random_graph(rng, 70, density=0.1)
    lap = build_laplacian(g)
    assert isinstance(lap, np.ndarray) and lap.shape == (70, 70)
    w = g.adjacency()
    assert np.allclose(lap, np.diag(w.sum(axis=1)) - w)


def test_weaken_edge_is_rank_one_laplacian_update():
    # weakening by eps subtracts min(eps, w) E^{mn} from L exactly
    for seed in range(25):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 10, density=0.5)
        if g.edge_count == 0:
            continue
        keys = list(g.edges)
        m, n = keys[int(rng.integers(len(keys)))]
        eps = float(rng.uniform(0.01, 3.0))
        step = min(eps, g.weight(m, n))
        e = np.zeros(g.n)
        e[m], e[n] = 1.0, -1.0
        before = build_laplacian(g)
        after = build_laplacian(weaken_edge(g, (m, n), eps))
        assert np.max(np.abs(after - (before - step * np.outer(e, e)))) < 1e-12


def test_weaken_edge_deletes_at_zero():
    g = WeightedGraph(3, {(0, 1): 0.5, (1, 2): 1.0})
    g2 = weaken_edge(g, (0, 1), 0.5)
    assert not g2.has_edge(0, 1)
    assert g2.edge_count == 1
    # original untouched
    assert g.has_edge(0, 1)


def test_weaken_edge_missing_and_bad_eps():
    g = WeightedGraph(3, {(0, 1): 0.5})
    with pytest.raises(MissingEdge):
        weaken_edge(g, (0, 2), 0.1)
    for bad in (0.0, np.nan):
        with pytest.raises(ValueError):
            weaken_edge(g, (0, 1), bad)


def test_has_edge_rejects_float_node_ids():
    g = WeightedGraph(3, {(0, 1): 1.0})
    with pytest.raises(TypeError, match="node id must be an integer, got 0.0"):
        g.has_edge(0.0, 1.0)


def test_has_edge_rejects_bool_node_ids():
    g = WeightedGraph(3, {(1, 2): 1.0})
    with pytest.raises(TypeError, match="node id must be an integer, got True"):
        g.has_edge(True, 2)


def test_weaken_edge_rejects_float_node_ids():
    g = WeightedGraph(3, {(0, 1): 1.0})
    with pytest.raises(TypeError, match="node id must be an integer"):
        weaken_edge(g, (0.0, 1.0), 0.1)


def test_from_arrays_rejects_a_non_integer_node_count():
    for bad in (2.7, 2.0, True, np.float64(3.0)):
        with pytest.raises(TypeError, match="node count must be an integer"):
            WeightedGraph.from_arrays(bad, [0], [1], [1.0])
    assert WeightedGraph.from_arrays(np.int64(2), [0], [1], [1.0]).n == 2


def test_weaken_edge_takes_a_numpy_row_and_names_it_plainly():
    # a solve trace's edges are int64 rows; errors print them as (m, n)
    g = WeightedGraph(4, {(0, 1): 1.0})
    with pytest.raises(MissingEdge, match=r"^edge \(0, 3\) not in graph$"):
        weaken_edge(g, np.array([0, 3]), 0.1)
    assert weaken_edge(g, np.array([1, 0]), 0.25).weight(0, 1) == 0.75
    assert canonical_edge(*np.array([3, 1])) == (1, 3)
    assert all(type(v) is int for v in canonical_edge(np.int64(3), np.uint8(1)))


def test_weaken_edge_rejects_a_step_that_changes_nothing():
    # 1.0 - 1e-320 rounds back to 1.0: the step would descend only on paper
    g = WeightedGraph(3, {(0, 1): 1.0, (1, 2): 0.5})
    with pytest.raises(ValueError, match=r"step 1e-320 leaves the weight 1.0 "
                                         r"of edge \(0, 1\) unchanged"):
        weaken_edge(g, (1, 0), 1e-320)
    # a step of a few ulps still counts
    assert weaken_edge(g, (1, 0), 1e-15).weight(0, 1) < 1.0


# Pairs whose key m * N + n is that of edge (2, 5) on 10 nodes.
ALIASES = [(1, 15), (15, 1), (-1, 35), (0, 25), (-2, 45)]


def test_has_edge_matches_no_edge_outside_the_node_range():
    g = WeightedGraph(10, {(2, 5): 1.0})
    assert g.has_edge(2, 5)
    assert [g.has_edge(*pair) for pair in ALIASES] == [False] * len(ALIASES)


def test_weight_of_a_pair_outside_the_node_range_is_a_key_error():
    g = WeightedGraph(10, {(2, 5): 1.0})
    for pair in ALIASES:
        with pytest.raises(KeyError):
            g.weight(*pair)


def test_weaken_edge_outside_the_node_range_is_a_missing_edge():
    g = WeightedGraph(10, {(2, 5): 1.0})
    for pair in ALIASES:
        with pytest.raises(MissingEdge, match="not in graph"):
            weaken_edge(g, pair, 0.5)
    assert g.weight(2, 5) == 1.0


def lookup_graphs():
    """Seeded graphs whose node runs start and end at both array ends: some
    nodes isolated, no edges at all, or none at the first or last node."""
    graphs = [WeightedGraph(1), WeightedGraph(5), WeightedGraph(4, {(1, 2): 0.5})]
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        g = random_graph(rng, n, density=float(rng.uniform(0.1, 0.9)))
        ms, ns, ws = g.edge_arrays()
        # keep every edge, or drop node 0's, or node n - 1's
        keep = [np.full(ms.shape, True), ms != 0, ns != n - 1][seed % 3]
        graphs.append(WeightedGraph.from_arrays(n, ms[keep], ns[keep], ws[keep]))
    return graphs


def test_edge_lookup_matches_a_dict_oracle_on_every_pair():
    # weight, has_edge and weaken_edge find an edge by node m's run of
    # rows, then n within it; every pair near the node range, both orders
    for g in lookup_graphs():
        oracle = dict(g.edges)
        for m in range(-1, g.n + 1):
            for n in range(-1, g.n + 1):
                if m == n:
                    continue
                key = (min(m, n), max(m, n))
                assert g.has_edge(m, n) == (key in oracle)
                if key in oracle:
                    assert g.weight(m, n) == oracle[key]
                    assert weaken_edge(g, (m, n), 0.125).weight(m, n) == oracle[key] - 0.125
                else:
                    with pytest.raises(KeyError):
                        g.weight(m, n)
                    with pytest.raises(MissingEdge, match=re.escape(f"edge {key} not in graph")):
                        weaken_edge(g, (m, n), 0.125)


def test_laplacian_weaken_outside_the_row_range_changes_nothing():
    # a negative row would wrap to an edge from the end
    lap = Laplacian(WeightedGraph(10, {(2, 5): 1.0, (3, 4): 2.0}))
    before = lap.lap.copy()
    for row in (-1, -2, 2, 3, np.intp(-1), np.int64(2)):
        with pytest.raises(IndexError, match=f"edge row {row} out of range for 2 edges"):
            lap.weaken(row, 0.5)
    assert lap.g.edges == {(2, 5): 1.0, (3, 4): 2.0}
    assert np.array_equal(lap.lap, before)


@pytest.mark.parametrize("build", [
    lambda: WeightedGraph.from_arrays(3, [0.5], [1.9], [1.0]),
    lambda: WeightedGraph.from_arrays(3, np.array([0.0]), np.array([2]), [1.0]),
    lambda: WeightedGraph.from_arrays(3, np.array([True]), np.array([2]), [1.0]),
    lambda: WeightedGraph.from_arrays(3, [0, True], [1, 2], [1.0, 1.0]),
    lambda: WeightedGraph(3, {(0.0, 2.7): 1.0}),
    lambda: WeightedGraph(3, {(True, 2): 1.0}),
    lambda: WeightedGraph(3, {(0, 1): 1.0, (1, np.float64(2.0)): 1.0}),
], ids=["float-list", "float-array", "bool-array", "bool-in-int-list", "float-key",
        "bool-key", "numpy-float-key"])
def test_graph_builds_reject_float_and_bool_node_ids(build):
    # casting them to intp would truncate a float to a node, or True to node 1
    with pytest.raises(TypeError, match="node id must be an integer"):
        build()


def test_graph_builds_take_node_ids_of_any_integer_type():
    want = WeightedGraph.from_arrays(4, [0, 3], [1, 2], [1.0, 2.0])
    for dtype in (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64,
                  np.uint64, np.intp):
        g = WeightedGraph.from_arrays(4, np.array([0, 3], dtype), np.array([1, 2], dtype),
                                      [1.0, 2.0])
        assert g.edges == want.edges, dtype
    assert WeightedGraph(4, {(np.int64(0), 1): 1.0, (np.uint8(3), 2): 2.0}).edges == want.edges
    assert WeightedGraph.from_arrays(4, np.array([]), np.array([]), []).edge_count == 0


@pytest.mark.parametrize("ms, ns, ws, shapes", [
    ([0, 1], [2], [1.0, 1.0], "(2,), (1,) and (2,)"),
    ([0, 1], [1], [1.0, 1.0], "(2,), (1,) and (2,)"),
    (0, 1, 1.0, "(), () and ()"),
    ([0, 1], [1, 2], [1.0], "(2,), (2,) and (1,)"),
    ([[0, 1]], [[1, 2]], [[1.0, 1.0]], "(1, 2), (1, 2) and (1, 2)"),
    ([0, 0], [0], [-1.0, 1.0], "(2,), (1,) and (2,)"),
], ids=["short-ns-broadcast", "short-ns", "scalars", "short-ws", "2-D", "before-edge-checks"])
def test_from_arrays_requires_three_1d_inputs_of_one_length(ms, ns, ws, shapes):
    # broadcasting [0, 1] against [2] would give edges (0, 2) and (1, 2)
    with pytest.raises(ValueError, match=re.escape(f"of one length, got shapes {shapes}")):
        WeightedGraph.from_arrays(3, ms, ns, ws)


def test_laplacian_weaken_steps_are_bitwise_fresh_builds():
    # In-place weakenings and deletions, checked against weaken_edge and a
    # fresh build_laplacian after every step.
    kinds = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        g_ref = random_graph(rng, int(rng.integers(2, 41)), density=0.5)
        lap = Laplacian(g_ref)
        for _ in range(30):
            if g_ref.edge_count == 0:
                break
            m_arr, n_arr, w_arr = g_ref.edge_arrays()
            i = int(rng.integers(g_ref.edge_count))
            edge = (int(m_arr[i]), int(n_arr[i]))
            if rng.random() < 0.5:
                edge = edge[::-1]
            delete = bool(rng.random() < 0.25)
            eps = float(w_arr[i]) if delete else float(rng.choice([0.01, 0.3, 2.5]))
            before = lap
            lap = lap.weaken(i, eps)
            g_ref = weaken_edge(g_ref, edge, eps)
            kinds.add((delete, lap is before))
            assert (lap is before) == (lap.g.edge_count == before.g.edge_count)
            assert lap.lap.tobytes() == build_laplacian(g_ref).tobytes()
            for got, want in zip(lap.g.edge_arrays(), g_ref.edge_arrays()):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        if g_ref.edge_count:
            # a step too small to change the weight raises the same on both paths
            edge = tuple(int(a[0]) for a in g_ref.edge_arrays()[:2])
            tiny = float(g_ref.edge_arrays()[2][0]) * 1e-18
            errors = []
            for step in (lambda: weaken_edge(g_ref, edge, tiny), lambda: lap.weaken(0, tiny)):
                with pytest.raises(ValueError, match="unchanged") as info:
                    step()
                errors.append(str(info.value))
            assert errors[0] == errors[1]
            assert lap.lap.tobytes() == build_laplacian(g_ref).tobytes()
    assert kinds == {(False, True), (True, False), (False, False)}


def test_laplacian_weaken_in_place_refreshes_the_edges_view():
    lap = Laplacian(complete_graph(4))
    assert dict(lap.g.edges)[(0, 1)] == 1.0  # builds the view
    assert lap.weaken(0, 0.25) is lap
    assert dict(lap.g.edges)[(0, 1)] == lap.g.weight(0, 1) == 0.75
    assert lap.g.edges == WeightedGraph.from_arrays(4, *lap.g.edge_arrays()).edges


def test_gram_is_psd_and_cauchy_schwarz_holds():
    # 2 Y_mn <= Y_mm + Y_nn for every pair, any real X
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(2, 15)), int(rng.integers(1, 10))
        y = gram(rng.standard_normal((n, k)))
        assert np.array_equal(y, y.T)
        assert np.linalg.eigvalsh(y)[0] > -1e-10
        d = np.diag(y)
        assert np.all(2.0 * y <= d[:, None] + d[None, :] + 1e-12)


def test_observation_set_caches_gram():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 4))
    obs = ObservationSet(x)
    assert obs.n == 6 and obs.k == 4
    assert obs.gram is obs.gram
    assert np.allclose(obs.gram, x @ x.T)
    with pytest.raises(ValueError):
        ObservationSet(np.empty((4, 0)))
    for bad in (np.nan, np.inf, -np.inf):
        x_bad = x.copy()
        x_bad[2, 3] = bad
        with pytest.raises(NonFiniteInput, match="row 2, column 3"):
            ObservationSet(x_bad)
    with pytest.raises(ValueError):
        gram(np.zeros(3))


def test_graph_builds_reject_complex_weights():
    # the float cast would keep the real parts: edge (0, 1) of weight 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="ws must be real, got dtype complex128"):
            WeightedGraph.from_arrays(3, [0], [1], np.array([1 + 2j]))
        with pytest.raises(ValueError, match="ws must be real, got dtype complex128"):
            WeightedGraph(3, {(0, 1): 1.0, (1, 2): np.complex64(2.0)})


NOT_REAL = [  # (input, its dtype), each of which a float cast would accept
    (np.array([True]), "bool"),
    (np.array(["2.5"]), "<U3"),
    (np.array([2.5], dtype=object), "object"),
]


@pytest.mark.parametrize("ws, dtype", NOT_REAL)
def test_graph_builds_reject_weights_of_no_real_dtype(ws, dtype):
    # not a weight of 1.0 for True, nor 2.5 parsed from a string
    with pytest.raises(ValueError, match=f"ws must be real, got dtype {dtype}"):
        WeightedGraph.from_arrays(3, [0], [1], ws)


@pytest.mark.parametrize("x, dtype", NOT_REAL)
def test_observations_of_no_real_dtype_are_refused(x, dtype):
    x = np.repeat(x, 6).reshape(3, 2)
    for build in (gram, ObservationSet):
        with pytest.raises(ValueError, match=f"x must be real, got dtype {dtype}"):
            build(x)


def test_python_bools_and_strings_are_no_weights_or_observations():
    with pytest.raises(ValueError, match="ws must be real, got dtype bool"):
        WeightedGraph(3, {(0, 1): True})
    with pytest.raises(ValueError, match="ws must be real, got dtype <U3"):
        WeightedGraph.from_arrays(3, [0], [1], ["2.5"])
    with pytest.raises(ValueError, match="x must be real, got dtype <U1"):
        ObservationSet([["1", "2"], ["3", "4"]])


def test_gram_rejects_complex_observations():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="x must be real, got dtype complex128"):
            gram(np.array([[1.0, 2j], [3.0, 4.0]]))


def test_observation_set_rejects_complex_observations():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="x must be real, got dtype complex128"):
            ObservationSet(np.ones((3, 2)) + 0j)


def test_gram_overflow_is_non_finite_input():
    # finite observations whose Gram matrix overflows to inf and inf - inf
    x = np.array([[1e200, -1e200], [-1e200, 1e200], [1e200, 1e200]])
    with pytest.raises(NonFiniteInput, match="Gram matrix"):
        gram(x)
    obs = ObservationSet(x)  # every entry is finite
    with pytest.raises(NonFiniteInput, match=r"first at \(0, 0\)"):
        obs.gram
    with pytest.raises(NonFiniteInput, match=r"at 1 entries, first at \(1, 1\)"):
        gram(np.array([[1.0], [1e155]]))
    # the largest entries that stay finite are accepted
    assert np.isfinite(gram(np.array([[1e150, 1e150], [1e150, -1e150]]))).all()


def test_connectivity_matches_lambda2_sign():
    # is_connected iff the second Laplacian eigenvalue is positive
    flips = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, int(rng.integers(2, 12)), density=0.3)
        lam2 = np.linalg.eigvalsh(build_laplacian(g))[1]
        connected = is_connected(g)
        assert connected == (lam2 > 1e-8)
        flips += connected
    assert 0 < flips < 100  # both outcomes exercised


def test_connected_components_partition_nodes():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 15))
        g = random_graph(rng, n, density=0.2)
        labels = component_labels(n, *g.edge_arrays()[:2])
        comps = [np.flatnonzero(labels == root).tolist() for root in np.unique(labels)]
        flat = sorted(v for c in comps for v in c)
        assert flat == list(range(n))
        if len(comps) == 1:
            assert is_connected(g)
        else:
            assert not is_connected(g)


def shuffled_edges(rng, ms, ns):
    """The edges (ms[i], ns[i]) in random order, each in random orientation."""
    order = rng.permutation(ms.shape[0])
    ms, ns = ms[order], ns[order]
    flip = rng.random(ms.shape[0]) < 0.5
    return np.where(flip, ns, ms), np.where(flip, ms, ns)


def test_component_labels_match_union_find_on_shuffled_edges():
    connected = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        g = random_graph(rng, n, density=float(rng.uniform(0.0, 0.2)))
        ms, ns = shuffled_edges(rng, *g.edge_arrays()[:2])
        expected = reference_labels(n, zip(ms.tolist(), ns.tolist()))
        np.testing.assert_array_equal(component_labels(n, ms, ns), expected)
        assert is_connected(g) == (not expected.any())
        connected += is_connected(g)
    assert 0 < connected < 200  # both outcomes exercised


def test_component_labels_of_a_shuffled_path():
    # a path through the nodes in random order, its edges shuffled too:
    # the worst case for propagating one label along edges
    rng = np.random.default_rng(7)
    n = 10_000
    walk = rng.permutation(n)
    ms, ns = shuffled_edges(rng, walk[:-1], walk[1:])
    np.testing.assert_array_equal(component_labels(n, ms, ns), np.zeros(n))
    assert is_connected(WeightedGraph.from_arrays(n, ms, ns, np.ones(n - 1)))
    # cut one edge: the two halves are labelled by their smallest nodes
    ms, ns = ms[1:], ns[1:]
    expected = reference_labels(n, zip(ms.tolist(), ns.tolist()))
    assert len(np.unique(expected)) == 2
    np.testing.assert_array_equal(component_labels(n, ms, ns), expected)
    assert not is_connected(WeightedGraph.from_arrays(n, ms, ns, np.ones(n - 2)))


def test_component_labels_of_isolated_nodes():
    none = np.array([], dtype=np.intp)
    np.testing.assert_array_equal(component_labels(1, none, none), [0])
    assert is_connected(WeightedGraph(1))
    np.testing.assert_array_equal(component_labels(5, none, none), np.arange(5))
    assert not is_connected(WeightedGraph(5))
    # nodes 0, 3 and 6 have no edge; 1-4-2 and 5-7 are joined
    g = WeightedGraph(8, {(4, 1): 1.0, (2, 4): 1.0, (7, 5): 1.0})
    labels = component_labels(8, *g.edge_arrays()[:2])
    np.testing.assert_array_equal(labels, [0, 1, 1, 3, 1, 5, 6, 5])
    np.testing.assert_array_equal(labels, reference_labels(8, g.edges))
    assert [c for c in connected_components(8, g.edges) if len(c) > 1] == [[1, 2, 4], [5, 7]]
    assert not is_connected(g)


def test_complete_graph_edge_count():
    g = complete_graph(7)
    assert g.edge_count == 21
    assert all(w == 1.0 for w in g.edges.values())
    assert is_connected(g)


def _assert_matches_reference(g, ref):
    keys = sorted(ref)
    m_arr, n_arr, w_arr = g.edge_arrays()
    assert list(zip(m_arr.tolist(), n_arr.tolist())) == keys
    assert w_arr.tolist() == [ref[k] for k in keys]
    assert g.edges == ref and list(g.edges) == keys
    assert g.edge_count == len(ref)
    w_mat = np.zeros((g.n, g.n))
    for (a, b), w in ref.items():
        w_mat[a, b] = w_mat[b, a] = w
    assert np.array_equal(g.adjacency(), w_mat)
    for a in range(g.n):
        for b in range(g.n):
            if a == b:
                continue
            key = canonical_edge(a, b)
            assert g.has_edge(a, b) == (key in ref)
            if key in ref:
                assert g.weight(a, b) == ref[key]
            else:
                with pytest.raises(KeyError):
                    g.weight(a, b)


def test_random_weaken_delete_sequences_match_dict_reference():
    # Every version, old ones included, keeps agreeing with a plain dict.
    for seed in range(15):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        g = random_graph(rng, n, density=0.6)
        ref = dict(g.edges)
        versions = [(g, dict(ref))]
        for _ in range(40):
            if not ref:
                break
            key = sorted(ref)[int(rng.integers(len(ref)))]
            if rng.random() < 0.2:
                g = weaken_edge(g, key[::-1], ref[key])  # the whole weight
                del ref[key]
            else:
                eps = float(rng.choice([0.05, 0.3, 2.5]))
                g = weaken_edge(g, key[::-1] if rng.random() < 0.5 else key, eps)
                w = max(0.0, ref[key] - eps)
                if w > WEIGHT_ZERO:
                    ref[key] = w
                else:
                    del ref[key]
            versions.append((g, dict(ref)))
        for version, snapshot in versions:
            _assert_matches_reference(version, snapshot)


def _laplacian_add_at(g):
    """Dense Laplacian built with two np.add.at degree passes."""
    m, n, w = g.edge_arrays()
    lap = np.zeros((g.n, g.n))
    lap[m, n] = -w
    lap[n, m] = -w
    deg = np.zeros(g.n)
    np.add.at(deg, m, w)
    np.add.at(deg, n, w)
    lap[np.arange(g.n), np.arange(g.n)] = deg
    return lap


def test_laplacian_bitwise_equal_to_add_at_construction():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, int(rng.integers(2, 40)), density=0.7)
        for _ in range(5):
            if g.edge_count == 0:
                break
            m_arr, n_arr, _ = g.edge_arrays()
            i = int(rng.integers(g.edge_count))
            edge = (int(m_arr[i]), int(n_arr[i]))
            g = weaken_edge(g, edge, float(rng.uniform(0.01, 0.5)))
        got = build_laplacian(g)
        assert got.tobytes() == _laplacian_add_at(g).tobytes()


def _laplacian_indexed(g):
    """Dense Laplacian written by 2-D fancy indexing, degrees by np.bincount."""
    m, n, w = g.edge_arrays()
    lap = np.zeros((g.n, g.n))
    lap[m, n] = -w
    lap[n, m] = -w
    deg = np.bincount(np.concatenate([m, n]), weights=np.concatenate([w, w]),
                      minlength=g.n)
    lap[np.arange(g.n), np.arange(g.n)] = deg
    return lap


@pytest.mark.parametrize("n", [2, 3, 12, 30, 65, 80])
def test_laplacian_bitwise_equal_to_indexed_construction(n):
    rng = np.random.default_rng(n)
    for density in (0.0, 0.2, 1.0):
        g = random_graph(rng, n, density=density)
        for _ in range(5):
            if g.edge_count == 0:
                break
            m_arr, n_arr, _ = g.edge_arrays()
            i = int(rng.integers(g.edge_count))
            g = weaken_edge(g, (int(m_arr[i]), int(n_arr[i])), float(rng.uniform(0.01, 3.0)))
        assert build_laplacian(g).tobytes() == _laplacian_indexed(g).tobytes()


def test_laplacian_of_derived_graph_bitwise_equal_to_fresh_graph():
    # weight-only versions share their parent's edge arrays, deletions
    # compact them; both must build what a new graph builds
    kinds = set()
    for seed in range(12):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, int(rng.integers(3, 30)), density=0.6)
        for _ in range(10):
            if g.edge_count == 0:
                break
            m_arr, n_arr, w_arr = g.edge_arrays()
            i = int(rng.integers(g.edge_count))
            delete = bool(rng.random() < 0.4)
            eps = float(w_arr[i]) if delete else float(rng.uniform(0.01, 0.1))
            parent = g
            g = weaken_edge(g, (int(m_arr[i]), int(n_arr[i])), eps)
            kinds.add(g.edge_count < parent.edge_count)
            fresh = WeightedGraph(g.n, dict(g.edges))
            assert (build_laplacian(g).tobytes()
                    == build_laplacian(fresh).tobytes())
    assert kinds == {False, True}


def test_weaken_edge_leaves_parent_unchanged():
    g = WeightedGraph(4, {(0, 1): 1.0, (1, 2): 0.5, (2, 3): 2.0})
    before = [a.copy() for a in g.edge_arrays()]
    g2 = weaken_edge(g, (2, 1), 0.25)
    assert g2.weight(1, 2) == 0.25
    assert g.weight(1, 2) == 0.5 and g.edges[(1, 2)] == 0.5
    for a, b in zip(g.edge_arrays(), before):
        assert np.array_equal(a, b)


def test_edge_arrays_are_read_only_and_shared_by_weakening():
    g = random_graph(np.random.default_rng(5), 8, density=0.8)
    m_arr, n_arr, w_arr = g.edge_arrays()
    for arr in (m_arr, n_arr, w_arr):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1
    g2 = weaken_edge(g, (int(m_arr[0]), int(n_arr[0])), 0.01)
    m2, n2, w2 = g2.edge_arrays()
    assert m2 is m_arr and n2 is n_arr
    assert not w2.flags.writeable and not np.shares_memory(w2, w_arr)
    g3 = weaken_edge(g, (int(m_arr[0]), int(n_arr[0])), 10.0)
    assert all(not arr.flags.writeable for arr in g3.edge_arrays())


def test_edges_view_rejects_assignment():
    g = WeightedGraph(3, {(0, 1): 1.0})
    with pytest.raises(TypeError):
        g.edges[(0, 1)] = 2.0
    with pytest.raises(TypeError):
        g.edges[(1, 2)] = 2.0
    with pytest.raises(AttributeError):
        g.edges = {}
    assert g.edges == {(0, 1): 1.0}


def test_pickled_graph_keeps_edges_and_read_only_arrays():
    g = random_graph(np.random.default_rng(2), 9)
    assert g.edges  # build the cached view before pickling
    # a graph pickles as its arrays and unpickles through the array path
    build, args = g.__reduce__()
    assert build == WeightedGraph.from_arrays and args[0] == g.n
    assert all(isinstance(a, np.ndarray) for a in args[1:])
    for copy in (pickle.loads(pickle.dumps(g)), deepcopy(g)):
        assert copy.n == g.n and copy.edges == g.edges
        for a, b in zip(copy.edge_arrays(), g.edge_arrays()):
            assert np.array_equal(a, b) and not a.flags.writeable
