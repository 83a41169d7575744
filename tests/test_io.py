"""Edge-list and observation file round trips."""

import re
import warnings

import numpy as np
import pytest

from edgecheck import random_edge_list, reference_arrays
from fsgl.errors import DuplicateEdge, FsglError, NonFiniteInput
from fsgl.graph import ObservationSet, WeightedGraph
from fsgl.io import load_graph, load_observations, save_graph, save_observations
from randomgraph import random_graph


def test_graph_round_trip_byte_identical(tmp_path):
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 20))
        g = random_graph(rng, n, density=0.4, low=0.1)
        p1 = tmp_path / f"g{seed}a.csv"
        p2 = tmp_path / f"g{seed}b.csv"
        save_graph(g, p1)
        g2 = load_graph(p1, n=n)
        assert g2.edges == g.edges
        save_graph(g2, p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_graph_csv_header_and_shape(tmp_path):
    g = WeightedGraph(4, {(1, 3): 0.25, (0, 2): 1.5})
    path = tmp_path / "g.csv"
    save_graph(g, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "m,n,w"
    assert lines[1] == "0,2,1.5"
    assert lines[2] == "1,3,0.25"


def test_graph_csv_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0,1,1.0\n")
    with pytest.raises(ValueError):
        load_graph(path)
    # each bad row names the file and its line
    for rows, line, row in (("0,1\n", 2, "0,1"),
                            ("0,1,not_a_number\n", 2, "0,1,not_a_number"),
                            ("0,1,1.0\n1,2,x\n", 3, "1,2,x"),
                            ("0,1.5,1\n", 2, "0,1.5,1"),
                            ("0,1,1.0,2\n", 2, "0,1,1.0,2")):
        path.write_text("m,n,w\n" + rows)
        with pytest.raises(ValueError, match=rf"bad.csv:{line}: malformed edge row '{row}'"):
            load_graph(path)
    # so does each row that parses but is no edge
    for rows, line, error, message, n in (
            ("0,1,1.0\n2,2,1.0\n", 3, ValueError, r"self-loop \(2,2\)", None),
            ("-1,2,1.0\n", 2, ValueError, r"edge \(-1,2\) out of range for n=3", None),
            ("0,1,1.0\n0,5,1.0\n", 3, ValueError, r"edge \(0,5\) out of range for n=4", 4),
            ("0,1,1.0\n0,99999999999999999999,1.0\n", 3, ValueError,
             r"edge \(0,99999999999999999999\) out of range", None),
            ("0,1,nan\n", 2, NonFiniteInput, r"edge \(0,1\) has non-finite weight nan", None),
            ("0,1,1.0\n1,2,inf\n", 3, NonFiniteInput, r"edge \(1,2\) has non-finite weight inf",
             None),
            ("0,1,0.0\n", 2, ValueError, r"edge \(0,1\) has nonpositive weight 0.0", None),
            ("1,0,-2.5\n", 2, ValueError, r"edge \(0,1\) has nonpositive weight -2.5", None)):
        path.write_text("m,n,w\n" + rows)
        with pytest.raises(error, match=rf"^\S*bad.csv:{line}: {message}"):
            load_graph(path, n=n)



def test_graph_csv_counts_blank_lines_before_the_header(tmp_path):
    path = tmp_path / "lead.csv"
    for text, error, message in (
            ("\n\nm,n,w\n0,1,1.0\n0,1,nan\n", NonFiniteInput,
             r"lead.csv:5: edge \(0,1\) has non-finite weight nan"),
            ("\n \nm,n,w\n0,1,1.0\n1,2\n\n\n", ValueError,
             r"lead.csv:5: malformed edge row '1,2'"),
            ("\n\n\nm,n,w\n0,1,1.0\n1,2,0.5\n1,0,2.0\n", DuplicateEdge,
             r"lead.csv:7: edge \(0, 1\) already given on line 5")):
        path.write_text(text)
        with pytest.raises(error, match=rf"^\S*{message}$"):
            load_graph(path)
    path.write_text("\n\nm,n,w\n0,1,1.0\n\n")
    assert load_graph(path).edges == {(0, 1): 1.0}

def test_graph_csv_rejects_duplicate_rows(tmp_path):
    path = tmp_path / "dup.csv"
    for rows in ("0,1,1.0\n1,2,0.5\n1,0,2.0\n", "0,1,1.0\n1,2,0.5\n0,1,1.0\n"):
        path.write_text("m,n,w\n" + rows)
        with pytest.raises(DuplicateEdge,
                           match=r"dup.csv:4: edge \(0, 1\) already given on line 2"):
            load_graph(path)


def test_graph_csv_rows_get_the_per_edge_reference_outcome(tmp_path):
    # the edge lists test_graph checks from_arrays on, written as files:
    # the reference's error at its position, led by that row's line
    path = tmp_path / "g.csv"
    for seed in range(400):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        edges = random_edge_list(rng, n)
        path.write_text("m,n,w\n" + "".join(f"{m},{k},{w!r}\n" for m, k, w in edges))
        try:
            ms, ns, ws, _ = reference_arrays(n, edges)
        except (ValueError, FsglError) as exc:
            message = str(exc)
            if isinstance(exc, DuplicateEdge):
                m, k, _ = edges[exc.position]
                message = (f"edge {(min(m, k), max(m, k))} already given "
                           f"on line {exc.earlier + 2}")
            with pytest.raises((ValueError, FsglError)) as info:
                load_graph(path, n=n)
            assert type(info.value) is type(exc)
            assert str(info.value) == f"{path}:{exc.position + 2}: {message}"
            continue
        g = load_graph(path, n=n)
        for got, want in zip(g.edge_arrays(), (ms, ns, ws)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("first, error, message", [
    ("3,3,1.0", ValueError, r"self-loop \(3,3\) is not a valid edge"),
    ("0,1,nan", NonFiniteInput, r"edge \(0,1\) has non-finite weight nan"),
    ("0,1,-1.0", ValueError, r"edge \(0,1\) has nonpositive weight -1.0"),
    ("0,7,1.0", ValueError, r"edge \(0,7\) out of range for n=4")])
@pytest.mark.parametrize("later", ["1,2,1.0\n2,1,1.0\n", f"0,{10**20},1.0\n"],
                         ids=["duplicate", "huge-id"])
def test_graph_csv_names_the_first_bad_row(tmp_path, first, error, message, later):
    # line 2 is bad, so a later duplicate or oversized id is not what is named
    path = tmp_path / "g.csv"
    path.write_text(f"m,n,w\n{first}\n0,2,1.0\n{later}")
    with pytest.raises(error, match=rf"^\S*g.csv:2: {message}$"):
        load_graph(path, n=4)


def test_graph_node_count_inference(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("m,n,w\n0,1,1.0\n2,7,0.5\n")
    assert load_graph(path).n == 8
    assert load_graph(path, n=12).n == 12


@pytest.mark.parametrize("n, error, message", [
    (None, ValueError, r"node count must lie in \[1, \d+\], got 0"),
    (0, ValueError, r"node count must lie in \[1, \d+\], got 0"),
    (2.5, TypeError, "node count must be an integer, got 2.5")],
    ids=["inferred", "zero", "fractional"])
def test_graph_csv_names_the_file_for_a_bad_node_count(tmp_path, n, error, message):
    # a header-only file leaves no node to infer N from
    path = tmp_path / "g.csv"
    path.write_text("m,n,w\n")
    with pytest.raises(error, match=f"^{re.escape(str(path))}: {message}$"):
        load_graph(path, n=n)


def test_graph_matrix_market(tmp_path):
    w = np.zeros((4, 4))
    w[0, 2] = w[2, 0] = 1.25
    w[1, 3] = w[3, 1] = 0.5
    path = tmp_path / "adj.mtx"
    from scipy.io import mmwrite
    mmwrite(str(path.with_suffix("")), w)
    g = load_graph(path)
    assert g.edges == {(0, 2): 1.25, (1, 3): 0.5}
    bad = np.zeros((3, 4))
    mmwrite(str((tmp_path / "rect").with_suffix("")), bad)
    with pytest.raises(ValueError):
        load_graph(tmp_path / "rect.mtx")
    # an asymmetric adjacency, or one with a self-loop, names the file
    for name, entries in (("asym", {(0, 2): 1.0, (3, 1): 0.5}),
                          ("loop", {(0, 2): 1.0, (2, 0): 1.0, (1, 1): 0.5})):
        adj = np.zeros((4, 4))
        for key, v in entries.items():
            adj[key] = v
        mmwrite(str(tmp_path / name), adj)
        with pytest.raises(ValueError, match=rf"{name}.mtx: adjacency matrix must be "
                                             "symmetric with a zero diagonal"):
            load_graph(tmp_path / f"{name}.mtx")


def test_observations_round_trip_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((7, 5))
    p1 = tmp_path / "x1.csv"
    p2 = tmp_path / "x2.csv"
    save_observations(x, p1)
    obs = load_observations(p1)  # the set that checked the file
    assert type(obs) is ObservationSet
    assert np.array_equal(x, obs.x)  # repr round trip is exact
    save_observations(obs.x, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_observations_rejects_complex_input(tmp_path):
    path = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="x must be real, got dtype complex128"):
            save_observations(np.array([[1.0, 2.0 + 1j]]), path)
    assert not path.exists()


@pytest.mark.parametrize("x, error, match", [
    (np.ones((0, 3)), ValueError, r"x must be an N x K matrix .*, got shape \(0, 3\)"),
    (np.ones((3, 0)), ValueError, r"x must be an N x K matrix .*, got shape \(3, 0\)"),
    (np.ones(3), ValueError, r"x must be an N x K matrix .*, got shape \(3,\)"),
    (np.ones((2, 2, 2)), ValueError, r"x must be an N x K matrix .*, got shape \(2, 2, 2\)"),
    ([[np.nan, 1.0], [2.0, 3.0]], NonFiniteInput,
     r"x holds 1 non-finite observation\(s\), first at row 0, column 0: nan"),
], ids=["no-nodes", "no-samples", "1-D", "3-D", "NaN"])
def test_save_observations_writes_only_what_observation_set_accepts(tmp_path, x, error, match):
    # a file fsgl writes is one it reads: a refused matrix leaves no file
    path = tmp_path / "x.csv"
    with pytest.raises(error, match=match):
        save_observations(x, path)
    assert not path.exists()


def test_load_observations_names_the_file_of_a_non_finite_entry(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1.0,2.0\nnan,0.5\n")
    with pytest.raises(NonFiniteInput, match=rf"^{re.escape(str(path))}: x holds 1 "
                                             r"non-finite observation\(s\), first at row 1"):
        load_observations(path)


def test_observations_single_row(tmp_path):
    path = tmp_path / "x.csv"
    save_observations(np.array([[1.0, 2.0, 3.0]]), path)
    assert load_observations(path).x.shape == (1, 3)


def test_observations_matrix_market(tmp_path):
    from scipy.io import mmwrite
    x = np.arange(12, dtype=float).reshape(3, 4)
    mmwrite(str((tmp_path / "x").with_suffix("")), x)
    loaded = load_observations(tmp_path / "x.mtx")
    assert type(loaded) is ObservationSet and np.array_equal(loaded.x, x)


def test_observations_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError):
        load_observations(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_observations(empty)


COMPLEX_MTX = {
    "coordinate": "%%MatrixMarket matrix coordinate complex general\n"
                  "2 2 3\n1 1 1.0 5.0\n2 1 2.0 0.0\n2 2 0.5 0.0\n",
    "array": "%%MatrixMarket matrix array complex general\n"
             "2 2\n1.0 5.0\n2.0 0.0\n0.0 0.0\n0.5 0.0\n",
    "graph": "%%MatrixMarket matrix coordinate complex symmetric\n"
             "3 3 2\n2 1 1.0 5.0\n3 2 2.0 0.0\n",
}


@pytest.mark.parametrize("layout", list(COMPLEX_MTX))
def test_complex_matrix_market_is_refused(tmp_path, layout):
    # a float cast would keep only the real parts (1+5j read as 1.0)
    path = tmp_path / f"{layout}.mtx"
    path.write_text(COMPLEX_MTX[layout])
    load = load_graph if layout == "graph" else load_observations
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"{layout}.mtx: complex Matrix Market "
                                             "entries are not supported"):
            load(path)
