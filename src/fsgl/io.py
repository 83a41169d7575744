"""File formats: edge-list CSV, observation CSV, Matrix Market input.

Graphs travel as a CSV edge list with header ``m,n,w`` (0-indexed,
m < n). Observations travel as a headerless CSV with one row per node
and one column per sample. Both readers also accept Matrix Market
coordinate files (suffix .mtx). Floats are written with repr so a fixed
seed reproduces byte-identical files.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .errors import DuplicateEdge
from .graph import WeightedGraph


def save_graph(g: WeightedGraph, path) -> None:
    m_arr, n_arr, w_arr = g.edge_arrays()
    lines = ["m,n,w"]
    for m, n, w in zip(m_arr, n_arr, w_arr):
        lines.append(f"{int(m)},{int(n)},{repr(float(w))}")
    Path(path).write_text("\n".join(lines) + "\n")


def _dense_from_mm(path) -> np.ndarray:
    # Imported here: scipy.io's import costs every process that never reads .mtx.
    from scipy.io import mmread

    a = mmread(str(path))
    return a.toarray() if hasattr(a, "toarray") else np.asarray(a, dtype=np.float64)


def load_graph(path, n: int | None = None) -> WeightedGraph:
    """Read a graph from edge-list CSV or a Matrix Market adjacency."""
    path = Path(path)
    if path.suffix.lower() == ".mtx":
        w = _dense_from_mm(path)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"{path}: adjacency matrix must be square")
        size = n if n is not None else w.shape[0]
        iu, ju = np.triu_indices(w.shape[0], k=1)
        keep = w[iu, ju] != 0.0
        edges = {(int(a), int(b)): float(v)
                 for a, b, v in zip(iu[keep], ju[keep], w[iu, ju][keep])}
        return WeightedGraph(size, edges)
    lines = path.read_text().strip().splitlines()
    if not lines or lines[0].strip() != "m,n,w":
        raise ValueError(f"{path}: expected edge-list CSV with header m,n,w")
    edges: dict[tuple[int, int], float] = {}
    first_line: dict[tuple[int, int], int] = {}
    top = -1
    for line_no, ln in enumerate(lines[1:], start=2):
        try:
            a, b, v = ln.strip().split(",")
            m, k, w = int(a), int(b), float(v)
        except ValueError:
            raise ValueError(f"{path}:{line_no}: malformed edge row {ln!r}") from None
        key = (min(m, k), max(m, k))
        if key in first_line:
            raise DuplicateEdge(f"{path}:{line_no}: edge {key} already given "
                                f"on line {first_line[key]}")
        first_line[key] = line_no
        edges[key] = w
        top = max(top, m, k)
    size = n if n is not None else top + 1
    return WeightedGraph(size, edges)


def save_observations(x: np.ndarray, path) -> None:
    x = np.asarray(x, dtype=np.float64)
    lines = [",".join(repr(float(v)) for v in row) for row in x]
    Path(path).write_text("\n".join(lines) + "\n")


def load_observations(path) -> np.ndarray:
    """Read an N x K observation matrix from CSV or Matrix Market."""
    path = Path(path)
    if path.suffix.lower() == ".mtx":
        x = _dense_from_mm(path)
    else:
        try:
            with warnings.catch_warnings():
                # empty input warns before the size check below rejects it
                warnings.simplefilter("ignore", UserWarning)
                x = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed observation CSV: {exc}") from exc
    if x.ndim != 2 or x.size == 0:
        raise ValueError(f"{path}: observations must form a nonempty 2-D matrix")
    return x
