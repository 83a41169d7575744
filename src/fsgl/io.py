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

from .errors import DuplicateEdge, FsglError
from .graph import MAX_NODES, ObservationSet, WeightedGraph


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
    if a.dtype.kind == "c":  # the float cast below would keep only the real parts
        raise ValueError(f"{path}: complex Matrix Market entries are not supported")
    return a.toarray() if hasattr(a, "toarray") else np.asarray(a, dtype=np.float64)


def _from_arrays(path, size: int, ms, ns, ws, first_line=None) -> WeightedGraph:
    """WeightedGraph.from_arrays, naming `path` in every error it raises, or
    `path:line` when edge i is on line first_line + i (a repeated pair also
    names its first line)."""
    try:
        return WeightedGraph.from_arrays(size, ms, ns, ws)
    except (TypeError, ValueError, FsglError) as exc:
        i = getattr(exc, "position", None)
        if isinstance(exc, DuplicateEdge):  # only an edge list can repeat a pair
            pair = min(ms[i], ns[i]), max(ms[i], ns[i])
            exc = DuplicateEdge(f"edge {pair} already given on line {first_line + exc.earlier}")
        where = path if i is None or first_line is None else f"{path}:{first_line + i}"
        raise type(exc)(f"{where}: {exc}") from None


def load_graph(path, n: int | None = None) -> WeightedGraph:
    """Read a graph from edge-list CSV or a symmetric, zero-diagonal Matrix
    Market adjacency. CSV rows are only parsed here and `from_arrays` checks
    the edges, so the first bad row is named; an inferred N is capped at MAX_NODES."""
    path = Path(path)
    if path.suffix.lower() == ".mtx":
        w = _dense_from_mm(path)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"{path}: adjacency matrix must be square")
        if not np.array_equal(w, w.T, equal_nan=True) or w.diagonal().any():
            raise ValueError(f"{path}: adjacency matrix must be symmetric with a "
                             f"zero diagonal")
        size = n if n is not None else w.shape[0]
        iu, ju = np.nonzero(np.triu(w, k=1))
        return _from_arrays(path, size, iu, ju, w[iu, ju])
    # Blank lines above the header are skipped, but line numbers count them.
    lines = path.read_text().rstrip().splitlines()
    top = next((i for i, ln in enumerate(lines) if ln.strip()), 0)
    lines, first = lines[top:], top + 2  # first: the first edge row's line number
    if not lines or lines[0].strip() != "m,n,w":
        raise ValueError(f"{path}: expected edge-list CSV with header m,n,w")
    rows = []
    for line_no, ln in enumerate(lines[1:], start=first):
        try:
            a, b, v = ln.strip().split(",")
            rows.append((int(a), int(b), float(v)))
        except ValueError:
            raise ValueError(f"{path}:{line_no}: malformed edge row {ln!r}") from None
    ms, ns, ws = zip(*rows) if rows else ((), (), ())
    size = n if n is not None else min(max(ms + ns, default=-1) + 1, MAX_NODES)
    return _from_arrays(path, size, ms, ns, ws, first_line=first)


def save_observations(x: np.ndarray, path) -> None:
    """Write an N x K observation matrix as CSV. `x` is checked as
    `ObservationSet` checks it before the file is opened."""
    x = ObservationSet(x).x
    lines = [",".join(repr(float(v)) for v in row) for row in x]
    Path(path).write_text("\n".join(lines) + "\n")


def load_observations(path) -> np.ndarray:
    """Read an N x K observation matrix from CSV or Matrix Market, checked
    as `ObservationSet` checks it; every error names `path`."""
    path = Path(path)
    if path.suffix.lower() == ".mtx":
        x = _dense_from_mm(path)
    else:
        try:
            with warnings.catch_warnings():
                # empty input warns before ObservationSet rejects its shape
                warnings.simplefilter("ignore", UserWarning)
                x = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed observation CSV: {exc}") from exc
    try:
        return ObservationSet(x).x
    except (ValueError, FsglError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
