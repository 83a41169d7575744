"""Weighted graph representation, Laplacian construction, and edge mutation.

Edges are stored once, keyed by the unordered pair (m, n) with m < n, so
symmetry holds by construction. A graph holds three parallel arrays in
(m, n) lexicographic order: endpoints m and n and weights w, so finding
an edge is a binary search for m's run of rows, then one for n in it. Weights
are strictly positive; a weight driven to (numerical) zero removes the
edge, keeping the edge set equal to the support of the adjacency matrix.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from types import MappingProxyType

import numpy as np

from .errors import DuplicateEdge, MissingEdge, NonFiniteInput

# Edge entries at or below this weight are dropped from the edge map.
WEIGHT_ZERO = 1e-12


def step_deletes(w, eps):
    """Whether a step of `eps` removes an edge of weight `w` (a float or an
    array of them): w - eps is not above WEIGHT_ZERO. The one deletion rule,
    which `WeightedGraph._step` applies and the score's l0 gain reads."""
    return w - eps <= WEIGHT_ZERO


def integer(value, what: str, error=TypeError) -> int:
    """`value` as an int: a Python or NumPy integer, never a bool; else
    `error` naming `what`. fsgl's one type test for a count."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise error(f"{what} must be an integer, got {value!r}")


def _is_real(value) -> bool:
    """Whether `value` is a real number: a `numbers.Real` but not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def real(value, what: str, error=ValueError) -> float:
    """`value` as a float: a finite real number, never a bool; else `error`
    naming `what`. An int too large for a float counts as not finite.
    fsgl's one type test for a real parameter."""
    with contextlib.suppress(OverflowError):  # float() of an int past float64
        if _is_real(value) and math.isfinite(x := float(value)):
            return x
    raise error(f"{what} must be finite and not a bool, got {value!r}")


def _first_of_each_type(values: list) -> list:
    """The first element of each type in `values`, in order of first use,
    so a check per type, not per element, finds the first stray one."""
    types = list(map(type, values))
    return [values[i] for i in sorted(map(types.index, set(types)))]


def real_array(a, what: str) -> np.ndarray:
    """`a` as a float64 array; else ValueError naming `what`. A dtype other
    than integer or float (complex, bool, str, object) is refused with the
    dtype. Input that is not an ndarray is judged by its elements too: a
    bool among numbers is refused, and ints past int64, which NumPy keeps
    as objects, are cast to float when every element is real (one past
    float64 is refused)."""
    arr = np.asarray(a)
    if isinstance(a, np.ndarray) or arr.dtype.kind not in "iufO":
        if arr.dtype.kind not in "iuf":
            raise ValueError(f"{what} must be real, got dtype {arr.dtype}")
        return np.asarray(arr, dtype=np.float64)
    values = np.array(a, dtype=object).ravel().tolist()
    for value in _first_of_each_type(values):
        if not _is_real(value):
            raise ValueError(f"{what} must be real, got {value!r}")
    try:
        return np.array(values, dtype=np.float64).reshape(arr.shape)
    except OverflowError:
        raise ValueError(f"{what} holds an integer past the float64 range") from None


def _node_ids(ids) -> np.ndarray:
    """`ids` as an intp array, or as an object array of Python ints when one
    lies past the intp range, so that `_fill` checks each id as given. Unless
    they come as an integer array, each type among them is checked once by
    `integer`, in order of first use: the first float or bool id raises TypeError."""
    a = ids if isinstance(ids, np.ndarray) else np.array(ids, dtype=object)
    if a.dtype.kind == "i" or a.dtype.kind == "u" and a.max(initial=0) <= np.iinfo(np.intp).max:
        return np.asarray(a, dtype=np.intp)
    values = a.ravel().tolist()
    for value in _first_of_each_type(values):
        integer(value, "node id")
    try:
        return np.array(values, dtype=np.intp).reshape(a.shape)
    except OverflowError:
        return np.array(list(map(int, values)), dtype=object).reshape(a.shape)


def canonical_edge(m: int, n: int) -> tuple[int, int]:
    m, n = integer(m, "node id"), integer(n, "node id")
    if m == n:
        raise ValueError(f"self-loop ({m},{n}) is not a valid edge")
    return (m, n) if m < n else (n, m)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# The largest node count whose sort keys m * N + n all fit an intp.
MAX_NODES = math.isqrt(np.iinfo(np.intp).max)

# What each edge check raises, in the order the checks run.
_EDGE_ERRORS = ((ValueError, "self-loop ({m},{n}) is not a valid edge"),
                (ValueError, "edge ({m},{n}) out of range for n={size}"),
                (NonFiniteInput, "edge ({m},{n}) has non-finite weight {w}"),
                (ValueError, "edge ({m},{n}) has nonpositive weight {w}"),
                (DuplicateEdge, "edge ({m},{n}) given twice"))


class WeightedGraph:
    """Undirected graph with finite positive edge weights and no self-loops.

    The edge state is three read-only arrays sorted by (m, n): endpoints
    and weights. A new version made by `weaken_edge` copies only the
    weight vector when an edge keeps a positive weight, and shares the
    endpoints with its parent; removing an edge compacts them with one
    mask. Nothing is ever written in place, so a graph instance can be
    shared freely; the one exception is `Laplacian.g`, whose weights its
    owner writes, dropping the `edges` view, until it hands the graph out,
    as `run_solver` does on return. `edges` is a read-only {(m, n): w}
    view, built on first use. Edges from outside enter through
    `from_arrays`; `WeightedGraph(n, {(m, n): w})` passes a mapping to it.
    """

    __slots__ = ("n", "_ms", "_ns", "_ws", "_edges")

    def __init__(self, n: int, edges=None):
        edges = edges or {}
        # Objects, so a node beyond the intp range reaches _fill's range error.
        pairs = np.array(list(edges), dtype=object).reshape(-1, 2)
        self._fill(n, pairs[:, 0], pairs[:, 1], list(edges.values()))

    @classmethod
    def from_arrays(cls, n: int, ms, ns, ws) -> "WeightedGraph":
        """Graph on n nodes with edges (ms[i], ns[i]) of weight ws[i], in any
        order and orientation. ms, ns and ws must be 1-D and of one length,
        else ValueError before any edge is checked. The first edge in input
        order that is a self-loop, names a node outside [0, n) (past intp
        too), has a non-finite (NonFiniteInput) or nonpositive weight, or
        repeats edge `earlier`'s pair (DuplicateEdge) raises; the error's
        `position` is its index."""
        return cls.__new__(cls)._fill(n, ms, ns, ws)

    def _fill(self, n: int, ms, ns, ws) -> "WeightedGraph":
        self.n = n = integer(n, "node count")
        if not 1 <= n <= MAX_NODES:
            raise ValueError(f"node count must lie in [1, {MAX_NODES}], got {n}")
        m, k = _node_ids(ms), _node_ids(ns)
        w = real_array(ws, "ws")
        if not (m.ndim == 1 and m.shape == k.shape == w.shape):
            raise ValueError(f"ms, ns and ws must be 1-D and of one length, got shapes "
                             f"{m.shape}, {k.shape} and {w.shape}")
        lo, hi = np.minimum(m, k), np.maximum(m, k)
        keys = lo * n + hi
        order = np.argsort(keys, kind="stable")  # a pair's first edge sorts first
        dup = np.zeros(keys.shape, dtype=bool)
        dup[order[1:]] = keys[order[1:]] == keys[order[:-1]]
        fails = np.stack((lo == hi, (lo < 0) | (hi >= n), ~np.isfinite(w), w <= 0.0, dup))
        if fails.any():
            i = int(fails.any(axis=0).argmax())
            kind, message = _EDGE_ERRORS[int(fails[:, i].argmax())]
            exc = kind(message.format(m=int(lo[i]), n=int(hi[i]), w=float(w[i]), size=n))
            exc.position = i
            if kind is DuplicateEdge:  # every row before i is sound, so one shares its pair
                exc.earlier = int(order[np.flatnonzero(order == i)[0] - 1])
            raise exc
        self._ws, self._edges = _frozen(w[order]), None
        self._ms, self._ns = _frozen(lo[order]), _frozen(hi[order])
        return self

    def _derive(self, ws, keep=None) -> "WeightedGraph":
        # A weight-only version shares the edge set's arrays; `keep` deletes edges.
        g = WeightedGraph.__new__(WeightedGraph)
        g.n, g._ws, g._edges = self.n, _frozen(ws), None
        arrays = (self._ms, self._ns)
        g._ms, g._ns = arrays if keep is None else (_frozen(a[keep]) for a in arrays)
        return g

    def _index(self, m: int, n: int) -> int:
        """Position of canonical edge (m, n) in the arrays, or -1: n's row in
        node m's run [lo, hi). Ids outside 0 <= m < n < N may not fit an intp."""
        if not 0 <= m < n < self.n:
            return -1
        lo, hi = np.searchsorted(self._ms, (m, m + 1)).tolist()
        i = lo + int(np.searchsorted(self._ns[lo:hi], n))
        return i if i < hi and self._ns[i] == n else -1

    def _step(self, i: int, eps: float) -> float:
        """Edge row i's weight after one step: w - eps, or 0.0 where
        `step_deletes`. The one weakening rule: eps must be positive, and a
        step too small to change w in floating point raises ValueError."""
        if not eps > 0:  # NaN included
            raise ValueError("eps must be positive")
        eps, w = float(eps), float(self._ws[i])  # a float32 eps steps in float64 too
        if w - eps == w:
            edge = (int(self._ms[i]), int(self._ns[i]))
            raise ValueError(f"step {eps!r} leaves the weight {w!r} of edge {edge} unchanged")
        return 0.0 if step_deletes(w, eps) else w - eps

    @property
    def edges(self) -> MappingProxyType:
        """Read-only {(m, n): w} view of the edge set, in (m, n) order."""
        if self._edges is None:
            pairs = zip(self._ms.tolist(), self._ns.tolist())
            self._edges = dict(zip(pairs, self._ws.tolist()))
        return MappingProxyType(self._edges)

    @property
    def edge_count(self) -> int:
        return self._ws.shape[0]

    def weight(self, m: int, n: int) -> float:
        key = canonical_edge(m, n)
        i = self._index(*key)
        if i < 0:
            raise KeyError(key)
        return float(self._ws[i])

    def has_edge(self, m: int, n: int) -> bool:
        return self._index(*canonical_edge(m, n)) >= 0

    def edge_arrays(self):
        """Edge endpoints and weights as read-only arrays, sorted by (m, n)."""
        return self._ms, self._ns, self._ws

    def adjacency(self) -> np.ndarray:
        """Dense symmetric adjacency matrix W."""
        w_mat = np.zeros((self.n, self.n))
        m, n, w = self.edge_arrays()
        w_mat[m, n] = w
        w_mat[n, m] = w
        return w_mat

    def _with_weight(self, i: int, new_weight: float) -> "WeightedGraph":
        """New version with edge i reweighted, or removed at weight 0.0."""
        if new_weight:
            ws = self._ws.copy()
            ws[i] = new_weight
            return self._derive(ws)
        keep = np.ones(self._ws.shape[0], dtype=bool)
        keep[i] = False
        return self._derive(self._ws[keep], keep)

    def __reduce__(self):
        return WeightedGraph.from_arrays, (self.n, self._ms, self._ns, self._ws)

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, edges={self.edge_count})"


def edge_laplacian(n: int, ms: np.ndarray, ns: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Dense Laplacian diag(W 1) - W on nodes [0, n) of the distinct edges
    (ms[i], ns[i]) of weight w[i], unchecked: the one layout of every
    Laplacian, `Laplacian`'s and a cut plan's unit-weight sub-graphs'."""
    lap = np.zeros((n, n))
    lap[ms, ns] = lap[ns, ms] = -w
    lap.reshape(-1)[::n + 1] = np.bincount(np.concatenate([ms, ns]),
                                           weights=np.concatenate([w, w]), minlength=n)
    return lap


class Laplacian:
    """Dense Laplacian `lap` = diag(W 1) - W of graph `g`, weakened in place.

    `g` shares its source's endpoint arrays and views the first half of a
    private weight buffer [w; w]. `weaken` writes an edge's new weight
    there and into `lap` as `edge_laplacian` lays it out: -w at (m, n) and
    (n, m), then the whole diagonal from one bincount over [w; w], adding
    each node's m-side weights in order, then its n-side ones, from 0.0.
    So `lap` stays bitwise the Laplacian of a new graph with `g`'s weights.
    """

    __slots__ = ("g", "lap", "_w2", "_diag", "_ends")

    def __init__(self, g: WeightedGraph):
        size, w = g.n, g._ws
        self._w2 = np.concatenate([w, w])
        self.g = g._derive(self._w2[:w.shape[0]])
        self._ends = np.concatenate([g._ms, g._ns])
        self.lap = edge_laplacian(size, g._ms, g._ns, w)
        self._diag = self.lap.reshape(-1)[::size + 1]
        bad = np.flatnonzero(~np.isfinite(self._diag))  # weakening keeps it finite
        if bad.shape[0]:
            raise NonFiniteInput(f"node {bad[0]}'s weighted degree overflows")

    def weaken(self, i: int, eps: float) -> "Laplacian":
        """`weaken_edge` on row i of `g`'s edge arrays, the row a selector
        returns: self, weakened in place, or the next edge set's. A row
        that is not an integer (`integer`) raises TypeError, one outside
        [0, edge_count) IndexError, and neither changes anything."""
        g, i = self.g, integer(i, "edge row")
        if not 0 <= i < g.edge_count:  # numpy would wrap a negative row
            raise IndexError(f"edge row {i} out of range for {g.edge_count} edges")
        w = g._step(i, eps)
        if not w:
            return Laplacian(g._with_weight(i, w))
        self._w2[i] = self._w2[g.edge_count + i] = w
        g._edges = None
        m, n = g._ms[i], g._ns[i]
        self.lap[m, n] = self.lap[n, m] = -w
        self._diag[:] = np.bincount(self._ends, weights=self._w2, minlength=g.n)
        return self


def build_laplacian(g: WeightedGraph) -> np.ndarray:
    """Dense (N, N) Laplacian L = diag(W 1) - W of `g`."""
    return Laplacian(g).lap


def check_shift(lap: np.ndarray, c: float, name: str) -> None:
    """ValueError, naming the shift `name`, unless L + c I is positive
    definite in floating point for the dense Laplacian `lap`: the one rule
    for alpha and rho. L's lowest eigenvalue is 0 only to within rounding,
    so c must exceed n eps ||L||_2, NumPy's `matrix_rank` tolerance, with
    ||L||_2 bounded by Gershgorin's 2 max_i L_ii: no factorisation needed."""
    tol = lap.shape[0] * np.finfo(np.float64).eps * 2.0 * lap.diagonal().max()
    if not c > tol:
        raise ValueError(f"L + {name} I is singular at {name}={c!r}; a shift this "
                         f"small is lost in rounding against L's zero eigenvalue")


def weaken_edge(g: WeightedGraph, edge: tuple[int, int], eps: float) -> WeightedGraph:
    """Subtract `eps` from one edge weight, clamping at zero.

    Equivalent to subtracting min(eps, w) * E^{m,n} from the Laplacian,
    where E^{m,n} = (e_m - e_n)(e_m - e_n)^T. The edge entry is deleted
    where `step_deletes`: once the clamped weight falls to numerical zero.
    A step too small to change the weight in floating point raises ValueError.
    """
    key = canonical_edge(*edge)
    i = g._index(*key)
    if i < 0:
        raise MissingEdge(f"edge {key} not in graph")
    return g._with_weight(i, g._step(i, eps))


class ObservationSet:
    """Observation matrix X (N x K, one sample per column) with cached Gram.

    The one check on an observation matrix: real (`real_array`), 2-D with
    N >= 1 and K >= 1 (else ValueError) and finite (else NonFiniteInput
    naming the first bad entry)."""

    __slots__ = ("x", "_gram")

    def __init__(self, x: np.ndarray):
        self.x = real_array(x, "x")
        if self.x.ndim != 2 or min(self.x.shape) < 1:
            raise ValueError(f"x must be an N x K matrix with N >= 1 and K >= 1, "
                             f"got shape {self.x.shape}")
        bad = np.argwhere(~np.isfinite(self.x))
        if bad.shape[0]:
            row, col = bad[0]
            raise NonFiniteInput(
                f"x holds {bad.shape[0]} non-finite observation(s), first at row {row}, "
                f"column {col}: {float(self.x[row, col])!r}")
        self._gram = None

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def k(self) -> int:
        return self.x.shape[1]

    @property
    def gram(self) -> np.ndarray:
        """Y = X X^T, computed once; NonFiniteInput if an entry overflows."""
        if self._gram is None:
            with np.errstate(over="ignore", invalid="ignore"):
                y = self.x @ self.x.T
                y = 0.5 * (y + y.T)
            bad = np.argwhere(~np.isfinite(y))
            if bad.shape[0]:
                row, col = bad[0]
                raise NonFiniteInput(
                    f"Gram matrix X X^T is non-finite at {bad.shape[0]} entries, first "
                    f"at ({row}, {col}): the observations are too large")
            self._gram = y
        return self._gram


def is_connected(g: WeightedGraph) -> bool:
    """True iff every node lies in one connected component."""
    m, n, _ = g.edge_arrays()
    return not component_labels(g.n, m, n).any()


def component_labels(n: int, ms, ns) -> np.ndarray:
    """Each node of the graph on nodes [0, n) with edges (ms[i], ns[i]),
    labelled with the smallest node of its component: each round jumps
    every label to its label's label, then hooks the larger of each edge's
    two labels onto the smaller, until a round changes nothing."""
    labels, last = np.arange(n), None
    while not np.array_equal(labels, last):
        last, labels = labels, labels[labels]
        lm, ln = labels[ms], labels[ns]
        np.minimum.at(labels, lm, ln)
        np.minimum.at(labels, ln, lm)
    return labels


def complete_graph(n: int) -> WeightedGraph:
    """Fully connected graph with unit weights."""
    ms, ns = np.triu_indices(n, k=1)
    return WeightedGraph.from_arrays(n, ms, ns, np.ones(ms.shape[0]))
