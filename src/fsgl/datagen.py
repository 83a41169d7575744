"""Synthetic ground-truth graphs and observation samplers.

A ground truth is a connected random graph whose shifted Laplacian acts
as a precision matrix. Observations are drawn with that covariance from
either a shared-covariance Gaussian mixture or a multivariate t, both of
which are non-Gaussian while keeping the second moment tied to the
graph. `check_instance` is the one place that knows what a draw needs:
which parameters each generator reads, and every bound on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDof, TooLarge
from .graph import (ObservationSet, WeightedGraph, build_laplacian, check_shift,
                    component_labels, integer, real)
from .spectral import sym_sqrt

GENERATORS = ("gmm", "mvt")
MAX_ARRAY_BYTES = 2**30  # the most float64 array memory datagen holds at once
# (N, N) and (N, K) arrays a draw holds at once at its peak, measured with
# tracemalloc: the truth's covariance, the square root's scaled copy, which
# dsyevd overwrites with its eigenvectors, and dsyevd's workspace (two;
# 4.31-4.33 for gmm and mvt alike at N = 300-1,000), then the samples and
# their transforms (at most 3; the samplers shift or scale in place, so
# 2.5 at N = 2, where the K-length vectors weigh most).
DRAW_ARRAYS = 5
SAMPLE_ARRAYS = 3


@dataclass(frozen=True)
class GroundTruth:
    """True graph with its covariance, the inverse of the precision
    L + rho I; that precision is `build_laplacian(w_star)` with rho added
    to its diagonal, and is not kept."""

    w_star: WeightedGraph
    cov: np.ndarray
    rho: float


def check_size(entries, what: str) -> None:
    """TooLarge, saying what `what` needs, when `entries` float64 values
    held at once pass MAX_ARRAY_BYTES, the one size ceiling in fsgl."""
    if 8 * entries > MAX_ARRAY_BYTES:
        raise TooLarge(f"{what}, above the {MAX_ARRAY_BYTES / 2**30:g} GiB ceiling")


def check_ground_truth(n: int, density: float, rho: float) -> tuple[int, float, float]:
    """TypeError unless n is an integer (`graph.integer`); ValueError unless
    gen_ground_truth can use (n, density, rho): n >= 2, and finite reals
    (`graph.real`) density in [0, 1] and rho > 0; TooLarge when a draw's
    DRAW_ARRAYS (N, N) arrays would pass MAX_ARRAY_BYTES. Whether rho is
    large enough for the drawn graph is checked after the draw, by
    `graph.check_shift`. Returns the three as the Python numbers checked."""
    n = integer(n, "node count")
    if n < 2:
        raise ValueError(f"node count must be >= 2, got {n}")
    check_size(DRAW_ARRAYS * n * n,
               f"node count {n} needs {DRAW_ARRAYS} {n} x {n} float64 arrays at once")
    if not 0.0 <= (d := real(density, "density")) <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    if (r := real(rho, "diagonal shift rho")) <= 0.0:
        raise ValueError(f"diagonal shift rho must be finite and positive, got {rho}")
    return n, d, r


def check_samples(n: int, k: int, origin: str = "") -> int:
    """TypeError unless k is an integer or `sample_count`'s inf, which is
    TooLarge below; ValueError unless k >= 1; TooLarge when a draw's
    SAMPLE_ARRAYS (N, K) arrays, with its DRAW_ARRAYS (N, N) ones, would
    pass MAX_ARRAY_BYTES. `origin` says where k came from. Returns k as
    the Python int checked; n, an integer too, sizes the draw as one."""
    n = integer(n, "node count")
    if k != math.inf:
        k = integer(k, "sample count")
    if k < 1:
        raise ValueError(f"sample count must be >= 1, got {k}")
    check_size(DRAW_ARRAYS * n * n + SAMPLE_ARRAYS * n * k,
               f"sample count {k}{origin} at node count {n} needs {SAMPLE_ARRAYS} "
               f"{n} x {k} float64 arrays on top of the ground truth's")
    return k


def check_gmm(n_components: int, mean_scale: float) -> tuple[int, float]:
    """TypeError unless n_components is an integer; ValueError unless
    sample_gmm can use (n_components, mean_scale): at least one component
    and a finite real scale (`graph.real`); TooLarge when its component
    means would pass MAX_ARRAY_BYTES. Returns the two as the Python
    numbers checked."""
    n_components = integer(n_components, "mixture component count")
    if n_components < 1:
        raise ValueError(f"need at least one mixture component, got {n_components}")
    check_size(n_components, f"mixture component count {n_components} needs a "
               f"1 x {n_components} float64 array")
    return n_components, real(mean_scale, "mean scale")


def check_dof(nu: float) -> float:
    """InvalidDof unless sample_mvt can use nu degrees of freedom: a finite
    real (`graph.real`) above 2. Returns nu as the Python float checked."""
    if (x := real(nu, "degrees of freedom", InvalidDof)) <= 2.0:
        raise InvalidDof(f"degrees of freedom must be finite and exceed 2, got {nu}")
    return x


def connected_pairs(n: int, density: float,
                    rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (ms, ns) of a connected random graph on n nodes, m < n,
    in (m, n) order.

    Each pair is kept with probability `density`, redrawn until connected;
    after 1000 draws, components are bridged with single edges instead.
    """
    iu, ju = np.triu_indices(n, k=1)
    for _ in range(1000):
        mask = rng.random(iu.shape[0]) < density
        ms, ns = iu[mask], ju[mask]
        labels = component_labels(n, ms, ns)
        if not labels.any():
            return ms, ns
    # components in order of their smallest node, each one's members ascending
    nodes = np.argsort(labels, kind="stable")
    _, starts, sizes = np.unique(labels[nodes], return_index=True, return_counts=True)
    # bridge j joins a random member of component j to one of component j + 1
    sides = np.repeat(np.arange(sizes.shape[0]), 2)[1:-1]
    ends = nodes[starts[sides] + rng.integers(sizes[sides])].reshape(-1, 2)
    ms = np.concatenate([ms, ends.min(axis=1)])
    ns = np.concatenate([ns, ends.max(axis=1)])
    order = np.argsort(ms * n + ns)
    return ms[order], ns[order]


def gen_ground_truth(n: int, density: float, rho: float = 0.5,
                     seed: int = 0) -> GroundTruth:
    """`connected_pairs` graph with uniform [0.5, 1.5] edge weights."""
    n, density, rho = check_ground_truth(n, density, rho)
    rng = np.random.default_rng(seed)
    ms, ns = connected_pairs(n, density, rng)
    g = WeightedGraph.from_arrays(n, ms, ns, rng.uniform(0.5, 1.5, size=ms.shape[0]))
    theta = build_laplacian(g)
    try:
        check_shift(theta, rho, "rho")
        theta.flat[::n + 1] += rho  # L + rho I, the bits of L + rho * np.eye(n)
        cov = np.linalg.inv(theta)
    except ValueError:  # check_shift's, or inv's LinAlgError
        raise ValueError(f"precision L + rho I is singular at rho={rho}; the "
                         f"diagonal shift is too small for this graph") from None
    cov = 0.5 * (cov + cov.T)
    return GroundTruth(g, cov, rho)


def sample_gmm(gt: GroundTruth, k: int, n_components: int = 3,
               mean_scale: float = 1.0, seed: int = 0) -> ObservationSet:
    """K samples from a Gaussian mixture sharing the truth covariance.

    Each component carries a scalar offset m_c ~ N(0, mean_scale^2)
    applied to every node, so a sample is x = m_c 1 + C^{1/2} z. The
    offset shifts along the all-ones vector, which every Laplacian
    quadratic form annihilates, so the mixture is non-Gaussian per node
    while the pairwise structure stays governed by the graph. Returns
    the N x K observations.
    """
    n = gt.cov.shape[0]
    k = check_samples(n, k)
    n_components, mean_scale = check_gmm(n_components, mean_scale)
    rng = np.random.default_rng(seed)
    root = sym_sqrt(gt.cov)
    means = mean_scale * rng.standard_normal(n_components)
    labels = rng.integers(0, n_components, size=k)
    x = root @ rng.standard_normal((n, k))
    x += means[labels]  # in place: one (N, K) array fewer at the peak
    return ObservationSet(x)


def sample_mvt(gt: GroundTruth, k: int, nu: float = 3.0,
               seed: int = 0) -> ObservationSet:
    """K multivariate-t samples whose covariance equals the truth's.

    x = z / sqrt(u / nu) with z Gaussian and u chi-squared; scaling the
    Gaussian covariance by (nu - 2) / nu keeps E[x x^T] = C, which needs
    nu > 2.
    """
    n = gt.cov.shape[0]
    k = check_samples(n, k)
    nu = check_dof(nu)
    rng = np.random.default_rng(seed)
    root = sym_sqrt(gt.cov, (nu - 2.0) / nu)
    z = root @ rng.standard_normal((n, k))
    z /= np.sqrt(rng.chisquare(nu, size=k) / nu)
    return ObservationSet(z)


def sample_count(n: int, ratio: float) -> int | float:
    """K = max(1, round(ratio * n)) of a K/N ratio that is a finite real
    (`graph.real`) above 0, else ValueError; or inf, which the size checks
    refuse, when ratio * n overflows."""
    if (r := real(ratio, "K/N ratio")) <= 0.0:
        raise ValueError(f"K/N ratio must be finite and positive, got {ratio}")
    try:
        return max(1, round(r * n))
    except OverflowError:
        return math.inf


def check_instance(n: int, k: int, generators, entropy, density: float,
                   rho: float, nu: float, n_components: int, mean_scale: float,
                   origin: str = "") -> None:
    """Every check `draw_instance` makes, for each of `generators`, before
    anything is allocated: the seed entropy, the ground truth's (n, density,
    rho), the sample count k, then each generator's name and its own
    parameters (n_components and mean_scale for gmm, nu for mvt). Raises
    TypeError (a count or seed entry that is not an integer), ValueError,
    InvalidDof or TooLarge; `origin` says where k came from."""
    for s in np.array(entropy, dtype=object).ravel():
        if integer(s, "seed") < 0:
            raise ValueError(f"seed must be a non-negative integer, got {s}")
    n, density, rho = check_ground_truth(n, density, rho)
    check_samples(n, k, origin)
    for name in generators:
        if name == "gmm":
            check_gmm(n_components, mean_scale)
        elif name == "mvt":
            check_dof(nu)
        else:
            raise ValueError(f"unknown generator {name!r}")


def draw_instance(n: int, k: int, generator: str, entropy, density: float,
                  rho: float, nu: float, n_components: int,
                  mean_scale: float) -> tuple[GroundTruth, ObservationSet]:
    """A ground truth and k observations from `generator` ("gmm" or "mvt"),
    drawn from two seeds spawned by SeedSequence(entropy). `check_instance`
    refuses bad input before the seeds are spawned."""
    check_instance(n, k, (generator,), entropy, density, rho, nu, n_components,
                   mean_scale)
    s_gt, s_x = (int(ss.generate_state(1)[0])
                 for ss in np.random.SeedSequence(entropy).spawn(2))
    gt = gen_ground_truth(n, density, rho, seed=s_gt)
    if generator == "gmm":
        return gt, sample_gmm(gt, k, n_components, mean_scale, seed=s_x)
    return gt, sample_mvt(gt, k, nu, seed=s_x)
