"""Synthetic ground-truth graphs and observation samplers.

A ground truth is a connected random graph whose shifted Laplacian acts
as a precision matrix. Observations are drawn with that covariance from
either a shared-covariance Gaussian mixture or a multivariate t, both of
which are non-Gaussian while keeping the second moment tied to the
graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDof
from .graph import (
    ObservationSet,
    WeightedGraph,
    build_laplacian,
    connected_components,
)

GENERATORS = ("gmm", "mvt")


@dataclass(frozen=True)
class GroundTruth:
    """True graph with its precision (L + rho I) and covariance."""

    w_star: WeightedGraph
    theta: np.ndarray
    cov: np.ndarray
    rho: float


def check_generator(name: str) -> None:
    """ValueError unless draw_instance knows the generator `name`."""
    if name not in GENERATORS:
        raise ValueError(f"unknown generator {name!r}")


def check_ground_truth(n: int, density: float, rho: float) -> None:
    """ValueError unless gen_ground_truth can use (n, density, rho)."""
    if n < 2:
        raise ValueError(f"node count must be >= 2, got {n}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    if not 0.0 < rho < math.inf:
        raise ValueError(f"diagonal shift rho must be finite and positive, got {rho}")


def check_gmm(n_components: int, mean_scale: float) -> None:
    """ValueError unless sample_gmm can use (n_components, mean_scale)."""
    if n_components < 1:
        raise ValueError(f"need at least one mixture component, got {n_components}")
    if not -math.inf < mean_scale < math.inf:
        raise ValueError(f"mean scale must be finite, got {mean_scale}")


def check_dof(nu: float) -> None:
    """InvalidDof unless sample_mvt can use nu degrees of freedom."""
    if not 2.0 < nu < math.inf:
        raise InvalidDof(f"degrees of freedom must be finite and exceed 2, got {nu}")


def connected_pairs(n: int, density: float,
                    rng: np.random.Generator) -> list[tuple[int, int]]:
    """Sorted node pairs of a connected random graph on n nodes.

    Each pair is kept with probability `density`, redrawn until connected;
    after 1000 draws, components are bridged with single edges instead.
    """
    iu, ju = np.triu_indices(n, k=1)
    for _ in range(1000):
        mask = rng.random(iu.shape[0]) < density
        pairs = [(int(a), int(b)) for a, b in zip(iu[mask], ju[mask])]
        comps = connected_components(n, pairs)
        if len(comps) == 1:
            return pairs
    for ca, cb in zip(comps, comps[1:]):
        a = ca[int(rng.integers(len(ca)))]
        b = cb[int(rng.integers(len(cb)))]
        pairs.append((a, b) if a < b else (b, a))
    return sorted(pairs)


def gen_ground_truth(n: int, density: float, rho: float = 0.5,
                     seed: int = 0) -> GroundTruth:
    """`connected_pairs` graph with uniform [0.5, 1.5] edge weights."""
    check_ground_truth(n, density, rho)
    rng = np.random.default_rng(seed)
    pairs = connected_pairs(n, density, rng)
    weights = rng.uniform(0.5, 1.5, size=len(pairs))
    g = WeightedGraph(n, dict(zip(pairs, weights)))
    theta = build_laplacian(g) + rho * np.eye(n)
    cov = np.linalg.inv(theta)
    cov = 0.5 * (cov + cov.T)
    return GroundTruth(g, theta, cov, rho)


def _sym_sqrt(c: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition."""
    lam, v = np.linalg.eigh(c)
    return (v * np.sqrt(np.clip(lam, 0.0, None))) @ v.T


def sample_gmm(gt: GroundTruth, k: int, n_components: int = 3,
               mean_scale: float = 1.0, seed: int = 0,
               return_components: bool = False):
    """K samples from a Gaussian mixture sharing the truth covariance.

    Each component carries a scalar offset m_c ~ N(0, mean_scale^2)
    applied to every node, so a sample is x = m_c 1 + C^{1/2} z. The
    offset shifts along the all-ones vector, which every Laplacian
    quadratic form annihilates, so the mixture is non-Gaussian per node
    while the pairwise structure stays governed by the graph. Returns
    the N x K observations, plus the component labels when asked.
    """
    if k < 1:
        raise ValueError("sample count must be >= 1")
    check_gmm(n_components, mean_scale)
    rng = np.random.default_rng(seed)
    n = gt.cov.shape[0]
    root = _sym_sqrt(gt.cov)
    means = mean_scale * rng.standard_normal(n_components)
    labels = rng.integers(0, n_components, size=k)
    obs = ObservationSet(root @ rng.standard_normal((n, k)) + means[labels])
    if return_components:
        return obs, labels
    return obs


def sample_mvt(gt: GroundTruth, k: int, nu: float = 3.0,
               seed: int = 0) -> ObservationSet:
    """K multivariate-t samples whose covariance equals the truth's.

    x = z / sqrt(u / nu) with z Gaussian and u chi-squared; scaling the
    Gaussian covariance by (nu - 2) / nu keeps E[x x^T] = C, which needs
    nu > 2.
    """
    if k < 1:
        raise ValueError("sample count must be >= 1")
    check_dof(nu)
    rng = np.random.default_rng(seed)
    n = gt.cov.shape[0]
    root = _sym_sqrt(gt.cov * ((nu - 2.0) / nu))
    z = root @ rng.standard_normal((n, k))
    u = rng.chisquare(nu, size=k)
    return ObservationSet(z / np.sqrt(u / nu))


def draw_instance(n: int, k: int, generator: str, entropy, density: float,
                  rho: float, nu: float, n_components: int,
                  mean_scale: float) -> tuple[GroundTruth, ObservationSet]:
    """A ground truth and k observations from `generator` ("gmm" or "mvt"),
    drawn from two seeds spawned by SeedSequence(entropy)."""
    check_generator(generator)
    s_gt, s_x = (int(ss.generate_state(1)[0])
                 for ss in np.random.SeedSequence(entropy).spawn(2))
    gt = gen_ground_truth(n, density, rho, seed=s_gt)
    if generator == "gmm":
        return gt, sample_gmm(gt, k, n_components, mean_scale, seed=s_x)
    return gt, sample_mvt(gt, k, nu, seed=s_x)
