"""Smallest Laplacian eigenpairs, eigen-gap, and the resolvent majorizer.

The solver only ever needs the low end of the spectrum: the Fiedler pair
(lambda_2, v_2), its gap to the neighboring eigenvalues, and a truncated
eigenbasis used to upper-bound quadratic forms of (L + alpha I)^{-1}.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import lobpcg

from .errors import ConvergenceFailure, InsufficientEigenpairs
from .graph import DENSE_LIMIT, LaplacianView

logger = logging.getLogger("fsgl.spectral")


@dataclass(frozen=True)
class SpectralState:
    """Immutable snapshot of the k smallest eigenpairs of a Laplacian.

    eigvals are sorted ascending; eigvecs holds the matching orthonormal
    vectors as columns. `resolvent` optionally carries the exact
    (L + alpha I)^{-1} for exact determinant scoring.
    """

    eigvals: np.ndarray
    eigvecs: np.ndarray
    alpha: float
    resolvent: np.ndarray | None = None

    @property
    def k(self) -> int:
        return self.eigvals.shape[0]

    @property
    def n(self) -> int:
        return self.eigvecs.shape[0]

    @property
    def fiedler_value(self) -> float:
        return float(self.eigvals[1])

    @property
    def fiedler_vector(self) -> np.ndarray:
        return self.eigvecs[:, 1]

    @property
    def gap2(self) -> float:
        return eigen_gap2(self)

    def majorizer_coeffs(self) -> np.ndarray:
        """Per-eigenpair weights (lambda_k + a)^-1 - a^-1 (all <= 0)."""
        cached = self.__dict__.get("_coeffs")
        if cached is None:
            cached = 1.0 / (self.eigvals + self.alpha) - 1.0 / self.alpha
            object.__setattr__(self, "_coeffs", cached)
        return cached


def eigen_gap2(state: SpectralState) -> float:
    """Distance from lambda_2 to its nearest neighboring eigenvalue.

    With ascending eigenvalues this is min(l2 - l1, l3 - l2); values
    beyond the third can only be farther away. A full 2 x 2 spectrum has
    no third eigenvalue, so the gap is l2 - l1 alone.
    """
    lam = state.eigvals
    if state.k < 3:
        if state.k == 2 and state.n == 2:
            return float(lam[1] - lam[0])
        raise InsufficientEigenpairs("eigen-gap at lambda_2 needs three eigenvalues")
    return float(min(lam[1] - lam[0], lam[2] - lam[1]))


def smallest_eigenpairs(
    lap: LaplacianView,
    k: int,
    tol: float = 1e-8,
    *,
    alpha: float = 0.5,
    seed: int = 0,
    max_iters: int = 500,
    with_resolvent: bool = False,
) -> SpectralState:
    """Compute the k smallest eigenpairs of a graph Laplacian.

    Dense symmetric eigendecomposition when the graph is small enough to
    make it exact and cheap; LOBPCG with a seeded random orthonormal block
    otherwise. Raises ConvergenceFailure when the iterative path misses the
    residual tolerance within `max_iters`; callers may retry densely.
    """
    n = lap.n
    if not (2 <= k <= n):
        raise ValueError(f"k={k} must lie in [2, {n}]")
    if tol <= 0:
        raise ValueError("tol must be positive")

    if n <= DENSE_LIMIT or lap.is_dense:
        dense = lap.dense()
        if k < n:
            try:
                vals, vecs = scipy.linalg.eigh(
                    dense, subset_by_index=(0, k - 1), check_finite=False)
            except np.linalg.LinAlgError as exc:
                # LAPACK's subset routine can fail on finite symmetric input
                # that the full routine handles; keep its k lowest pairs.
                logger.warning("subset eigh failed (%s); using full eigh", exc)
                vals, vecs = np.linalg.eigh(dense)
                vals, vecs = vals[:k], vecs[:, :k]
            state = SpectralState(vals, vecs, alpha)
        else:
            vals, vecs = np.linalg.eigh(dense)
            state = SpectralState(vals, vecs, alpha)
    else:
        rng = np.random.default_rng(seed)
        block, _ = np.linalg.qr(rng.standard_normal((n, k)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            vals, vecs = lobpcg(
                lap.matrix, block, largest=False, tol=tol, maxiter=max_iters
            )
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        resid = np.linalg.norm(lap.matrix @ vecs - vecs * vals, axis=0)
        if np.any(resid > tol * (1.0 + np.abs(vals))):
            raise ConvergenceFailure(
                f"lobpcg residuals {resid.max():.3e} above tol after {max_iters} iters"
            )
        state = SpectralState(vals, vecs, alpha)

    if with_resolvent:
        shifted = lap.dense() + alpha * np.eye(n)
        state = SpectralState(state.eigvals, state.eigvecs, alpha, np.linalg.inv(shifted))
    return state


def majorizer_quadform(state: SpectralState, m: int, n: int) -> float:
    """Upper bound on (e_m - e_n)^T (L + alpha I)^{-1} (e_m - e_n).

    Evaluates the quadratic form of the PSD-dominating surrogate built from
    the retained eigenpairs, in O(k) per pair. Equals the exact form when
    all N eigenpairs are retained.
    """
    if m == n:
        raise ValueError("m and n must differ")
    dv = state.eigvecs[m, :] - state.eigvecs[n, :]
    return float((dv * dv * state.majorizer_coeffs()).sum() + 2.0 / state.alpha)


def exact_quadform(state: SpectralState, m: int, n: int) -> float:
    """(e_m - e_n)^T (L + alpha I)^{-1} (e_m - e_n) from the stored inverse."""
    r = state.resolvent
    if r is None:
        raise ValueError("state carries no exact resolvent")
    return float(r[m, m] + r[n, n] - 2.0 * r[m, n])
