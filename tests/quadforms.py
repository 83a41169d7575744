"""Per-pair reference forms of (e_m - e_n)^T (L + alpha I)^{-1} (e_m - e_n).

`score_edges` computes the same forms over a whole batch of edges; these
one-pair versions are the oracles the tests check it and each other
against.
"""

import numpy as np


def majorizer_quadform(state, alpha: float, m: int, n: int) -> float:
    """Upper bound on the form from the state's retained eigenpairs.

    Evaluates the quadratic form of the PSD-dominating surrogate, whose
    per-eigenpair weights (lambda + alpha)^-1 - alpha^-1 are all <= 0, in
    O(k) per pair. Equals the exact form when all N eigenpairs are
    retained.
    """
    if m == n:
        raise ValueError("m and n must differ")
    dv = state.eigvecs[m, :] - state.eigvecs[n, :]
    coeffs = 1.0 / (state.eigvals + alpha) - 1.0 / alpha
    return float((dv * dv * coeffs).sum() + 2.0 / alpha)


def exact_quadform(lap: np.ndarray, alpha: float, m: int, n: int) -> float:
    """The form itself, from the dense inverse of L + alpha I."""
    if m == n:
        raise ValueError("m and n must differ")
    r = np.linalg.inv(lap + alpha * np.eye(lap.shape[0]))
    return float(r[m, m] + r[n, n] - 2.0 * r[m, n])
