"""Smallest eigenpairs of a symmetric matrix, the eigen-gap, and a PSD
square root.

The solver only needs the low end of a Laplacian's spectrum: the Fiedler
pair (lambda_2, v_2), its gap to the neighboring eigenvalues, and a
truncated eigenbasis that `objective.score_edges` weights with
`SolverConfig.alpha` to upper-bound quadratic forms of (L + alpha I)^{-1}.
Every eigenvalue and determinant in fsgl comes from `smallest_eigenpairs`,
and so does every factorisation of a solve's Laplacian: the exact
resolvent is taken from a full spectrum. datagen's covariance square
root (`sym_sqrt`) runs the same code on a scaled copy it lets dsyevd
overwrite.

A partial spectrum comes from LAPACK's dsyevr, called as
`scipy.linalg.eigh(subset_by_index=...)` calls it, so with its bits; a
full one, or one dsyevr fails on, from dsyevd, the routine that
`np.linalg.eigh` runs, whose bits the tests hold it to. Both come from
SciPy's compiled `scipy.linalg._flapack` extension, loaded from its file
without running `scipy.linalg`'s package init, which imports hundreds of
modules fsgl never calls. Loading registers it in `sys.modules` under its
own name, so fsgl and `scipy.linalg` share one module whichever is
imported first, and `_SYEVR` is `scipy.linalg.lapack.dsyevr` itself.
"""

from __future__ import annotations

import importlib.util
import logging
import math
import sys
import sysconfig
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from .errors import InsufficientEigenpairs, NonFiniteInput
from .graph import integer

logger = logging.getLogger("fsgl.spectral")

_FLAPACK_NAME = "scipy.linalg._flapack"


def _load_flapack(scipy_dir: Path):
    """SciPy's LAPACK extension module, reused if already imported.

    Called after `import scipy`, which on wheels that bundle OpenBLAS
    makes the library loadable before the extension links against it.
    """
    module = sys.modules.get(_FLAPACK_NAME)
    if module is not None:
        return module
    path = scipy_dir / "linalg" / f"_flapack{sysconfig.get_config_var('EXT_SUFFIX')}"
    if not path.is_file():
        raise ImportError(f"SciPy's LAPACK extension {path} is missing",
                          name=_FLAPACK_NAME, path=str(path))
    spec = importlib.util.spec_from_file_location(_FLAPACK_NAME, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack(Path(scipy.__file__).parent)
_SYEVR, _SYEVR_LWORK, _SYEVD = _flapack.dsyevr, _flapack.dsyevr_lwork, _flapack.dsyevd


@dataclass(frozen=True)
class SpectralState:
    """Immutable snapshot of the k smallest eigenpairs of a Laplacian.

    eigvals are sorted ascending; eigvecs holds the matching orthonormal
    vectors as Fortran-ordered columns. `resolvent` optionally carries the
    exact (L + alpha I)^{-1}, attached under cfg.exact_logdet by
    `solver._snapshot`, which takes a solve's snapshots and `compute_state`'s:
    V diag(1 / (l + alpha)) V^T of the full spectrum L = V diag(l) V^T,
    whose k lowest pairs are then the snapshot's.
    """

    eigvals: np.ndarray
    eigvecs: np.ndarray
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
        """Distance from lambda_2 to its nearest neighboring eigenvalue.

        With ascending eigenvalues this is min(l2 - l1, l3 - l2); values
        beyond the third can only be farther away. A full 2 x 2 spectrum
        has no third eigenvalue, so the gap is l2 - l1 alone.
        """
        lam = self.eigvals
        if self.k < 3:
            if self.k == 2 and self.n == 2:
                return float(lam[1] - lam[0])
            raise InsufficientEigenpairs("eigen-gap at lambda_2 needs three eigenvalues")
        l1, l2, l3 = lam[:3].tolist()
        return min(l2 - l1, l3 - l2)


def smallest_eigenpairs(lap: np.ndarray, k: int) -> SpectralState:
    """Compute the k smallest eigenpairs of a dense symmetric (N, N) matrix.

    dsyevr for the index range [1, k] with the workspace it asks for,
    exactly as `scipy.linalg.eigh(..., subset_by_index=(0, k - 1))` calls
    it. When k equals N, or dsyevr fails (it can on finite symmetric
    input the full routine handles), the k lowest pairs of dsyevd,
    bitwise `np.linalg.eigh`'s; LinAlgError if that fails too. Both
    routines read the lower triangle only, so the upper one is never
    checked: a non-finite entry on or below the diagonal raises
    NonFiniteInput at every k, and one above it changes no answer.
    Anything but an ndarray, or a k that is not an integer
    (`graph.integer`), raises TypeError; a matrix that is not square
    and 2-D, or complex, raises ValueError (LAPACK would keep the real part).
    """
    return _eigenpairs(lap, k, 0)


def _eigenpairs(lap: np.ndarray, k: int, overwrite: int) -> SpectralState:
    """`smallest_eigenpairs`; with overwrite = 1, dsyevd writes its
    eigenvectors over an F-contiguous float64 `lap` instead of a copy."""
    if not isinstance(lap, np.ndarray):
        raise TypeError(f"lap must be a NumPy array, got {type(lap).__name__}")
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ValueError(f"lap must be a square 2-D matrix, got shape {lap.shape}")
    if lap.dtype.kind == "c":
        raise ValueError(f"lap must be real, got dtype {lap.dtype}")
    n = lap.shape[0]
    if not (2 <= integer(k, "k") <= n):
        raise ValueError(f"k={k} must lie in [2, {n}]")

    failed = None
    if k < n:
        # Queried on every call (under a microsecond) instead of cached, so
        # the module holds no mutable state for threads to share.
        work, iwork, _ = _SYEVR_LWORK(n, lower=1)
        vals, vecs, m, _, info = _SYEVR(
            lap, compute_v=1, range="I", lower=1, il=1, iu=k,
            lwork=int(work), liwork=iwork)
        # On a non-finite matrix info stays 0, but dsyevr finds fewer than
        # k eigenvalues or a non-finite lowest one.
        if info == 0 and m == k and math.isfinite(vals[0]):
            return SpectralState(vals[:k], vecs)
        failed = (info, m)
    # dsyevd can return finite eigenvalues on a NaN; the triangle it reads
    # is checked only when the whole matrix fails
    if not np.isfinite(lap).all() and not np.isfinite(np.tril(lap)).all():
        raise NonFiniteInput("matrix has a non-finite entry on or below the diagonal")
    if failed is not None:
        logger.warning("dsyevr failed (info=%d, %d of %d eigenvalues); using the full "
                       "dsyevd", *failed, k)
    vals, vecs, info = _SYEVD(lap, compute_v=1, lower=1, overwrite_a=overwrite)
    if info != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return SpectralState(vals[:k], vecs[:, :k])


def sym_sqrt(c: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """The symmetric PSD square root of scale * c, for an exactly symmetric
    c, from its full spectrum: bitwise the root of `np.linalg.eigh`'s
    spectrum with C-ordered eigenvectors. dsyevd reads the scaled copy
    through its transpose, an F-contiguous view of the same matrix, and
    writes its eigenvectors over it, so it makes no copy of its own."""
    a = c * scale
    state = _eigenpairs(a.T, a.shape[0], 1)
    # the product's rounding, so each seed's draw, depends on v being C-ordered
    lam, v = state.eigvals, np.ascontiguousarray(state.eigvecs)
    del a, state  # frees the eigenvectors dsyevd wrote before the product
    return (v * np.sqrt(np.clip(lam, 0.0, None))) @ v.T
