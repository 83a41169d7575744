"""Smallest Laplacian eigenpairs and the eigen-gap.

The solver only ever needs the low end of the spectrum: the Fiedler pair
(lambda_2, v_2), its gap to the neighboring eigenvalues, and a truncated
eigenbasis that `objective.score_edges` weights with `SolverConfig.alpha`
to upper-bound quadratic forms of (L + alpha I)^{-1}. Every eigenvalue
and determinant of a Laplacian comes from `smallest_eigenpairs`, for the
sub-graph Fiedler pairs, the exact objective and each reported lambda_2
too; the one other LAPACK call on a solve's Laplacian is the exact
resolvent's `np.linalg.inv` in `solver.compute_state`.

Every size takes one path: LAPACK's dsyevr on the dense Laplacian, called
with the arguments `scipy.linalg.eigh(subset_by_index=...)` would pass,
so the result is bitwise the same without the wrapper's per-call checks;
a full `np.linalg.eigh` stands in when dsyevr reports failure.

dsyevr is reached through SciPy's compiled `scipy.linalg._flapack`
extension, loaded from its file next to the `scipy` package without
running `scipy.linalg`'s package init, which would import hundreds of
modules fsgl never calls. `eigh` takes its routine from that same
extension (`get_lapack_funcs` looks it up there). Loading the extension
registers it in `sys.modules` under its own name, so fsgl and
`scipy.linalg` share one module whichever is imported first, and
`_SYEVR` is the very object `scipy.linalg.lapack.dsyevr` is.
"""

from __future__ import annotations

import importlib.util
import logging
import sys
import sysconfig
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from .errors import InsufficientEigenpairs

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
_SYEVR, _SYEVR_LWORK = _flapack.dsyevr, _flapack.dsyevr_lwork


@dataclass(frozen=True)
class SpectralState:
    """Immutable snapshot of the k smallest eigenpairs of a Laplacian.

    eigvals are sorted ascending; eigvecs holds the matching orthonormal
    vectors as columns. `resolvent` optionally carries the exact
    (L + alpha I)^{-1}, attached by `solver.compute_state`.
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
        return float(min(lam[1] - lam[0], lam[2] - lam[1]))


def smallest_eigenpairs(lap: np.ndarray, k: int) -> SpectralState:
    """Compute the k smallest eigenpairs of a dense (N, N) graph Laplacian.

    One dense path for every size: dsyevr for the index range [1, k] with
    the workspace it asks for, exactly as `scipy.linalg.eigh(...,
    subset_by_index=(0, k - 1))` calls it, or the full `np.linalg.eigh`
    when k equals the node count. When dsyevr reports failure (it can on
    finite symmetric input the full routine handles), the k lowest pairs
    of the full `np.linalg.eigh` are kept instead.
    """
    n = lap.shape[0]
    if not (2 <= k <= n):
        raise ValueError(f"k={k} must lie in [2, {n}]")

    if k < n:
        # Queried on every call (under a microsecond) instead of cached, so
        # the module holds no mutable state for threads to share.
        work, iwork, _ = _SYEVR_LWORK(n, lower=1)
        vals, vecs, _, _, info = _SYEVR(
            lap, compute_v=1, range="I", lower=1, il=1, iu=k,
            lwork=int(work), liwork=iwork)
        vals = vals[:k]
        if info != 0:
            logger.warning("dsyevr failed (info=%d); using full eigh", info)
            vals, vecs = np.linalg.eigh(lap)
            vals, vecs = vals[:k], vecs[:, :k]
    else:
        vals, vecs = np.linalg.eigh(lap)
    return SpectralState(vals, vecs)

