"""Eigenpair extraction, eigen-gap, and the resolvent majorizer's reference."""

import re
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

from doubles import patch_syevr
import fsgl.spectral
from fsgl.datagen import connected_pairs, gen_ground_truth
from fsgl.errors import InsufficientEigenpairs, NonFiniteInput
from fsgl.graph import WeightedGraph, build_laplacian, complete_graph
from fsgl.spectral import SpectralState, smallest_eigenpairs
from quadforms import exact_quadform, majorizer_quadform
from randomgraph import random_connected_graph


def test_complete_graph_spectrum_known():
    # K_N Laplacian eigenvalues: 0 once, N with multiplicity N-1
    state = smallest_eigenpairs(build_laplacian(complete_graph(4)), 4)
    assert np.allclose(state.eigvals, [0.0, 4.0, 4.0, 4.0], atol=1e-9)


def test_path_graph_spectrum_known():
    # P_3 with unit weights: eigenvalues {0, 1, 3}
    g = WeightedGraph(3, {(0, 1): 1.0, (1, 2): 1.0})
    state = smallest_eigenpairs(build_laplacian(g), 3)
    assert np.allclose(state.eigvals, [0.0, 1.0, 3.0], atol=1e-9)
    assert state.fiedler_value == pytest.approx(1.0)


def test_eigenpairs_match_dense_reference():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 20))
        g = random_connected_graph(rng, n)
        lap = build_laplacian(g)
        k = int(rng.integers(2, n + 1))
        state = smallest_eigenpairs(lap, k)
        ref = np.linalg.eigvalsh(lap)
        assert state.k == k and state.n == n
        assert np.allclose(state.eigvals, ref[:k], atol=1e-8)
        # columns are eigenvectors with unit norm
        r = lap @ state.eigvecs - state.eigvecs * state.eigvals
        assert np.max(np.abs(r)) < 1e-7
        assert np.allclose(np.linalg.norm(state.eigvecs, axis=0), 1.0)


def test_eigenpairs_above_former_sparse_limit_match_eigvalsh():
    # N = 80 once took an iterative path; it is now the dense one
    rng = np.random.default_rng(7)
    g = random_connected_graph(rng, 80, density=0.15)
    lap = build_laplacian(g)
    state = smallest_eigenpairs(lap, 5)
    ref = np.linalg.eigvalsh(lap)[:5]
    assert np.allclose(state.eigvals, ref, atol=1e-9)


@pytest.mark.parametrize("n", [3, 12, 30, 65, 80])
def test_eigenpairs_bitwise_equal_to_scipy_subset_eigh(n):
    # the direct dsyevr call must reproduce the wrapper's output exactly
    rng = np.random.default_rng(n)
    for k in sorted({2, 3, 6, 7, 8, 9, 12, n // 5, n - 1}):
        if not 2 <= k < n:
            continue
        for density in (0.2, 1.0):
            g = random_connected_graph(rng, n, density=density)
            lap = build_laplacian(g)
            state = smallest_eigenpairs(lap, k)
            vals, vecs = scipy.linalg.eigh(lap, subset_by_index=(0, k - 1),
                                           check_finite=False)
            assert state.eigvals.tobytes() == vals.tobytes()
            assert state.eigvecs.tobytes() == vecs.tobytes()


def test_eigenpairs_input_validation():
    lap = build_laplacian(complete_graph(5))
    with pytest.raises(ValueError):
        smallest_eigenpairs(lap, 1)
    with pytest.raises(ValueError):
        smallest_eigenpairs(lap, 6)


def test_eigenpairs_reject_a_non_array_and_a_wrong_shape():
    lap = build_laplacian(complete_graph(4))
    with pytest.raises(TypeError, match="lap must be a NumPy array, got list"):
        smallest_eigenpairs(lap.tolist(), 2)
    for bad in (lap[:3], lap[:, :3], lap[0], lap[None], np.array(1.0)):
        with pytest.raises(ValueError, match=re.escape(f"got shape {bad.shape}")):
            smallest_eigenpairs(bad, 2)


@pytest.mark.parametrize("k", [2, 4])
def test_eigenpairs_reject_a_complex_matrix(k):
    # both LAPACK routines would take the real part (dsyevr below k = N, dsyevd at N)
    lap = build_laplacian(complete_graph(4)) + 0j
    lap[0, 1] = lap[1, 0] = -1 + 1j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="lap must be real, got dtype complex128"):
            smallest_eigenpairs(lap, k)


def test_fiedler_value_monotone_under_weight_increase():
    # adding weight anywhere never lowers lambda_2 of a connected graph
    count = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 12))
        g = random_connected_graph(rng, n)
        lam2 = smallest_eigenpairs(build_laplacian(g), 3).fiedler_value
        m, n2 = sorted(rng.choice(n, size=2, replace=False).tolist())
        bump = g.edges.get((m, n2), 0.0) + float(rng.uniform(0.1, 1.0))
        g2 = WeightedGraph(n, {**g.edges, (m, n2): bump})
        lam2_up = smallest_eigenpairs(build_laplacian(g2), 3).fiedler_value
        assert lam2_up >= lam2 - 1e-9
        count += 1
    assert count == 200


def test_eigen_gap_definition_and_small_cases():
    state = SpectralState(np.array([0.0, 1.0, 3.5]), np.eye(3))
    assert state.gap2 == pytest.approx(1.0)
    state = SpectralState(np.array([0.0, 3.0, 3.5]), np.eye(3))
    assert state.gap2 == pytest.approx(0.5)
    # a 2-node graph has a complete spectrum with two eigenvalues
    two = SpectralState(np.array([0.0, 2.0]), np.eye(2))
    assert two.gap2 == pytest.approx(2.0)
    # truncated to fewer than three pairs on a larger graph: no gap
    trunc = SpectralState(np.array([0.0, 1.0]), np.eye(3)[:, :2])
    with pytest.raises(InsufficientEigenpairs):
        trunc.gap2


def test_majorizer_equals_exact_with_full_basis():
    # with all N eigenpairs the surrogate is the exact quadratic form
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        g = random_connected_graph(rng, n)
        lap = build_laplacian(g)
        state = smallest_eigenpairs(lap, n)
        for _ in range(5):
            m, n2 = sorted(rng.choice(n, size=2, replace=False).tolist())
            q_m = majorizer_quadform(state, 0.5, m, n2)
            q_e = exact_quadform(lap, 0.5, m, n2)
            assert abs(q_m - q_e) < 1e-9 * (1.0 + abs(q_e))


def test_majorizer_dominates_exact_when_truncated():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 14))
        g = random_connected_graph(rng, n)
        lap = build_laplacian(g)
        k = int(rng.integers(2, n))
        part = smallest_eigenpairs(lap, k)
        for _ in range(5):
            m, n2 = sorted(rng.choice(n, size=2, replace=False).tolist())
            assert (majorizer_quadform(part, 0.5, m, n2)
                    >= exact_quadform(lap, 0.5, m, n2) - 1e-12)


def test_majorizer_empty_graph_limit():
    # with no edges every eigenvalue is zero and the form collapses to 2/a
    g = WeightedGraph(5)
    for alpha in (0.25, 0.5, 1.0):
        state = smallest_eigenpairs(build_laplacian(g), 3)
        q = majorizer_quadform(state, alpha, 0, 1)
        assert q == pytest.approx(2.0 / alpha, rel=1e-9)


def test_majorizer_validation():
    lap = build_laplacian(complete_graph(4))
    state = smallest_eigenpairs(lap, 3)
    with pytest.raises(ValueError):
        majorizer_quadform(state, 0.5, 2, 2)
    with pytest.raises(ValueError):
        exact_quadform(lap, 0.5, 2, 2)


def test_subset_eigh_failure_falls_back_to_full_eigh(monkeypatch, caplog):
    rng = np.random.default_rng(4)
    lap = build_laplacian(random_connected_graph(rng, 12))
    full_vals, full_vecs = np.linalg.eigh(lap)
    # dsyevr's own failure report: outputs as computed, info = 1
    patch_syevr(monkeypatch, info=1)
    with caplog.at_level("WARNING", logger="fsgl"):
        state = smallest_eigenpairs(lap, 5)
    assert [r.getMessage() for r in caplog.records] == [
        "dsyevr failed (info=1, 5 of 5 eigenvalues); using the full dsyevd"]
    assert np.array_equal(state.eigvals, full_vals[:5])
    assert np.array_equal(state.eigvecs, full_vecs[:, :5])


def test_missing_lapack_extension_raises_import_error(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    with pytest.raises(ImportError, match="_flapack") as info:
        fsgl.spectral._load_flapack(tmp_path)
    assert info.value.path.startswith(str(tmp_path / "linalg" / "_flapack."))


def full_spectrum_inputs():
    """Seeded symmetric matrices: weighted graph Laplacians at N = 2 to 240
    and datagen covariances, as drawn and t-scaled, at N = 2 to 60."""
    rng = np.random.default_rng(27)
    for n in [*range(2, 41), 48, 64, 80, 100, 128, 160, 200, 240]:
        ms, ns = connected_pairs(n, float(rng.uniform(0.05, 1.0)), rng)
        g = WeightedGraph.from_arrays(n, ms, ns, rng.uniform(0.01, 2.0, ms.shape[0]))
        yield build_laplacian(g)
    for n in range(2, 61, 2):
        for seed in range(2):
            cov = gen_ground_truth(n, 0.2, seed=seed).cov
            yield cov
            yield cov * (1.0 / 3.0)


def test_full_spectrum_is_bitwise_numpy_eigh(monkeypatch):
    # k = N takes dsyevd alone, and it has the bits of np.linalg.eigh
    syevr_calls = patch_syevr(monkeypatch)
    count = 0
    for a in full_spectrum_inputs():
        vals, vecs = np.linalg.eigh(a)
        state = smallest_eigenpairs(a, a.shape[0])
        assert state.eigvals.tobytes() == vals.tobytes()
        assert state.eigvecs.tobytes() == vecs.tobytes()
        count += 1
    assert count == 47 + 120
    assert syevr_calls == [], "dsyevr called for a full spectrum"


def test_dsyevr_failure_falls_back_to_bitwise_numpy_eigh(monkeypatch):
    patch_syevr(monkeypatch, info=2)
    for a in full_spectrum_inputs():
        n = a.shape[0]
        vals, vecs = np.linalg.eigh(a)
        for k in sorted({2, n // 2, n - 1} & set(range(2, n))):
            state = smallest_eigenpairs(a, k)
            assert state.eigvals.tobytes() == vals[:k].tobytes()
            assert state.eigvecs.tobytes() == vecs[:, :k].tobytes()


def test_full_spectrum_failure_raises_linalg_error(monkeypatch):
    # what np.linalg.eigh raises when LAPACK does not converge, at k = N
    # and after a failed dsyevr
    real_syevd = fsgl.spectral._SYEVD
    patch_syevr(monkeypatch, info=1)
    monkeypatch.setattr(fsgl.spectral, "_SYEVD",
                        lambda *a, **kw: (*real_syevd(*a, **kw)[:2], 1))
    lap = build_laplacian(complete_graph(5))
    for k in (5, 3):
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            smallest_eigenpairs(lap, k)


def non_finite_matrices():
    """Symmetric matrices with a NaN or an inf, and the k to ask them for:
    the ones dsyevr finds no eigenvalue on, and one it returns -inf and NaN
    for, both with info = 0."""
    yield np.full((4, 4), np.nan), 2
    base = 2.0 * np.eye(5) - 0.1
    for value in (np.nan, np.inf, -np.inf):
        for i, j in ((0, 0), (3, 1)):
            a = base.copy()
            a[i, j] = a[j, i] = value
            yield a, 2
    a = base.copy()
    a[2, 2] = -np.inf
    yield a, 2


def test_non_finite_matrix_raises_at_every_k():
    # neither LAPACK routine reports a failure on these: dsyevr finds
    # fewer than k eigenvalues, or non-finite ones, and dsyevd returns
    # NaNs, or on a NaN diagonal finite eigenvalues
    count = 0
    for a, k_partial in non_finite_matrices():
        for k in (k_partial, a.shape[0]):
            with pytest.raises(NonFiniteInput, match="non-finite entry"):
                smallest_eigenpairs(a, k)
            count += 1
    assert count == 16


def test_non_finite_entry_gets_one_answer_at_every_k(caplog):
    # both routines read the lower triangle: a bad entry above the diagonal
    # changes no answer, one below it raises, and neither logs a fallback
    base = 2.0 * np.eye(5) - 0.1
    want = np.linalg.eigvalsh(base)
    for value in (np.nan, np.inf, -np.inf):
        above, below = base.copy(), base.copy()
        above[1, 3] = below[3, 1] = value
        with caplog.at_level("WARNING", logger="fsgl"):
            for k in range(2, 6):
                state = smallest_eigenpairs(above, k)
                np.testing.assert_allclose(state.eigvals, want[:k], rtol=0, atol=1e-14)
                with pytest.raises(NonFiniteInput, match="on or below the diagonal"):
                    smallest_eigenpairs(below, k)
        assert caplog.records == []
    full = smallest_eigenpairs(above, 5)
    assert full.eigvals.tobytes() == np.linalg.eigh(base)[0].tobytes()


def test_a_k_that_is_not_an_integer_is_refused_before_lapack(caplog):
    # 2.5 once reached dsyevr, logged a false failure and broke a slice
    lap = build_laplacian(complete_graph(5))
    with caplog.at_level("WARNING", logger="fsgl"):
        for bad in (2.5, 3.0, True, np.float64(2.0), "2"):
            with pytest.raises(TypeError, match="k must be an integer"):
                smallest_eigenpairs(lap, bad)
    assert caplog.records == []
    assert smallest_eigenpairs(lap, np.int64(2)).eigvals.shape == (2,)


def test_dsyevr_finding_too_few_eigenvalues_falls_back(monkeypatch):
    # m < k with info = 0 is a failure like any other: the full routine answers
    lap = build_laplacian(random_connected_graph(np.random.default_rng(5), 10))
    vals, vecs = np.linalg.eigh(lap)
    patch_syevr(monkeypatch, short=1)
    state = smallest_eigenpairs(lap, 4)
    assert state.eigvals.tobytes() == vals[:4].tobytes()
    assert state.eigvecs.tobytes() == vecs[:, :4].tobytes()
