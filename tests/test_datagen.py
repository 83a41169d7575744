"""Ground-truth graphs and the two non-Gaussian observation samplers."""

import re
from dataclasses import fields

import numpy as np
import pytest

from doubles import traced_peak
from fsgl.datagen import (DRAW_ARRAYS, SAMPLE_ARRAYS, TRUTH_EDGE_ARRAYS, GroundTruth,
                          check_dof, check_gmm, check_ground_truth, check_samples,
                          connected_pairs, draw_instance, gen_ground_truth, sample_count,
                          sample_gmm, sample_mvt, truth_edges)
from fsgl.errors import InvalidDof, TooLarge
from fsgl.graph import WeightedGraph, build_laplacian, is_connected
from fsgl.objective import smoothness_trace
from fsgl.spectral import sym_sqrt
from unionfind import reference_pairs


def test_ground_truth_precision_covariance_inverse():
    # cov @ theta = I within 1e-8, theta = L + rho I rebuilt from w_star and rho
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        gt = gen_ground_truth(n, float(rng.uniform(0.05, 0.6)), seed=seed)
        theta = build_laplacian(gt.w_star) + gt.rho * np.eye(n)
        assert np.max(np.abs(gt.cov @ theta - np.eye(n))) < 1e-8
        assert np.array_equal(gt.cov, gt.cov.T)


def test_ground_truth_keeps_its_graph_and_covariance_only():
    # the precision is one line from w_star and rho, so no draw holds it
    assert [f.name for f in fields(GroundTruth)] == ["w_star", "cov", "rho"]


def test_ground_truth_connected_and_weights_in_range():
    for seed in range(40):
        gt = gen_ground_truth(20, 0.1, seed=seed)
        assert is_connected(gt.w_star)
        ws = np.array(list(gt.w_star.edges.values()))
        assert np.all((0.5 <= ws) & (ws <= 1.5))


def test_ground_truth_extreme_densities():
    # density 0 forces the bridging fallback into a connected graph
    gt = gen_ground_truth(10, 0.0, seed=0)
    assert is_connected(gt.w_star)
    assert gt.w_star.edge_count == 9
    gt = gen_ground_truth(6, 1.0, seed=0)
    assert gt.w_star.edge_count == 15


def test_ground_truth_validation():
    with pytest.raises(ValueError):
        gen_ground_truth(1, 0.2)
    with pytest.raises(ValueError):
        gen_ground_truth(5, 1.5)
    with pytest.raises(ValueError):
        gen_ground_truth(5, 0.2, rho=0.0)
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="rho"):
            gen_ground_truth(5, 0.2, rho=bad)
    with pytest.raises(ValueError, match="density"):
        gen_ground_truth(5, np.nan)


def test_ground_truth_deterministic():
    a = gen_ground_truth(15, 0.25, seed=7)
    b = gen_ground_truth(15, 0.25, seed=7)
    assert a.w_star.edges == b.w_star.edges
    assert np.array_equal(a.cov, b.cov)


def test_gmm_shapes_and_determinism():
    gt = gen_ground_truth(12, 0.3, seed=1)
    obs = sample_gmm(gt, 40, seed=5)
    assert obs.x.shape == (12, 40)
    obs2 = sample_gmm(gt, 40, seed=5)
    assert np.array_equal(obs.x, obs2.x)
    with pytest.raises(ValueError):
        sample_gmm(gt, 0)
    with pytest.raises(ValueError, match="component"):
        sample_gmm(gt, 5, n_components=0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="mean scale"):
            sample_gmm(gt, 5, mean_scale=bad)
    assert sample_gmm(gt, 5, mean_scale=-1.0).x.shape == (12, 5)


def test_gmm_single_component_zero_scale_is_gaussian():
    # one component with no offset degenerates to the plain Gaussian
    gt = gen_ground_truth(10, 0.3, seed=2)
    obs = sample_gmm(gt, 30, n_components=1, mean_scale=0.0, seed=9)
    rng = np.random.default_rng(9)
    # offsets are all zero, so the draw is root @ z with the same stream
    assert np.isfinite(obs.x).all()
    assert abs(np.mean(obs.x)) < 1.0


def gmm_draw(n_components, k, seed):
    """The component offsets (before mean_scale) and labels that
    sample_gmm(..., seed=seed) draws first from its random stream."""
    rng = np.random.default_rng(seed)
    means = rng.standard_normal(n_components)
    return means, rng.integers(0, n_components, size=k)


def test_gmm_covariance_recovered_within_components():
    # pooled within-component second moment approaches the truth at large
    # K; k = 50 N sits near the Monte Carlo noise floor, so fixed seeds
    for gt_seed, x_seed in ((2, 102), (7, 107)):
        gt = gen_ground_truth(10, 0.5, seed=gt_seed)
        k = 50 * 10
        obs = sample_gmm(gt, k, n_components=3, mean_scale=1.0, seed=x_seed)
        _, labels = gmm_draw(3, k, x_seed)
        centered = np.empty_like(obs.x)
        for c in range(3):
            cols = labels == c
            centered[:, cols] = obs.x[:, cols] - obs.x[:, cols].mean(
                axis=1, keepdims=True)
        emp = centered @ centered.T / (k - 3)
        rel = np.linalg.norm(emp - gt.cov) / np.linalg.norm(gt.cov)
        assert rel < 0.10, f"within-component covariance off by {rel:.3f}"


def test_gmm_offsets_invisible_to_laplacian_forms():
    # component offsets shift along the all-ones vector, which every
    # Laplacian quadratic form annihilates: tr(L Y) is offset-free
    gt = gen_ground_truth(8, 0.4, seed=4)
    flat = sample_gmm(gt, 25, n_components=4, mean_scale=0.0, seed=13)
    shifted = sample_gmm(gt, 25, n_components=4, mean_scale=5.0, seed=13)
    # the same draw, each column shifted by its component's offset alone
    means, labels = gmm_draw(4, 25, 13)
    np.testing.assert_allclose(shifted.x - flat.x,
                               np.broadcast_to(5.0 * means[labels], flat.x.shape),
                               rtol=0, atol=1e-12)
    a = smoothness_trace(gt.w_star, flat.gram)
    b = smoothness_trace(gt.w_star, shifted.gram)
    assert a == pytest.approx(b, rel=1e-9)


def test_gmm_is_non_gaussian_via_excess_kurtosis():
    # a scalar-offset mixture has heavy-tailed marginals along 1
    gt = gen_ground_truth(6, 0.5, seed=5)
    k = 20000
    obs = sample_gmm(gt, k, n_components=3, mean_scale=2.0, seed=17)
    proj = obs.x.mean(axis=0)  # direction of the shared offsets
    z = (proj - proj.mean()) / proj.std()
    excess = float(np.mean(z ** 4) - 3.0)
    assert abs(excess) > 0.3, f"kurtosis {excess:.3f} looks Gaussian"


def test_mvt_shapes_and_validation():
    gt = gen_ground_truth(9, 0.3, seed=6)
    obs = sample_mvt(gt, 33, nu=4.0, seed=19)
    assert obs.x.shape == (9, 33)
    with pytest.raises(InvalidDof):
        sample_mvt(gt, 5, nu=2.0)
    with pytest.raises(InvalidDof):
        sample_mvt(gt, 5, nu=1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidDof, match="degrees of freedom"):
            sample_mvt(gt, 5, nu=bad)
    with pytest.raises(ValueError):
        sample_mvt(gt, 0)


def test_mvt_covariance_matches_truth():
    # E[x x^T] = cov for any nu > 2 thanks to the (nu-2)/nu rescale
    gt = gen_ground_truth(10, 0.3, seed=7)
    k = 100 * 10
    obs = sample_mvt(gt, k, nu=10.0, seed=23)
    emp = obs.x @ obs.x.T / k
    rel = np.linalg.norm(emp - gt.cov) / np.linalg.norm(gt.cov)
    assert rel < 0.15, f"second moment off by {rel:.3f}"


def test_mvt_huge_dof_approaches_gaussian():
    # nu -> inf: the chi-squared mixing term concentrates at 1
    gt = gen_ground_truth(8, 0.4, seed=8)
    k = 50 * 8
    obs = sample_mvt(gt, k, nu=1e6, seed=29)
    emp = obs.x @ obs.x.T / k
    rel = np.linalg.norm(emp - gt.cov) / np.linalg.norm(gt.cov)
    assert rel < 0.15
    # kurtosis of a marginal should sit near the Gaussian value
    z = obs.x[0] / obs.x[0].std()
    assert abs(float(np.mean(z ** 4)) - 3.0) < 0.8


def test_mvt_heavier_tails_than_gaussian():
    gt = gen_ground_truth(6, 0.5, seed=9)
    k = 20000
    heavy = sample_mvt(gt, k, nu=3.0, seed=31)
    z = heavy.x[0] / heavy.x[0].std()
    excess = float(np.mean(z ** 4) - 3.0)
    assert excess > 1.0, f"nu=3 marginal kurtosis {excess:.2f} not heavy"


@pytest.mark.parametrize("generator", ["gmm", "mvt"])
def test_draw_instance_matches_inline_recipe(generator):
    entropy = [7, 1, 0, 2]
    gt, obs = draw_instance(12, 5, generator, entropy, 0.3, 0.4, 4.0, 2, 1.5)
    gt_ss, x_ss = np.random.SeedSequence(entropy).spawn(2)
    ref_gt = gen_ground_truth(12, 0.3, 0.4, seed=int(gt_ss.generate_state(1)[0]))
    s_x = int(x_ss.generate_state(1)[0])
    if generator == "gmm":
        ref_obs = sample_gmm(ref_gt, 5, 2, 1.5, seed=s_x)
    else:
        ref_obs = sample_mvt(ref_gt, 5, 4.0, seed=s_x)
    assert gt.w_star.edges == ref_gt.w_star.edges
    assert np.array_equal(gt.cov, ref_gt.cov)
    assert np.array_equal(obs.x, ref_obs.x)


def test_draw_instance_rejects_unknown_generator():
    with pytest.raises(ValueError, match="unknown generator 'bogus'"):
        draw_instance(8, 3, "bogus", [0], 0.3, 0.5, 3.0, 3, 1.0)


def test_connected_pairs_bridges_after_failed_draws():
    # density 0 never connects, so the components (single nodes) get bridged
    ms, ns = connected_pairs(6, 0.0, np.random.default_rng(0))
    pairs = list(zip(ms.tolist(), ns.tolist()))
    assert len(pairs) == 5 and pairs == sorted(pairs)
    assert all(a < b for a, b in pairs)
    assert is_connected(WeightedGraph(6, dict.fromkeys(pairs, 1.0)))


@pytest.mark.parametrize("density", [0.0, 0.05, 0.2, 1.0])
def test_connected_pairs_match_the_pair_list_draw(density):
    # the same pairs, in the same order, from the same random stream; at
    # density 0 every draw fails and single nodes are bridged, at 0.05 most
    # draws of 10 or more nodes fail and larger components are bridged too
    for seed in range(40):
        n = 2 + seed % 23
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ms, ns = connected_pairs(n, density, rng)
        assert list(zip(ms.tolist(), ns.tolist())) == reference_pairs(n, density, ref_rng)
        assert ms.dtype == ns.dtype == np.intp
        assert rng.random() == ref_rng.random()  # the stream stays in step


@pytest.mark.parametrize("generator, kwargs, error, message", [
    ("gmm", {"k": 0}, ValueError, "sample count must be >= 1, got 0"),
    ("gmm", {"n_components": 0}, ValueError, "need at least one mixture component"),
    ("mvt", {"nu": 2.0}, InvalidDof, "degrees of freedom must be finite and exceed 2"),
    ("gmm", {"entropy": [-1]}, ValueError, "seed must be a non-negative integer, got -1"),
    ("gmm", {"n": 3000.0}, TypeError, "node count must be an integer, got 3000.0"),
    ("mvt", {"k": 2.5}, TypeError, "sample count must be an integer, got 2.5"),
    ("gmm", {"n_components": 2.5}, TypeError,
     "mixture component count must be an integer, got 2.5"),
    ("gmm", {"density": True}, ValueError, "density must be finite and not a bool, got True"),
    ("gmm", {"density": "0.2"}, ValueError, "density must be finite and not a bool, got '0.2'"),
    ("gmm", {"rho": True}, ValueError, "diagonal shift rho must be finite and not a bool"),
    ("gmm", {"rho": "0.5"}, ValueError, "diagonal shift rho must be finite and not a bool"),
    ("gmm", {"mean_scale": True}, ValueError, "mean scale must be finite and not a bool"),
    ("gmm", {"mean_scale": "1"}, ValueError, "mean scale must be finite and not a bool"),
    ("mvt", {"nu": True}, InvalidDof, "degrees of freedom must be finite and not a bool"),
    ("mvt", {"nu": "3"}, InvalidDof, "degrees of freedom must be finite and not a bool"),
    ("gmm", {"entropy": [0, 1.5]}, TypeError, "seed must be an integer, got 1.5"),
])
def test_draw_instance_checks_before_building_the_ground_truth(monkeypatch, generator,
                                                               kwargs, error, message):
    # the (N, N) ground truth is the draw's first allocation, so a bad
    # parameter must be refused before it is built
    def no_ground_truth(*args, **kw):
        raise AssertionError("gen_ground_truth called on a draw that fails its checks")

    monkeypatch.setattr("fsgl.datagen.gen_ground_truth", no_ground_truth)
    args = {"n": 3000, "k": 1, "generator": generator, "entropy": [0],
            "density": 0.2, "rho": 0.5, "nu": 3.0, "n_components": 3,
            "mean_scale": 1.0, **kwargs}
    with pytest.raises(error, match=message):
        draw_instance(**args)


@pytest.mark.parametrize("k", ["3", None, -np.inf])
def test_a_sample_count_that_is_no_integer_is_named(k):
    # typed before it is compared: a string or None never reaches `k < 1`,
    # and only sample_count's +inf goes on to the size check
    message = re.escape(f"sample count must be an integer, got {k!r}")
    with pytest.raises(TypeError, match=message):
        draw_instance(5, k, "gmm", [0], 0.2, 0.5, 3.0, 3, 1.0)
    gt = gen_ground_truth(5, 0.2, seed=0)
    for sample in (sample_gmm, sample_mvt):
        with pytest.raises(TypeError, match=message):
            sample(gt, k)


def test_singular_precision_names_rho():
    # rho = 1e-300 vanishes against the Laplacian's diagonal, so L + rho I
    # is L itself; the error names rho, not only the LAPACK failure
    with pytest.raises(ValueError, match=r"L \+ rho I is singular at rho=1e-300"):
        draw_instance(5, 1, "gmm", [0], 0.2, 1e-300, 3.0, 3, 1.0)


def test_a_rho_lost_in_rounding_is_refused_on_every_draw():
    # rho = 1e-300 is far below the rounding of L's zero eigenvalue, so
    # inv(L + rho I) is noise (up to 2e15 where the truth is 3e298) when
    # it succeeds; check_shift refuses it whatever graph is drawn
    for seed in range(8):
        with pytest.raises(ValueError, match=r"L \+ rho I is singular at rho=1e-300"):
            gen_ground_truth(30, 0.2, 1e-300, seed)


@pytest.mark.parametrize("generator", ["gmm", "mvt"])
@pytest.mark.parametrize("n, k, density", [
    (300, 60, 0.2), (600, 120, 0.2), (1000, 200, 0.2), (600, 1, 0.2), (2, 200_000, 0.2),
    (600, 1, 0.6), (600, 1, 1.0), (300, 60, 1.0)])
def test_draw_peak_fits_its_counted_arrays(generator, n, k, density):
    # check_instance bounds DRAW_ARRAYS (N, N) and SAMPLE_ARRAYS (N, K)
    # float64 arrays and TRUTH_EDGE_ARRAYS per truth edge held at once; a draw
    # must never hold more, even where K = 1 leaves the (N, N) arrays no
    # slack from the samples, or density 1.0 builds the most edges
    draw_instance(3, 1, generator, [0], density, 0.5, 3.0, 3, 1.0)  # first-call set-up
    _, peak = traced_peak(
        lambda: draw_instance(n, k, generator, [n], density, 0.5, 3.0, 3, 1.0))
    edges = truth_edges(n, density)
    counted = DRAW_ARRAYS * n * n + TRUTH_EDGE_ARRAYS * edges + SAMPLE_ARRAYS * n * k
    assert peak <= 8 * counted + 4096, f"{peak / (8 * n * n):.2f} (N, N) arrays"


def test_ground_truth_check_counts_the_truth_edges(monkeypatch):
    # at N = 12 the five (N, N) arrays fit an 800-value ceiling with the 13
    # edges a density of 0.2 draws on average, not with density 1.0's 66
    monkeypatch.setattr("fsgl.datagen.MAX_ARRAY_BYTES", 8 * 800)
    assert truth_edges(12, 0.2) == pytest.approx(13.2) and truth_edges(12, 1.0) == 66
    assert check_ground_truth(12, 0.2, 0.5) == (12, 0.2, 0.5)
    with pytest.raises(TooLarge, match=r"^node count 12 at density 1 needs 3 float64 values "
                       r"per edge on top of 5 12 x 12 arrays, above the"):
        check_ground_truth(12, 1.0, 0.5)


def test_covariance_root_is_bitwise_the_numpy_eigh_root():
    # the root, so every drawn sample, keeps the bits of np.linalg.eigh's
    # spectrum with C-ordered eigenvectors; the covariance is left as it was
    for n in range(2, 61):
        cov = gen_ground_truth(n, 0.2, seed=n).cov
        kept = cov.copy()
        for scale in (1.0, 1.0 / 3.0):
            lam, v = np.linalg.eigh(cov * scale)
            root = (v * np.sqrt(np.clip(lam, 0.0, None))) @ v.T
            assert sym_sqrt(cov, scale).tobytes() == root.tobytes(), n
            assert cov.tobytes() == kept.tobytes(), n


def test_sample_count_at_one_fifth_is_the_integer_rule():
    # the rule fsgl gen once used for its default K, with no float in it
    ns = np.arange(1, 10**6 + 1)
    assert [sample_count(n, 0.2) for n in ns.tolist()] == np.maximum(1, (ns + 2) // 5).tolist()
    # a product no float holds is an infinite count, which the size checks refuse
    assert sample_count(10**400, 0.2) == sample_count(10, 1e308) == np.inf
    assert sample_count(3, 0.01) == 1 and sample_count(30, 1.0) == 30


def test_sample_count_refuses_a_ratio_that_is_no_finite_real():
    # True once read as the ratio 1.0, and 10**400 compared below inf
    for bad in (True, np.True_, "0.2", 10**400):
        with pytest.raises(ValueError, match="K/N ratio must be finite and not a bool"):
            sample_count(30, bad)


def test_ground_truth_checks_return_the_python_numbers_they_accept():
    # each check hands back what graph.integer and graph.real return, and
    # the size ceiling is computed from them: DRAW_ARRAYS n n wraps in int16
    assert check_ground_truth(np.int16(12), np.float32(0.25), np.int8(1)) == (12, 0.25, 1.0)
    assert [type(v) for v in check_ground_truth(np.int16(12), np.float32(0.25),
                                                np.int8(1))] == [int, float, float]
    for n in (20000, np.int16(20000)):
        with pytest.raises(TooLarge, match=f"node count 20000 needs {DRAW_ARRAYS} 20000 x 20000"):
            check_ground_truth(n, 0.2, 0.5)
    assert type(check_samples(12, np.int32(5), 0)) is int
    with pytest.raises(TooLarge, match="sample count 1 at node count 20000"):
        check_samples(np.int16(20000), 1, 0)
    assert check_gmm(np.uint8(3), np.float32(0.5)) == (3, 0.5)
    assert [type(v) for v in check_gmm(np.uint8(3), np.float32(0.5))] == [int, float]
    assert type(check_dof(np.int64(3))) is float
