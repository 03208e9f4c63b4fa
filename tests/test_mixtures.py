import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fdcluster
import fdcluster.mixtures as mixtures
from fdcluster.mixtures import (GmmParams, MeanModel, bayes_allocate,
                                component_log_densities, gaussian_log_density,
                                mixture_log_density, nearest_search, row_logsumexp,
                                spherical_log_likelihood)
from fdcluster.simstudy import fit_gmm_em

LOG_2PI = math.log(2 * math.pi)


def normal_logpdf(x, mean, var):
    return -0.5 * math.log(2 * math.pi * var) - 0.5 * (x - mean) ** 2 / var


class TestGaussianLogDensity:
    def test_at_mean_identity_covariance(self):
        d = 7
        mu = np.random.default_rng(0).normal(size=d)
        assert gaussian_log_density(mu, mu, np.eye(d)) == pytest.approx(-d / 2 * LOG_2PI)

    def test_scalar_standard_normal_at_one(self):
        val = gaussian_log_density(np.array([1.0]), np.array([0.0]), np.array([[1.0]]))
        assert val == pytest.approx(-0.5 * LOG_2PI - 0.5)

    def test_diagonal_case_matches_closed_form(self):
        # oracle: product of univariate normal densities
        b = np.array([2.0, 0.0])
        mu = np.zeros(2)
        V = np.diag([4.0, 1.0])
        oracle = normal_logpdf(2.0, 0.0, 4.0) + normal_logpdf(0.0, 0.0, 1.0)
        assert gaussian_log_density(b, mu, V) == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(-LOG_2PI - 0.5 * math.log(4.0) - 0.5)

    def test_general_covariance_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(4, 4))
        V = A @ A.T + 4 * np.eye(4)
        b = rng.normal(size=4)
        mu = rng.normal(size=4)
        diff = b - mu
        oracle = -0.5 * (4 * LOG_2PI + np.log(np.linalg.det(V))
                         + diff @ np.linalg.solve(V, diff))
        assert gaussian_log_density(b, mu, V) == pytest.approx(oracle, abs=1e-10)

    def test_non_positive_definite_rejected(self):
        with pytest.raises(ValueError):
            gaussian_log_density(np.zeros(2), np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


    def test_stack_names_its_first_non_positive_definite_covariance(self):
        covs = np.stack([np.eye(2), [[1.0, 2.0], [2.0, 1.0]], -np.eye(2)])
        params = GmmParams(np.full(3, 1 / 3), np.zeros((3, 2)), covs)
        with pytest.raises(ValueError, match="covariance 1 is not positive definite"):
            component_log_densities(np.zeros((4, 2)), params)


@st.composite
def score_rows(draw):
    """(n, k) log-scores with exact ties (a few shared values), -inf entries,
    whole -inf rows and magnitudes up to 1e300."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 20))
    wide = st.floats(-1e300, 1e300, allow_nan=False)
    shared = draw(st.lists(st.one_of(wide, st.floats(-50, 50)), min_size=1, max_size=3))
    values = st.one_of(st.sampled_from(shared), st.floats(-800, 800), wide,
                       st.just(-np.inf))
    a = draw(hnp.arrays(np.float64, (n, k), elements=values))
    a[draw(st.lists(st.integers(0, n - 1), max_size=2))] = -np.inf
    return a


@settings(max_examples=300, deadline=None)
@given(score_rows())
def test_row_logsumexp_is_scipys_bit_for_bit(a):
    expected = scipy.special.logsumexp(a, axis=1)
    np.testing.assert_array_equal(row_logsumexp(a).view(np.int64), expected.view(np.int64))


def test_importing_the_cli_leaves_scipy_special_unloaded():
    src = str(Path(fdcluster.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, fdcluster.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.special')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


class TestMixtureLogDensity:
    def test_single_component_equals_gaussian(self):
        rng = np.random.default_rng(2)
        mu = rng.normal(size=3)
        params = GmmParams([1.0], [mu], [np.eye(3)])
        b = rng.normal(size=3)
        assert mixture_log_density(b, params) == pytest.approx(
            gaussian_log_density(b, mu, np.eye(3)), abs=1e-12)

    def test_duplicate_components_collapse(self):
        mu = np.array([0.5, -0.5])
        params = GmmParams([0.5, 0.5], [mu, mu], [np.eye(2), np.eye(2)])
        b = np.array([1.0, 1.0])
        assert mixture_log_density(b, params) == pytest.approx(
            gaussian_log_density(b, mu, np.eye(2)), abs=1e-12)

    def test_scalar_two_component_oracle(self):
        # oracle: direct summation of the scalar mixture
        params = GmmParams([0.3, 0.7], [[0.0], [3.0]], [[[1.0]], [[1.0]]])
        b = np.array([1.0])
        oracle = math.log(0.3 * math.exp(normal_logpdf(1, 0, 1))
                          + 0.7 * math.exp(normal_logpdf(1, 3, 1)))
        assert mixture_log_density(b, params) == pytest.approx(oracle, abs=1e-12)

    def test_finite_even_for_distant_points(self):
        params = GmmParams([0.5, 0.5], [[0.0], [1.0]], [[[1.0]], [[1.0]]])
        assert np.isfinite(mixture_log_density(np.array([1e4]), params))

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            GmmParams([0.5, 0.6], [[0.0], [1.0]], [[[1.0]], [[1.0]]])


class TestSphericalLogLikelihood:
    def test_single_point_at_mean(self):
        d = 5
        model = MeanModel(np.zeros((1, d)), scale=1.0)
        value = spherical_log_likelihood(np.zeros((1, d)), model)
        assert value == pytest.approx(-d / 2 * LOG_2PI)

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        U = rng.normal(size=(20, 4))
        means = rng.normal(size=(3, 4))
        shift = rng.normal(size=4)
        a = spherical_log_likelihood(U, MeanModel(means))
        b = spherical_log_likelihood(U + shift, MeanModel(means + shift))
        assert b == pytest.approx(a, abs=1e-9)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(4)
        U = rng.normal(size=(3, 2))
        means = rng.normal(size=(2, 2))
        lam = 0.7
        # oracle: brute-force double summation
        total = 0.0
        for i in range(3):
            acc = 0.0
            for c in range(2):
                diff = U[i] - means[c]
                acc += 0.5 * (2 * math.pi * lam) ** -1 * math.exp(-diff @ diff / (2 * lam))
            total += math.log(acc)
        value = spherical_log_likelihood(U, MeanModel(means, scale=lam))
        assert value == pytest.approx(total, abs=1e-10)

    def test_invariant_under_component_permutation(self):
        rng = np.random.default_rng(5)
        U = rng.normal(size=(15, 3))
        means = rng.normal(size=(4, 3))
        a = spherical_log_likelihood(U, MeanModel(means))
        b = spherical_log_likelihood(U, MeanModel(means[::-1].copy()))
        assert b == pytest.approx(a, abs=1e-10)


@st.composite
def points_and_model(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    coords = st.floats(-50, 50, allow_nan=False)
    U = draw(hnp.arrays(np.float64, (n, d), elements=coords))
    means = draw(hnp.arrays(np.float64, (k, d), elements=coords))
    scale = draw(st.floats(0.05, 20.0))
    return U, MeanModel(means, scale)


@settings(max_examples=150, deadline=None)
@given(points_and_model())
def test_log_likelihood_is_the_exact_sum_of_fixed_row_blocks(case):
    """For block sizes 1, 7 and the default the total is the same bits: the
    exactly rounded sum (math.fsum) of the single-row log-likelihoods."""
    U, model = case
    rows = [spherical_log_likelihood(U[i:i + 1], model) for i in range(U.shape[0])]
    totals = []
    for rows_per_block in (1, 7, mixtures._NEAREST_ROWS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mixtures, "_NEAREST_ROWS", rows_per_block)
            totals.append(spherical_log_likelihood(U, model))
    assert totals == [math.fsum(rows)] * 3


class TestAllocation:
    def test_bayes_reduces_to_kmeans_under_spherical_equal_weights(self):
        rng = np.random.default_rng(6)
        means = rng.normal(size=(4, 3))
        B = rng.normal(size=(200, 3))
        model = MeanModel(means)
        for lam in (0.5, 1.0, 4.0):
            params = GmmParams(np.full(4, 0.25), means,
                               np.broadcast_to(lam * np.eye(3), (4, 3, 3)).copy())
            np.testing.assert_array_equal(bayes_allocate(B, params),
                                          nearest_search(B, model.means)[0] + 1)

    def test_point_at_mean_goes_to_that_cluster(self):
        means = np.array([[0.0, 0.0], [4.0, 4.0], [-3.0, 5.0]])
        params = GmmParams(np.full(3, 1 / 3), means,
                           np.broadcast_to(np.eye(2), (3, 2, 2)).copy())
        for c in range(3):
            assert bayes_allocate(means[c], params) == c + 1

    def test_prior_overrides_nearer_mean(self):
        # posterior odds 9 * exp(-(1.2^2 - 0.8^2)/2) > 1 favor cluster 1
        params = GmmParams([0.9, 0.1], [[0.0], [2.0]], [[[1.0]], [[1.0]]])
        assert bayes_allocate(np.array([1.2]), params) == 1

    def test_weight_rescaling_invariance(self):
        rng = np.random.default_rng(7)
        means = rng.normal(size=(3, 2))
        covs = np.broadcast_to(np.eye(2), (3, 2, 2)).copy()
        w = np.array([0.2, 0.3, 0.5])
        B = rng.normal(size=(50, 2))
        base = bayes_allocate(B, GmmParams(w, means, covs))
        again = bayes_allocate(B, GmmParams((7.0 * w) / (7.0 * w).sum(), means, covs))
        np.testing.assert_array_equal(base, again)

    def test_kmeans_at_mean(self):
        means = np.array([[0.0], [5.0], [9.0]])
        model = MeanModel(means)
        assert nearest_search(np.array([[5.0]]), model.means)[0][0] == 1

    def test_kmeans_tie_breaks_low(self):
        model = MeanModel(np.array([[0.0], [2.0]]))
        assert nearest_search(np.array([[1.0]]), model.means)[0][0] == 0

    def test_kmeans_matches_exhaustive_argmin(self):
        rng = np.random.default_rng(8)
        means = rng.normal(size=(5, 3))
        model = MeanModel(means)
        B = rng.normal(size=(100, 3))
        got = nearest_search(B, model.means)[0]
        for i in range(100):
            dists = [np.sum((B[i] - mu) ** 2) for mu in means]
            assert got[i] == int(np.argmin(dists))


class TestFitGmmEm:
    def test_k1_closed_form(self):
        rng = np.random.default_rng(9)
        U = rng.normal(size=(300, 3)) * 2 + 1
        ridge = 1e-6
        params = fit_gmm_em(U, 1, seed=0, ridge=ridge)
        np.testing.assert_allclose(params.means[0], U.mean(axis=0), atol=1e-8)
        expected_cov = np.cov(U, rowvar=False, bias=True) + ridge * np.eye(3)
        np.testing.assert_allclose(params.covariances[0], expected_cov, atol=1e-8)
        assert params.weights[0] == 1.0

    def test_loglik_nondecreasing(self):
        rng = np.random.default_rng(10)
        U = np.vstack([rng.normal(-2, 1, (100, 2)), rng.normal(2, 1, (100, 2))])
        _, hist = fit_gmm_em(U, 3, seed=1, full_output=True)
        assert np.all(np.diff(hist) >= -1e-8 * (1 + np.abs(hist[:-1])))

    def test_recovers_two_separated_gaussians(self):
        rng = np.random.default_rng(11)
        U = np.vstack([rng.normal(-5, 1, (400, 2)), rng.normal(5, 1, (400, 2))])
        params = fit_gmm_em(U, 2, seed=2)
        means = params.means[np.argsort(params.means[:, 0])]
        assert np.abs(means[0] - (-5)).max() < 0.1
        assert np.abs(means[1] - 5).max() < 0.1
        assert np.abs(params.weights - 0.5).max() < 0.05

    def test_k_not_less_than_n_rejected(self):
        with pytest.raises(ValueError):
            fit_gmm_em(np.zeros((3, 2)) + np.arange(3)[:, None], 3)

    def test_identical_data_rejected(self):
        with pytest.raises(ValueError):
            fit_gmm_em(np.ones((10, 2)), 2)


class TestMeanModel:
    def test_finalized_sorts_lexicographically(self):
        means = np.array([[1.0, 0.0], [0.0, 5.0], [0.0, -1.0]])
        model = MeanModel(means, scale=2.0).finalized()
        np.testing.assert_array_equal(model.means,
                                      [[0.0, -1.0], [0.0, 5.0], [1.0, 0.0]])
        assert model.scale == 2.0

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            MeanModel(np.zeros((1, 2)), scale=0.0)
