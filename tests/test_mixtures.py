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
from fdcluster.mixtures import (MeanModel, nearest_search, row_logsumexp,
                                spherical_log_likelihood)
from fdcluster.simstudy import fit_gmm_em

LOG_2PI = math.log(2 * math.pi)


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
    def test_kmeans_at_mean(self):
        means = np.array([[0.0], [5.0], [9.0]])
        model = MeanModel(means)
        assert nearest_search(np.array([[5.0]]), model.means[None])[0][0, 0] == 1

    def test_kmeans_tie_breaks_low(self):
        model = MeanModel(np.array([[0.0], [2.0]]))
        assert nearest_search(np.array([[1.0]]), model.means[None])[0][0, 0] == 0

    def test_kmeans_matches_exhaustive_argmin(self):
        rng = np.random.default_rng(8)
        means = rng.normal(size=(5, 3))
        model = MeanModel(means)
        B = rng.normal(size=(100, 3))
        got = nearest_search(B, model.means[None])[0][0]
        for i in range(100):
            dists = [np.sum((B[i] - mu) ** 2) for mu in means]
            assert got[i] == int(np.argmin(dists))


class TestFitGmmEm:
    def test_k1_closed_form(self):
        rng = np.random.default_rng(9)
        U = rng.normal(size=(300, 3)) * 2 + 1
        # the documented ridge: 1e-6 times the mean pooled variance
        ridge = 1e-6 * np.mean(np.diag(np.cov(U, rowvar=False, bias=True)))
        params, _ = fit_gmm_em(U, 1, seed=0)
        np.testing.assert_allclose(params.means[0], U.mean(axis=0), atol=1e-8)
        expected_cov = np.cov(U, rowvar=False, bias=True) + ridge * np.eye(3)
        np.testing.assert_allclose(params.covariances[0], expected_cov, atol=1e-8)
        assert params.weights[0] == 1.0

    def test_loglik_nondecreasing(self):
        rng = np.random.default_rng(10)
        U = np.vstack([rng.normal(-2, 1, (100, 2)), rng.normal(2, 1, (100, 2))])
        _, hist = fit_gmm_em(U, 3, seed=1)
        assert np.all(np.diff(hist) >= -1e-8 * (1 + np.abs(hist[:-1])))

    def test_recovers_two_separated_gaussians(self):
        rng = np.random.default_rng(11)
        U = np.vstack([rng.normal(-5, 1, (400, 2)), rng.normal(5, 1, (400, 2))])
        params, _ = fit_gmm_em(U, 2, seed=2)
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

    def test_log_scores_are_the_weighted_spherical_log_densities(self):
        # oracle: log of (1/k) (2 pi scale)^(-d/2) exp(-d2 / (2 scale))
        model = MeanModel(np.zeros((4, 3)), scale=0.7)
        d2 = np.array([0.0, 0.5, 12.0])
        oracle = [math.log(0.25 * (2 * math.pi * 0.7) ** -1.5 * math.exp(-x / 1.4))
                  for x in d2]
        np.testing.assert_allclose(model.log_scores(d2), oracle, rtol=1e-14)
        assert model.log_scores(np.zeros(1))[0] == model.log_score_const

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            MeanModel(np.zeros((1, 2)), scale=0.0)
