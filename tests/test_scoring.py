"""Properties of the scoring kernels: the retain rule and the nearest-mean search."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fdcluster.mixtures as mixtures
from fdcluster.mixtures import MeanModel, _sq_distances, nearest_mean
from fdcluster.tclust import TrimSpec, _retain, tclust_step

SETTINGS = settings(max_examples=200, deadline=None)


@st.composite
def tie_heavy_scores(draw):
    n = draw(st.integers(1, 60))
    scores = draw(hnp.arrays(np.float64, n, elements=st.integers(-3, 3).map(float)))
    h = draw(st.integers(1, n))
    return scores, h


@SETTINGS
@given(tie_heavy_scores())
def test_retain_matches_stable_sort(case):
    scores, h = case
    expected = np.sort(np.argsort(-scores, kind="stable")[:h])
    np.testing.assert_array_equal(_retain(scores, h), expected)


@st.composite
def grid_data(draw):
    """Points and means on a 0.1 grid (many exact ties), optionally offset.

    0.1 steps are inexact in binary, and far from the origin the product
    form loses digits to cancellation, so its near-ties need the exact
    recheck.
    """
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 6))
    k = draw(st.integers(1, 6))
    grid = st.integers(-20, 20).map(lambda v: v / 10)
    U = draw(hnp.arrays(np.float64, (n, d), elements=grid))
    M = draw(hnp.arrays(np.float64, (k, d), elements=grid))
    offset = draw(st.sampled_from([0.0, 1e3]))
    return U + offset, M + offset


def _reference(U, M):
    d2 = _sq_distances(U, M)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(U.shape[0]), labels]


@SETTINGS
@given(grid_data())
def test_nearest_mean_matches_exact_argmin(case):
    U, M = case
    labels, dist = nearest_mean(U, M)
    ref_labels, ref_dist = _reference(U, M)
    np.testing.assert_array_equal(labels, ref_labels)
    np.testing.assert_array_equal(dist, ref_dist)


@SETTINGS
@given(grid_data(), st.sampled_from([0.0, 0.25, 0.5]))
def test_step_means_match_per_cluster_mean(case, alpha):
    U, M = case
    trim = TrimSpec(alpha)
    assume(trim.retained_count(U.shape[0]) >= M.shape[0])
    updated, kept, kept_labels = tclust_step(U, MeanModel(M), trim)
    for c in range(M.shape[0]):
        members = kept[kept_labels == c + 1]
        if members.size:
            np.testing.assert_array_equal(updated.means[c], U[members].mean(axis=0))


@pytest.mark.parametrize("rows", [1, 7, 1 << 12])
def test_nearest_mean_does_not_depend_on_block_size(monkeypatch, rows):
    rng = np.random.default_rng(0)
    U = np.round(rng.normal(size=(300, 5)), 1) + 1e3
    M = np.round(rng.normal(size=(4, 5)), 1) + 1e3
    expected = _reference(U, M)
    monkeypatch.setattr(mixtures, "_NEAREST_ROWS", rows)
    labels, dist = nearest_mean(U, M)
    np.testing.assert_array_equal(labels, expected[0])
    np.testing.assert_array_equal(dist, expected[1])


def test_exact_tie_goes_to_lower_index():
    M = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    U = np.array([[0.0, 0.0], [0.0, -5.0], [5.0, 5.0]])
    labels, dist = nearest_mean(U, M)
    np.testing.assert_array_equal(labels, [0, 0, 0])
    np.testing.assert_array_equal(dist, [1.0, 26.0, 41.0])
