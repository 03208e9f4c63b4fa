"""Properties of the scoring kernels: the retain rule, the nearest-mean search
and the concentration step built on them."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import exact_classification, exact_scores

import fdcluster.mixtures as mixtures
from fdcluster.mixtures import (MeanModel, _sq_distances, chosen_sq_distances,
                                nearest_search)
from fdcluster.tclust import (ClusterFit, TrimSpec, _retain, allocate_all, tclust_objective,
                              tclust_step)

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
    labels = nearest_search(U, M[None])[0][0]
    dist = chosen_sq_distances(U, M, labels)
    ref_labels, ref_dist = _reference(U, M)
    np.testing.assert_array_equal(labels, ref_labels)
    np.testing.assert_array_equal(dist, ref_dist)
    # allocate_all on the finalized model: the sorted means' own argmin
    fit = ClusterFit(MeanModel(M).finalized(), objective=0.0, iterations=0,
                     restart_index=0)
    labels, trimmed = allocate_all(U, fit, TrimSpec(0.0))
    np.testing.assert_array_equal(labels, _reference(U, fit.model.means)[0] + 1)
    assert not trimmed.any()


@SETTINGS
@given(grid_data(), st.sampled_from([0.0, 0.25, 0.5]))
def test_step_means_match_per_cluster_mean(case, alpha):
    U, M = case
    trim = TrimSpec(alpha)
    assume(trim.retained_count(U.shape[0]) >= M.shape[0])
    h = trim.retained_count(U.shape[0])
    updated, (kept,), (kept_labels,) = tclust_step(U, MeanModel(M[None]), h)
    for c in range(M.shape[0]):
        members = kept[kept_labels == c + 1]
        if members.size:
            np.testing.assert_array_equal(updated.means[0, c], U[members].mean(axis=0))


@pytest.mark.parametrize("rows", [1, 7, 1 << 12])
def test_nearest_mean_does_not_depend_on_block_size(monkeypatch, rows):
    rng = np.random.default_rng(0)
    U = np.round(rng.normal(size=(300, 5)), 1) + 1e3
    M = np.round(rng.normal(size=(4, 5)), 1) + 1e3
    expected = _reference(U, M)
    monkeypatch.setattr(mixtures, "_NEAREST_ROWS", rows)
    labels = nearest_search(U, M[None])[0][0]
    dist = chosen_sq_distances(U, M, labels)
    np.testing.assert_array_equal(labels, expected[0])
    np.testing.assert_array_equal(dist, expected[1])


@pytest.mark.parametrize("scores", [1, 37, 1 << 16])
def test_stacked_search_does_not_depend_on_block_size(monkeypatch, scores):
    rng = np.random.default_rng(1)
    U = np.round(rng.normal(size=(300, 5)), 1) + 1e3
    sets = np.round(rng.normal(size=(3, 4, 5)), 1) + 1e3
    sets[1] = sets[0]
    monkeypatch.setattr(mixtures, "_BLOCK_SCORES", scores)
    labels, est, bound = nearest_search(U, sets)
    for r, means in enumerate(sets):
        ref_labels, ref_dist = _reference(U, means)
        np.testing.assert_array_equal(labels[r], ref_labels)
        assert np.all(np.abs(est[r] - ref_dist) <= bound[r])


def test_exact_tie_goes_to_lower_index():
    M = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    U = np.array([[0.0, 0.0], [0.0, -5.0], [5.0, 5.0]])
    labels = nearest_search(U, M[None])[0][0]
    dist = chosen_sq_distances(U, M, labels)
    np.testing.assert_array_equal(labels, [0, 0, 0])
    np.testing.assert_array_equal(dist, [1.0, 26.0, 41.0])


@SETTINGS
@given(grid_data())
def test_search_estimate_is_within_its_bound(case):
    U, M = case
    (labels,), (est,), (bound,) = nearest_search(U, M[None])
    ref_labels, ref_dist = _reference(U, M)
    np.testing.assert_array_equal(labels, ref_labels)
    assert np.all(np.abs(est - ref_dist) <= bound)


@st.composite
def step_cases(draw):
    """A concentration step's inputs with exact ties and empty clusters.

    Rows on a 0.1 grid (optionally offset by 1e3, where the product-form
    estimate carries cancellation error) or small integers; some rows are
    duplicated, so whole groups tie at the retain cut; a mean may repeat an
    earlier one (it never wins a tie) or sit far away, leaving its cluster
    empty.
    """
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 5))
    k = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["grid", "offset", "integers"]))
    if kind == "integers":
        values = st.integers(-3, 3).map(float)
    else:
        values = st.integers(-20, 20).map(lambda v: v / 10)
    U = draw(hnp.arrays(np.float64, (n, d), elements=values))
    M = draw(hnp.arrays(np.float64, (k, d), elements=values))
    copies = draw(st.lists(st.integers(0, n - 1), max_size=n))
    U = np.vstack([U, U[copies]]) if copies else U
    extra = draw(st.sampled_from(["none", "repeat", "far"]))
    if extra == "repeat":
        M = np.vstack([M, M[:1]])
    elif extra == "far":
        M = np.vstack([M, np.full((1, d), 1e4)])
    if kind == "offset":
        U, M = U + 1e3, M + 1e3
    alpha = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5]))
    scale = draw(st.sampled_from([1.0, 0.37, 1e-3]))
    return U, M, TrimSpec(alpha), scale


def _reference_step(U, M, trim, scale):
    """The step from exact scores of every row (`exact_scores`), `_retain`,
    per-cluster `mean(axis=0)`, and empty clusters reseeded at the
    worst-scoring retained rows."""
    model = MeanModel(M, scale)
    k = M.shape[0]
    labels, scores = exact_scores(U, model)
    h = trim.retained_count(U.shape[0])
    kept = _retain(scores, h)
    kept_labels = labels[kept]
    means = np.empty_like(M)
    empty = []
    for c in range(k):
        members = kept[kept_labels == c]
        if members.size:
            means[c] = U[members].mean(axis=0)
        else:
            empty.append(c)
    worst_first = kept[np.argsort(scores[kept], kind="stable")]
    for slot, c in enumerate(empty):
        means[c] = U[worst_first[slot % h]]
    return means, kept, kept_labels + 1


@settings(max_examples=400, deadline=None)
@given(step_cases())
# rows 0/2 and 1/3 are equidistant from the mean (swapped coordinates), and
# their estimates differ in the last bits: the retain cut falls in a tie
@example((np.array([[998.6, 999.2], [998.7, 1000.9], [999.2, 998.6],
                    [1000.9, 998.7], [1001.4, 1000.8], [1001.6, 1001.7]]),
          np.array([[1000.0, 1000.0]]), TrimSpec(0.5), 1.0))
def test_step_matches_the_exact_reference(case):
    U, M, trim, scale = case
    assume(trim.retained_count(U.shape[0]) >= M.shape[0])
    model, (kept,), (kept_labels,) = tclust_step(U, MeanModel(M[None], scale),
                                                 trim.retained_count(U.shape[0]))
    means, ref_kept, ref_labels = _reference_step(U, M, trim, scale)
    np.testing.assert_array_equal(kept, ref_kept)
    np.testing.assert_array_equal(kept_labels, ref_labels)
    np.testing.assert_array_equal(model.means[0], means)


@settings(max_examples=400, deadline=None)
@given(step_cases())
# the cut tie of test_step_matches_the_exact_reference
@example((np.array([[998.6, 999.2], [998.7, 1000.9], [999.2, 998.6],
                    [1000.9, 998.7], [1001.4, 1000.8], [1001.6, 1001.7]]),
          np.array([[1000.0, 1000.0]]), TrimSpec(0.5), 1.0))
def test_allocation_matches_the_exact_reference(case):
    U, M, trim, scale = case
    model = MeanModel(M, scale)
    labels, trimmed, objective = exact_classification(U, model, trim.retained_count(U.shape[0]))
    fit = ClusterFit(model, objective=0.0, iterations=0, restart_index=0)
    got_labels, got_trimmed = allocate_all(U, fit, trim)
    assert got_labels.dtype == labels.dtype
    np.testing.assert_array_equal(got_labels, labels)
    np.testing.assert_array_equal(got_trimmed, trimmed)
    assert tclust_objective(U, model, trim) == objective


@st.composite
def mean_sets(draw, M):
    """R mean sets of M's shape: M itself (exact ties between sets), a row
    permutation of it, or it shifted along the 0.1 grid."""
    sets = [M]
    for kind in draw(st.lists(st.sampled_from(["same", "permute", "shift"]), max_size=4)):
        if kind == "same":
            sets.append(M.copy())
        elif kind == "permute":
            sets.append(M[draw(st.permutations(range(M.shape[0])))])
        else:
            sets.append(M + draw(st.integers(-5, 5)) / 10)
    return np.stack(sets)


@SETTINGS
@given(st.data(), grid_data())
def test_stacked_search_matches_each_sets_exact_argmin(data, case):
    U, M = case
    sets = data.draw(mean_sets(M))
    labels, est, bound = nearest_search(U, sets)
    assert labels.shape == est.shape == (sets.shape[0], U.shape[0])
    for r, means in enumerate(sets):
        ref_labels, ref_dist = _reference(U, means)
        np.testing.assert_array_equal(labels[r], ref_labels)
        assert np.all(np.abs(est[r] - ref_dist) <= bound[r])
        # a one-model stack gets the labels it gets inside the full stack
        np.testing.assert_array_equal(nearest_search(U, sets[r:r + 1])[0][0], labels[r])


@settings(max_examples=300, deadline=None)
@given(st.data(), step_cases())
def test_batched_step_matches_each_restarts_exact_reference(data, case):
    U, M, trim, scale = case
    h = trim.retained_count(U.shape[0])
    assume(h >= M.shape[0])
    sets = data.draw(mean_sets(M))
    model, kept, kept_labels = tclust_step(U, MeanModel(sets, scale), h)
    assert kept.shape == kept_labels.shape == (sets.shape[0], h)
    for r, means in enumerate(sets):
        ref_means, ref_kept, ref_labels = _reference_step(U, means, trim, scale)
        np.testing.assert_array_equal(kept[r], ref_kept)
        np.testing.assert_array_equal(kept_labels[r], ref_labels)
        np.testing.assert_array_equal(model.means[r], ref_means)
