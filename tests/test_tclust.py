import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (brute_objective, exact_classification, exhaustive_optimum,
                     reference_lloyd)

import fdcluster.tclust as tclust
from fdcluster.mixtures import MeanModel, chosen_sq_distances, nearest_search
from fdcluster.tclust import (ClusterFit, TrimSpec, allocate_all, tclust_objective,
                              tclust_step, trimmed_kmeans)

LOG_2PI = math.log(2 * math.pi)


# --- TrimSpec ----------------------------------------------------------------

class TestTrimSpec:
    def test_retained_counts(self):
        assert TrimSpec(0.0).retained_count(10) == 10
        assert TrimSpec(0.25).retained_count(4) == 3
        assert TrimSpec(0.5).retained_count(5) == 2

    def test_float_dust_snaps_to_intended_integer(self):
        # 10 * (1 - 0.9) = 0.9999999999999998 in floats; the rule means 1
        assert TrimSpec(0.9).retained_count(10) == 1
        assert TrimSpec(0.9).retained_count(100) == 10
        assert TrimSpec(0.9).retained_count(1785000) == 178500

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            TrimSpec(1.0)
        with pytest.raises(ValueError):
            TrimSpec(-0.1)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 9999), st.integers(0, 10 ** 7))
    @example(10, 1_800_001)          # a float-dust snap kept 1798201
    def test_retained_count_is_the_exact_floor(self, digits, n):
        # decimal alphas of up to 4 digits, the rule written in exact
        # arithmetic on the decimal
        alpha = digits / 10 ** 4
        expected = math.floor(n * (1 - Fraction(digits, 10 ** 4)))
        assert TrimSpec(alpha).retained_count(n) == expected


# --- tclust_objective --------------------------------------------------------

class TestObjective:
    def test_untrimmed_single_cluster_matches_brute(self):
        rng = np.random.default_rng(1)
        U = rng.normal(size=(12, 3))
        model = MeanModel(U.mean(axis=0, keepdims=True))
        mine = tclust_objective(U, model, TrimSpec(0.0))
        assert mine == pytest.approx(brute_objective(U, model.means, 0.0), abs=1e-10)

    def test_floor_rule_keeps_three_of_four(self):
        U = np.array([[0.0], [1.0], [2.0], [100.0]])
        model = MeanModel(np.array([[1.0]]))
        mine = tclust_objective(U, model, TrimSpec(0.25))
        assert mine == pytest.approx(brute_objective(U, model.means, 0.25), abs=1e-12)
        # the far point is the single trimmed one: value matches 3-point sum
        kept = [-0.5 * LOG_2PI - (u - 1.0) ** 2 / 2 for u in (0.0, 1.0, 2.0)]
        assert mine == pytest.approx(sum(kept) / 4, abs=1e-12)

    def test_far_outlier_does_not_move_trimmed_objective(self):
        rng = np.random.default_rng(2)
        U = rng.normal(size=(9, 2))
        model = MeanModel(np.zeros((1, 2)))
        base = tclust_objective(U, model, TrimSpec(0.1))      # keeps 8 of 9
        spiked = np.vstack([U, [1e6, 1e6]])
        spiked_obj = tclust_objective(spiked, model, TrimSpec(0.2))  # keeps 8 of 10
        assert spiked_obj * 10 == pytest.approx(base * 9, abs=1e-9)

    def test_trim_everything_rejected(self):
        with pytest.raises(ValueError):
            tclust_objective(np.zeros((1, 1)), MeanModel(np.zeros((1, 1))),
                             TrimSpec(0.99))
        fit = ClusterFit(MeanModel(np.zeros((1, 2))), objective=0.0, iterations=1,
                         restart_index=0)
        with pytest.raises(ValueError, match="trim level leaves no points"):
            allocate_all(np.zeros((1, 2)), fit, TrimSpec(0.5))


# --- tclust_step -------------------------------------------------------------

class TestStep:
    def test_fixed_point_at_group_centroids(self):
        rng = np.random.default_rng(3)
        a = rng.normal(-10, 0.5, (20, 2))
        b = rng.normal(10, 0.5, (20, 2))
        U = np.vstack([a, b])
        centroids = np.vstack([a.mean(axis=0), b.mean(axis=0)])
        updated, kept, _ = tclust_step(U, MeanModel(centroids[None]), 40)
        np.testing.assert_allclose(updated.means[0], centroids, atol=1e-12)
        assert kept.size == 40

    def test_single_cluster_moves_to_grand_mean(self):
        rng = np.random.default_rng(4)
        U = rng.normal(size=(15, 3))
        updated, _, _ = tclust_step(U, MeanModel(rng.normal(size=(1, 1, 3))), 15)
        np.testing.assert_allclose(updated.means[0, 0], U.mean(axis=0), atol=1e-12)

    def test_outlier_trimmed_and_centroids_recovered(self):
        # n=5, one extreme outlier, alpha=0.2 trims exactly one point;
        # oracle: enumerate all 4-subsets and assignments
        U = np.array([[0.0, 0.0], [0.2, 0.0], [5.0, 5.0], [5.2, 5.0], [80.0, -40.0]])
        trim = TrimSpec(0.2)
        model = MeanModel(np.array([[[0.0, 0.0], [5.0, 5.0]]]))
        step, kept, _ = tclust_step(U, model, trim.retained_count(5))
        updated = MeanModel(step.means[0])
        assert 4 not in kept
        np.testing.assert_allclose(
            updated.means, [[0.1, 0.0], [5.1, 5.0]], atol=1e-12)
        assert tclust_objective(U, updated, trim) == pytest.approx(
            exhaustive_optimum(U, 2, 0.2), abs=1e-9)

    def test_objective_monotone_along_iterations(self):
        rng = np.random.default_rng(5)
        U = np.vstack([rng.normal(-3, 1, (30, 2)), rng.normal(3, 1, (30, 2))])
        trim = TrimSpec(0.25)
        model = MeanModel(U[rng.choice(60, 2, replace=False)])
        prev = tclust_objective(U, model, trim)
        for _ in range(10):
            step, _, _ = tclust_step(U, MeanModel(model.means[None]), trim.retained_count(60))
            model = MeanModel(step.means[0])
            objective = tclust_objective(U, model, trim)
            assert objective >= prev - 1e-10
            prev = objective

    def test_h_below_k_rejected(self):
        with pytest.raises(ValueError):
            tclust_step(np.zeros((4, 1)), MeanModel(np.zeros((1, 3, 1))), 2)


# --- trimmed_kmeans ----------------------------------------------------------

class TestTrimmedKmeans:
    def test_k1_returns_grand_mean(self):
        rng = np.random.default_rng(6)
        U = rng.normal(size=(25, 2))
        fit = trimmed_kmeans(U, 1, TrimSpec(0.0), restarts=3, seed=0)
        np.testing.assert_allclose(fit.model.means[0], U.mean(axis=0), atol=1e-12)
        assert fit.objective == pytest.approx(
            tclust_objective(U, fit.model, TrimSpec(0.0)), abs=1e-12)

    def test_recovers_separated_centers_under_any_seed(self):
        rng = np.random.default_rng(7)
        centers = np.array([[-5.0] * 3, [5.0] * 3])
        U = np.vstack([c + rng.normal(0, 1, (250, 3)) for c in centers])
        for seed in (0, 1, 99):
            fit = trimmed_kmeans(U, 2, TrimSpec(0.0), restarts=5, seed=seed)
            got = fit.model.means[np.argsort(fit.model.means[:, 0])]
            assert np.abs(got - centers).max() < 0.2

    def test_alpha0_matches_reference_lloyd(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            U = rng.normal(size=(120, 2)) + rng.integers(0, 3, 120)[:, None] * 4.0
            # the draw keeps the later trials' fixtures; the fit starts from
            # its documented stream, restart 0 of seed `trial`
            rng.choice(120, 3, replace=False)
            fit = trimmed_kmeans(U, 3, TrimSpec(0.0), restarts=1, seed=trial)
            start_rng = np.random.default_rng(np.random.SeedSequence(trial, spawn_key=(0,)))
            ref_labels, ref_means = reference_lloyd(U, U[start_rng.choice(120, 3, replace=False)])
            order = np.lexsort(ref_means.T[::-1])
            relabel = np.empty(3, dtype=int)
            relabel[order] = np.arange(3)
            labels = allocate_all(U, fit, TrimSpec(0.0))[0]
            np.testing.assert_array_equal(labels, relabel[ref_labels - 1] + 1)

    def test_trim_count_exact(self):
        rng = np.random.default_rng(9)
        U = rng.normal(size=(101, 2))
        for alpha in (0.0, 0.1, 0.25, 0.5, 0.9):
            fit = trimmed_kmeans(U, 2, TrimSpec(alpha), restarts=2, seed=3)
            h = TrimSpec(alpha).retained_count(101)
            assert int(allocate_all(U, fit, TrimSpec(alpha))[1].sum()) == 101 - h

    def test_seed_determinism(self):
        rng = np.random.default_rng(10)
        U = rng.normal(size=(200, 3))
        a = trimmed_kmeans(U, 4, TrimSpec(0.2), restarts=6, seed=77)
        b = trimmed_kmeans(U, 4, TrimSpec(0.2), restarts=6, seed=77)
        np.testing.assert_array_equal(allocate_all(U, a, TrimSpec(0.2))[0],
                                      allocate_all(U, b, TrimSpec(0.2))[0])
        np.testing.assert_array_equal(a.model.means, b.model.means)
        assert a.objective == b.objective
        assert a.restart_index == b.restart_index

    def test_means_sorted_lexicographically(self):
        rng = np.random.default_rng(11)
        U = rng.normal(size=(60, 2)) + rng.integers(0, 4, 60)[:, None] * 6.0
        fit = trimmed_kmeans(U, 4, TrimSpec(0.0), restarts=8, seed=1)
        means = fit.model.means
        for i in range(3):
            assert tuple(means[i]) <= tuple(means[i + 1])

    def test_small_instance_exhaustive_optimality(self):
        rng = np.random.default_rng(12)
        for trial in range(6):
            n = int(rng.integers(4, 9))
            d = int(rng.integers(1, 3))
            k = int(rng.integers(1, 3))
            alpha = float(rng.choice([0.0, 0.25]))
            if TrimSpec(alpha).retained_count(n) < k:
                continue
            U = rng.normal(size=(n, d))
            fit = trimmed_kmeans(U, k, TrimSpec(alpha), restarts=50, seed=trial)
            oracle = exhaustive_optimum(U, k, alpha)
            assert fit.objective == pytest.approx(oracle, abs=1e-9)

    def test_retained_labels_match_nearest_mean(self):
        rng = np.random.default_rng(13)
        U = rng.normal(size=(80, 2))
        fit = trimmed_kmeans(U, 3, TrimSpec(0.3), restarts=4, seed=5)
        labels, trimmed = allocate_all(U, fit, TrimSpec(0.3))
        d2 = ((U[:, None, :] - fit.model.means[None]) ** 2).sum(axis=2)
        nearest = np.argmin(d2, axis=1) + 1
        np.testing.assert_array_equal(labels[~trimmed], nearest[~trimmed])

    def test_peak_memory_is_a_fraction_of_the_data(self, monkeypatch):
        # the recenter sums each cluster's rows in place (no gather of its
        # rows), and every other temporary is per row or per block of rows;
        # one restart at a time (the batch's own peak is tested below)
        rng = np.random.default_rng(14)
        U = rng.normal(size=(20000, 50))
        U[:10000] += 3.0
        monkeypatch.setattr(tclust, "_BATCH_BYTES", _restart_bytes(U, TrimSpec(0.1)))
        tracemalloc.start()
        try:
            trimmed_kmeans(U, 2, TrimSpec(0.1), restarts=2, max_iter=5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < U.nbytes / 4

    @pytest.mark.parametrize("alpha", [0.1, 0.0])
    def test_allocation_peak_memory_is_a_fraction_of_the_data(self, alpha):
        # labels and trim flags come from one certified retain, which scores
        # exactly only the rows near the cut, not every row
        rng = np.random.default_rng(14)
        U = rng.normal(size=(20000, 50))
        U[:10000] += 3.0
        trim = TrimSpec(alpha)
        fit = trimmed_kmeans(U, 2, trim, restarts=2, max_iter=5, seed=0)
        tracemalloc.start()
        try:
            allocate_all(U, fit, trim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < U.nbytes / 10

    def test_fortran_ordered_input_gives_the_same_fit(self):
        rng = np.random.default_rng(15)
        U = rng.normal(size=(600, 7))
        U[:300] += 2.0
        c = trimmed_kmeans(U, 3, TrimSpec(0.1), restarts=3, seed=4)
        F = np.asfortranarray(U)
        f = trimmed_kmeans(F, 3, TrimSpec(0.1), restarts=3, seed=4)
        for got, want in zip(allocate_all(F, f, TrimSpec(0.1)),
                             allocate_all(U, c, TrimSpec(0.1))):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(f.model.means, c.model.means)
        assert f.objective == c.objective

    def test_peak_memory_does_not_grow_with_restarts(self, monkeypatch):
        # a batch holds at most the restarts its byte budget allows (here
        # 32), and a restart that leaves it keeps nothing but the best fit
        # so far
        rng = np.random.default_rng(16)
        U = rng.normal(size=(1000, 10)) + rng.integers(0, 5, 1000)[:, None] * 3.0
        monkeypatch.setattr(tclust, "_BATCH_BYTES", 32 * _restart_bytes(U, TrimSpec(0.1)))
        trimmed_kmeans(U, 5, TrimSpec(0.1), restarts=2, seed=0)
        peaks = []
        for restarts in (32, 100):
            tracemalloc.start()
            try:
                trimmed_kmeans(U, 5, TrimSpec(0.1), restarts=restarts, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.01 * peaks[0]

    @pytest.mark.parametrize("alpha", [0.9, 0.5, 0.0])
    def test_a_full_batch_peaks_within_its_budget(self, monkeypatch, alpha):
        # a budget worth 6 restarts at n = 200000: the batch's peak stays
        # within it, besides the rows' squared norms and a few blocks of
        # scores, and (so the batch is full) above half of it
        rng = np.random.default_rng(18)
        n = 200_000
        U = rng.normal(size=(n, 4)) + rng.integers(0, 8, n)[:, None] * 1.5
        budget = 6 * _restart_bytes(U, TrimSpec(alpha))
        monkeypatch.setattr(tclust, "_BATCH_BYTES", budget)
        tracemalloc.start()
        try:
            trimmed_kmeans(U, 3, TrimSpec(alpha), restarts=6, max_iter=2, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert budget / 2 < peak <= budget + 8 * n + 2 ** 22

    def test_max_iter_below_one_rejected(self):
        U = np.random.default_rng(17).normal(size=(10, 2))
        for max_iter in (0, -1):
            with pytest.raises(ValueError, match="max_iter"):
                trimmed_kmeans(U, 2, TrimSpec(0.0), max_iter=max_iter)

    def test_k_larger_than_h_rejected(self):
        with pytest.raises(ValueError):
            trimmed_kmeans(np.zeros((3, 1)), 2, TrimSpec(0.5))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            trimmed_kmeans(np.zeros((0, 2)), 1, TrimSpec(0.0))


# --- allocate_all ------------------------------------------------------------

class TestAllocateAll:
    def test_alpha0_trims_nothing_and_matches_the_final_step(self):
        # a converged untrimmed fit: its final means are the centroids of
        # the allocation, which one more step reproduces
        rng = np.random.default_rng(14)
        U = rng.normal(size=(90, 2))
        fit = trimmed_kmeans(U, 3, TrimSpec(0.0), restarts=4, seed=2)
        labels, trimmed = allocate_all(U, fit, TrimSpec(0.0))
        assert not trimmed.any()
        step, (kept,), (step_labels,) = tclust_step(U, MeanModel(fit.model.means[None]), 90)
        np.testing.assert_array_equal(kept, np.arange(90))
        np.testing.assert_array_equal(labels, step_labels)
        np.testing.assert_allclose(step.means[0], fit.model.means, atol=1e-12)
        assert fit.objective == tclust_objective(U, fit.model, TrimSpec(0.0))

    def test_trimmed_points_get_nearest_mean(self):
        rng = np.random.default_rng(15)
        U = np.vstack([rng.normal(0, 1, (40, 2)), [[50.0, 50.0]]])
        fit = trimmed_kmeans(U, 2, TrimSpec(0.1), restarts=4, seed=4)
        labels, trimmed = allocate_all(U, fit, TrimSpec(0.1))
        assert trimmed[-1]
        assert labels[-1] == nearest_search(U[-1:], fit.model.means[None])[0][0, 0] + 1

    def test_heavy_trimming_still_labels_everything(self):
        rng = np.random.default_rng(16)
        U = rng.normal(size=(100, 2))
        fit = trimmed_kmeans(U, 2, TrimSpec(0.9), restarts=4, seed=6)
        labels, trimmed = allocate_all(U, fit, TrimSpec(0.9))
        assert labels.shape == (100,)
        assert set(np.unique(labels)) <= {1, 2}
        assert int(trimmed.sum()) == 90


# --- restart batches ---------------------------------------------------------

@st.composite
def fit_cases(draw):
    """Small fits with many exact ties: rows on a 0.1 grid or small integers,
    some duplicated, so starting means can coincide (an empty cluster and a
    reseed) and restarts can end on the same objective; few steps allowed,
    so some restarts stop at max_iter and others converge earlier.

    One case in three repeats a few distinct rows and fits up to 6 clusters
    from one or two starts: seeded starts then share rows, and a restart
    often stops on a repeat with a cluster empty and reseeded."""
    trim = TrimSpec(draw(st.sampled_from([0.0, 0.1, 0.25, 0.5])))
    if draw(st.integers(0, 2)) == 0:
        shape = (draw(st.integers(3, 7)), draw(st.integers(1, 2)))
        distinct = draw(hnp.arrays(np.float64, shape,
                                   elements=st.integers(-10, 10).map(float)))
        U = distinct[draw(st.lists(st.integers(0, distinct.shape[0] - 1),
                                   min_size=2 * distinct.shape[0], max_size=30))]
        k = draw(st.integers(1, min(6, trim.retained_count(U.shape[0]))))
        return (U, k, trim, draw(st.integers(1, 2)), draw(st.integers(2, 5)),
                draw(st.integers(0, 2 ** 16)))
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        values = st.integers(-2, 2).map(float)
    else:
        values = st.integers(-20, 20).map(lambda v: v / 10)
    U = draw(hnp.arrays(np.float64, (n, d), elements=values))
    copies = draw(st.lists(st.integers(0, n - 1), max_size=n))
    U = np.vstack([U, U[copies]]) if copies else U
    k = draw(st.integers(1, min(4, trim.retained_count(U.shape[0]))))
    return (U, k, trim, draw(st.integers(1, 7)), draw(st.integers(1, 5)),
            draw(st.integers(0, 2 ** 16)))


def _restart_bytes(U, trim):
    """The bytes `trimmed_kmeans` counts for one restart of a batch on U."""
    n = U.shape[0]
    return tclust._BYTES_PER_ROW * n + tclust._BYTES_PER_KEPT * trim.retained_count(n)


def _fit_under_cap(case, cap):
    """trimmed_kmeans with at most `cap` restarts per batch (None: no cap)."""
    U, k, trim, restarts, max_iter, seed = case
    budget = 1 << 62 if cap is None else cap * _restart_bytes(U, trim)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tclust, "_BATCH_BYTES", budget)
        return trimmed_kmeans(U, k, trim, restarts=restarts, max_iter=max_iter, seed=seed)


def _reference_fit(U, k, trim, restarts, max_iter, seed):
    """The multi-start driver one restart at a time, every restart scored by
    an exact classification of its final means (`exact_classification`);
    the winner's labels (remapped to the sorted means) and trim flags are
    those of that classification."""
    n = U.shape[0]
    h = trim.retained_count(n)
    best = None
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        model = MeanModel(U[rng.choice(n, size=k, replace=False)])
        last = None
        for iterations in range(1, max_iter + 1):
            step, (kept,), (labels,) = tclust_step(U, MeanModel(model.means[None]), h)
            model = MeanModel(step.means[0])
            if (last is not None and np.array_equal(kept, last[0])
                    and np.array_equal(labels, last[1])):
                break
            last = kept, labels
        labels, trimmed, objective = exact_classification(U, model, h)
        if best is None or objective > best[0]:
            best = (objective, model, labels, trimmed, iterations, r)
    objective, model, labels, trimmed, iterations, r = best
    relabel = np.empty(k, dtype=np.int64)
    relabel[np.lexsort(model.means.T[::-1])] = np.arange(k)
    return (model.finalized(), relabel[labels - 1] + 1, trimmed, objective,
            iterations, r)


def _assert_fit_is(fit, reference, U, trim):
    """`fit` is the reference's, and `allocate_all` gives it the reference's
    trim flags and, off exact ties, its labels."""
    model, ref_labels, ref_trimmed, objective, iterations, r = reference
    labels, trimmed = allocate_all(U, fit, trim)
    np.testing.assert_array_equal(trimmed, ref_trimmed)
    assert labels.dtype == ref_labels.dtype
    moved = labels != ref_labels
    np.testing.assert_array_equal(
        chosen_sq_distances(U, model.means, labels[moved] - 1, np.flatnonzero(moved)),
        chosen_sq_distances(U, model.means, ref_labels[moved] - 1, np.flatnonzero(moved)))
    np.testing.assert_array_equal(fit.model.means, model.means)
    assert fit.model.scale == model.scale
    assert fit.objective == objective
    assert fit.iterations == iterations
    assert fit.restart_index == r


@settings(max_examples=300, deadline=None)
@given(fit_cases())
# all rows but one are equal: most starts put two means on the same point
@example((np.vstack([np.zeros((5, 2)), [[5.0, 5.0]]]), 2, TrimSpec(0.0), 6, 3, 1))
# one cluster, no trimming: every restart ends on the same objective
@example((np.arange(12.0).reshape(6, 2), 1, TrimSpec(0.0), 5, 4, 2))
# step 3 repeats step 2 with a cluster empty, and its reseed moves a row that
# only a fresh search of the returned means scores there
@example((np.array([[-1.0], [-1.0], [-5.0], [-5.0], [-9.0], [-5.0], [-2.0], [-5.0]]),
          3, TrimSpec(0.1), 1, 4, 682))
def test_fit_does_not_depend_on_the_batch_cap(case):
    # and equals the one-restart reference, so a restart scored from its
    # last step gets the objective an exact classification gives it
    reference = _reference_fit(*case)
    U, _, trim = case[:3]
    for cap in (1, 2, None):
        _assert_fit_is(_fit_under_cap(case, cap), reference, U, trim)


def test_a_restart_that_repeats_with_an_empty_cluster_is_classified():
    # all three means start at -5; step 2 leaves cluster 3 empty and reseeds
    # it on a row at -5; step 3 repeats step 2's kept rows and labels, cluster
    # 3 empty again, and reseeds it on row 6, which its last step scored
    # under cluster 2: only a fresh search of the returned means moves row 6
    # to cluster 3
    U = np.array([[-1.0], [-1.0], [-5.0], [-5.0], [-9.0], [-5.0], [-2.0], [-5.0]])
    trim = TrimSpec(0.1)
    fit = trimmed_kmeans(U, 3, trim, restarts=1, max_iter=4, seed=682)
    assert fit.iterations == 3
    np.testing.assert_array_equal(fit.model.means, [[-5.0], [-2.0], [-4 / 3]])
    _assert_fit_is(fit, _reference_fit(U, 3, trim, 1, 4, 682), U, trim)


def test_objective_tie_goes_to_the_first_restart_across_batches():
    # k = 1 without trimming: every restart ends at the grand mean with the
    # same objective, so restart 0 wins whichever batch each restart ran in
    U = np.random.default_rng(18).normal(size=(40, 3))
    for cap in (1, 2, 3, None):
        fit = _fit_under_cap((U, 1, TrimSpec(0.0), 7, 20, 5), cap)
        assert fit.restart_index == 0
        assert fit.iterations == 2
