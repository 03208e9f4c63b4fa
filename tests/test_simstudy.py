import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import pair_counting_ari, study_cell

from fdcluster.basis import design_matrix, make_bspline_system, ols_fit
from fdcluster.mixtures import MeanModel, nearest_search, row_logsumexp
from fdcluster.simstudy import (GmmParams, SimConfig, StudyReport,
                                adjusted_rand_index, bayes_allocate,
                                component_log_densities, run_study,
                                simulate_study)

LOG_2PI = math.log(2 * math.pi)


def normal_logpdf(x, mean, var):
    return -0.5 * math.log(2 * math.pi * var) - 0.5 * (x - mean) ** 2 / var


class TestAdjustedRandIndex:
    def test_identical_partitions_give_exactly_one(self):
        labels = np.array([1, 1, 2, 3, 3, 3, 2])
        assert adjusted_rand_index(labels, labels) == 1.0

    def test_relabeling_invariance(self):
        a = np.array([1, 1, 2, 2, 3, 3])
        b = np.array([9, 9, 4, 4, 7, 7])
        assert adjusted_rand_index(a, b) == 1.0

    def test_fixture_matches_pair_counting_oracle(self):
        a = np.array([1, 1, 1, 2, 2, 2])
        b = np.array([1, 1, 2, 2, 2, 2])
        oracle = pair_counting_ari(a, b)
        assert adjusted_rand_index(a, b) == pytest.approx(oracle, abs=1e-14)
        # the oracle itself evaluates to 12/37 on this fixture
        assert oracle == pytest.approx(12 / 37, abs=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.integers(0, 4, 30)
            b = rng.integers(0, 5, 30)
            assert adjusted_rand_index(a, b) == adjusted_rand_index(b, a)

    def test_random_pairs_match_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            a = rng.integers(0, int(rng.integers(1, 8)) + 1, n)
            b = rng.integers(0, int(rng.integers(1, 8)) + 1, n)
            assert adjusted_rand_index(a, b) == pytest.approx(
                pair_counting_ari(a, b), abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = rng.integers(0, 5, 40)
            b = rng.integers(0, 5, 40)
            assert -1.0 <= adjusted_rand_index(a, b) <= 1.0

    def test_random_labelings_center_on_zero(self):
        rng = np.random.default_rng(3)
        truth = rng.integers(1, 6, 500)
        values = [adjusted_rand_index(truth, rng.integers(1, 6, 500))
                  for _ in range(1000)]
        assert abs(float(np.mean(values))) < 0.02

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            adjusted_rand_index([1, 2], [1, 2, 3])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            adjusted_rand_index([1], [1])


@st.composite
def two_labelings(draw):
    n = draw(st.integers(2, 40))
    labels = hnp.arrays(np.int64, n, elements=st.integers(0, 5))
    return draw(labels), draw(labels)


@settings(max_examples=200, deadline=None)
@given(two_labelings(), st.permutations(range(6)))
def test_ari_symmetric_and_invariant_to_renaming(case, perm):
    a, b = case
    ari = adjusted_rand_index(a, b)
    assert adjusted_rand_index(b, a) == ari
    rename = 7 * np.array(perm) + 100          # one-to-one, new label values
    assert adjusted_rand_index(rename[a], b) == ari
    assert adjusted_rand_index(a, rename[b]) == ari
    assert -1.0 <= ari <= 1.0


@st.composite
def stack_and_split(draw):
    """(n, d) rows, a k-component mixture with random SPD covariances, and
    sorted split points of the rows; rows may sit on a 0.5-grid, so that
    repeated rows and exact ties between components occur."""
    n = draw(st.integers(1, 300))
    d = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = rng.normal(scale=3.0, size=(n, d))
    means = rng.normal(scale=3.0, size=(k, d))
    if draw(st.booleans()):
        B, means = np.round(2 * B) / 2, np.round(2 * means) / 2
    A = rng.normal(size=(k, d, d))
    covs = A @ A.transpose(0, 2, 1) + 0.1 * np.eye(d)
    params = GmmParams(rng.dirichlet(np.ones(k)), means, covs)
    cuts = draw(st.lists(st.integers(1, max(1, n - 1)), max_size=5, unique=True))
    return B, params, sorted(c for c in cuts if c < n)


@settings(max_examples=100, deadline=None)
@given(stack_and_split())
def test_bayes_allocate_of_a_stack_is_the_concatenation_over_its_row_splits(case):
    """Each row's label depends on that row alone, so the rows can be scored
    in one call whatever their number."""
    B, params, cuts = case
    parts = [bayes_allocate(part, params) for part in np.split(B, cuts)]
    np.testing.assert_array_equal(bayes_allocate(B, params), np.concatenate(parts))


class TestSimConfig:
    def test_class_means_layout(self):
        mu = SimConfig("S1", n=10, m=10).class_means()
        np.testing.assert_array_equal(mu[0], np.zeros(10))
        np.testing.assert_array_equal(mu[1][:2], [1, 1])
        np.testing.assert_array_equal(mu[2][:2], [-1, -1])
        np.testing.assert_array_equal(mu[3][-2:], [1, 1])
        np.testing.assert_array_equal(mu[4][-2:], [-1, -1])
        assert np.all(mu[1][2:] == 0) and np.all(mu[3][:-2] == 0)

    def test_s2_covariance_eigenvalues(self):
        V = SimConfig("S2", n=10, m=10).coef_cov()
        eigs = np.sort(np.linalg.eigvalsh(V))
        # compound symmetry: d-1 copies of diag-off and one large eigenvalue
        np.testing.assert_allclose(eigs[:-1], 0.25**2 - 0.15**2, atol=1e-12)
        np.testing.assert_allclose(eigs[-1], 0.25**2 + 9 * 0.15**2, atol=1e-12)
        assert eigs[0] > 0

    def test_unknown_study_rejected(self):
        with pytest.raises(ValueError):
            SimConfig("S3", n=10, m=10)


class TestSimulateStudy:
    def test_same_seed_bit_identical(self):
        cfg = SimConfig("S1", n=50, m=40, seed=11)
        a = simulate_study(cfg)
        b = simulate_study(cfg)
        np.testing.assert_array_equal(a.series, b.series)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = simulate_study(SimConfig("S1", n=50, m=40, seed=1))
        b = simulate_study(SimConfig("S1", n=50, m=40, seed=2))
        assert not np.array_equal(a.series, b.series)

    def test_opposed_class_means_mirror_at_left_edge(self):
        cfg = SimConfig("S1", n=4000, m=50, seed=5)
        data = simulate_study(cfg)
        early = data.series[:, :5].mean(axis=1)
        m2 = early[data.labels == 2].mean()
        m3 = early[data.labels == 3].mean()
        assert m2 > 0.5 and m3 < -0.5
        assert m2 + m3 == pytest.approx(0.0, abs=0.1)

    def test_noiseless_degenerate_recovers_class_means(self):
        cfg = SimConfig("S1", n=40, m=100, seed=9, sigma=0.0, diag_sd=0.0)
        data = simulate_study(cfg)
        system = make_bspline_system(cfg.domain, cfg.d_gen)
        design = design_matrix(system, data.grid)
        mu = cfg.class_means()
        X = design.matrix
        for i in range(cfg.n):
            np.testing.assert_allclose(data.series[i], X @ mu[data.labels[i] - 1],
                                       atol=1e-12)
        coefs = ols_fit(design, data.series)
        for i in range(cfg.n):
            assert np.abs(coefs[i] - mu[data.labels[i] - 1]).max() < 1e-8

    def test_label_balance(self):
        cfg = SimConfig("S1", n=100_000, m=2, seed=13)
        data = simulate_study(cfg)
        counts = np.bincount(data.labels)[1:]
        sd = math.sqrt(cfg.n * 0.2 * 0.8)
        assert np.abs(counts - cfg.n / 5).max() < 4 * sd


class TestRunStudy:
    def test_degenerate_noiseless_scores_one_for_every_method(self):
        # with exact duplicates, the trim level must keep more points than
        # any 4 classes hold, otherwise dropping a whole class costs nothing
        base = SimConfig("S1", n=60, m=50, sigma=0.0, diag_sd=0.0)
        report = run_study("S1", [(50, 60)], replicates=1,
                           methods=("gmm", "kmeans", "trimmed:0.1"),
                           seed=3, restarts=20, base_config=base)
        assert len(report.rows) == 3
        for row in report.rows:
            assert row.ari_mean == pytest.approx(1.0)

    def test_report_csv_layout(self, tmp_path):
        base = SimConfig("S1", n=40, m=30, sigma=0.1)
        report = run_study("S1", [(30, 40)], replicates=2,
                           methods=("kmeans",), seed=4, restarts=3,
                           base_config=base)
        path = tmp_path / "report.csv"
        report.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "study,m,n,method,alpha,ari_mean,ari_se,seconds"
        assert len(lines) == 2
        assert lines[1].startswith("S1,30,40,kmeans,0.0,")

    def test_seed_reproducibility(self):
        base = SimConfig("S1", n=50, m=30)
        kw = dict(methods=("kmeans", "trimmed:0.5"), seed=21, restarts=4,
                  base_config=base)
        a = run_study("S1", [(30, 50)], replicates=3, **kw)
        b = run_study("S1", [(30, 50)], replicates=3, **kw)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.ari_mean == rb.ari_mean
            assert ra.ari_se == rb.ari_se

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            run_study("S1", [(10, 20)], 1, methods=("mystery",))

    def test_cell_lookup(self):
        report = StudyReport(rows=[])
        with pytest.raises(KeyError):
            study_cell(report, 10, 10, "kmeans")


class TestGaussianLogDensity:
    def test_at_mean_identity_covariance(self):
        d = 7
        mu = np.random.default_rng(0).normal(size=d)
        params = GmmParams([1.0], [mu], [np.eye(d)])
        val = component_log_densities(mu[None], params)[0, 0]
        assert val == pytest.approx(-d / 2 * LOG_2PI)

    def test_scalar_standard_normal_at_one(self):
        params = GmmParams([1.0], [[0.0]], [[[1.0]]])
        val = component_log_densities(np.array([[1.0]]), params)[0, 0]
        assert val == pytest.approx(-0.5 * LOG_2PI - 0.5)

    def test_diagonal_case_matches_closed_form(self):
        # oracle: product of univariate normal densities
        b = np.array([2.0, 0.0])
        mu = np.zeros(2)
        V = np.diag([4.0, 1.0])
        oracle = normal_logpdf(2.0, 0.0, 4.0) + normal_logpdf(0.0, 0.0, 1.0)
        val = component_log_densities(b[None], GmmParams([1.0], [mu], [V]))[0, 0]
        assert val == pytest.approx(oracle, abs=1e-12)
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
        val = component_log_densities(b[None], GmmParams([1.0], [mu], [V]))[0, 0]
        assert val == pytest.approx(oracle, abs=1e-10)

    def test_non_positive_definite_rejected(self):
        params = GmmParams([1.0], [np.zeros(2)], [[[1.0, 2.0], [2.0, 1.0]]])
        with pytest.raises(ValueError):
            component_log_densities(np.zeros((1, 2)), params)

    def test_stack_names_its_first_non_positive_definite_covariance(self):
        covs = np.stack([np.eye(2), [[1.0, 2.0], [2.0, 1.0]], -np.eye(2)])
        params = GmmParams(np.full(3, 1 / 3), np.zeros((3, 2)), covs)
        with pytest.raises(ValueError, match="covariance 1 is not positive definite"):
            component_log_densities(np.zeros((4, 2)), params)


class TestMixtureLogDensity:
    def test_single_component_equals_gaussian(self):
        rng = np.random.default_rng(2)
        mu = rng.normal(size=3)
        params = GmmParams([1.0], [mu], [np.eye(3)])
        b = rng.normal(size=3)
        scores = component_log_densities(b[None], params)
        assert row_logsumexp(scores)[0] == pytest.approx(scores[0, 0], abs=1e-12)

    def test_duplicate_components_collapse(self):
        mu = np.array([0.5, -0.5])
        params = GmmParams([0.5, 0.5], [mu, mu], [np.eye(2), np.eye(2)])
        b = np.array([1.0, 1.0])
        single = component_log_densities(b[None], GmmParams([1.0], [mu], [np.eye(2)]))
        assert row_logsumexp(component_log_densities(b[None], params))[0] == pytest.approx(
            single[0, 0], abs=1e-12)

    def test_scalar_two_component_oracle(self):
        # oracle: direct summation of the scalar mixture
        params = GmmParams([0.3, 0.7], [[0.0], [3.0]], [[[1.0]], [[1.0]]])
        b = np.array([1.0])
        oracle = math.log(0.3 * math.exp(normal_logpdf(1, 0, 1))
                          + 0.7 * math.exp(normal_logpdf(1, 3, 1)))
        scores = component_log_densities(b[None], params)
        assert row_logsumexp(scores)[0] == pytest.approx(oracle, abs=1e-12)

    def test_finite_even_for_distant_points(self):
        params = GmmParams([0.5, 0.5], [[0.0], [1.0]], [[[1.0]], [[1.0]]])
        scores = component_log_densities(np.array([[1e4]]), params)
        assert np.isfinite(row_logsumexp(scores)[0])

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            GmmParams([0.5, 0.6], [[0.0], [1.0]], [[[1.0]], [[1.0]]])


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
                                          nearest_search(B, model.means[None])[0][0] + 1)

    def test_point_at_mean_goes_to_that_cluster(self):
        means = np.array([[0.0, 0.0], [4.0, 4.0], [-3.0, 5.0]])
        params = GmmParams(np.full(3, 1 / 3), means,
                           np.broadcast_to(np.eye(2), (3, 2, 2)).copy())
        for c in range(3):
            assert bayes_allocate(means[c][None], params)[0] == c + 1

    def test_prior_overrides_nearer_mean(self):
        # posterior odds 9 * exp(-(1.2^2 - 0.8^2)/2) > 1 favor cluster 1
        params = GmmParams([0.9, 0.1], [[0.0], [2.0]], [[[1.0]], [[1.0]]])
        assert bayes_allocate(np.array([1.2])[None], params)[0] == 1

    def test_weight_rescaling_invariance(self):
        rng = np.random.default_rng(7)
        means = rng.normal(size=(3, 2))
        covs = np.broadcast_to(np.eye(2), (3, 2, 2)).copy()
        w = np.array([0.2, 0.3, 0.5])
        B = rng.normal(size=(50, 2))
        base = bayes_allocate(B, GmmParams(w, means, covs))
        again = bayes_allocate(B, GmmParams((7.0 * w) / (7.0 * w).sum(), means, covs))
        np.testing.assert_array_equal(base, again)
