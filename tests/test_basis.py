import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from fdcluster.basis import (DesignMatrix, TimeGrid, coef_values, design_matrix,
                             detrend, evaluate_basis, make_bspline_system,
                             ols_fit)


def scipy_basis(system, ts):
    """Independent evaluation of the same basis via scipy's BSpline."""
    ts = np.atleast_1d(ts)
    out = np.zeros((ts.size, system.d))
    for j in range(system.d):
        c = np.zeros(system.d)
        c[j] = 1.0
        spl = BSpline(system.knots, c, system.order - 1, extrapolate=False)
        vals = spl(ts)
        # scipy returns nan at the right endpoint of a clamped basis
        vals = np.nan_to_num(vals, nan=0.0)
        out[:, j] = vals
    # clamped right endpoint: last basis function equals 1 there
    at_end = ts == system.t_hi
    out[at_end] = 0.0
    out[at_end, -1] = 1.0
    return out


class TestMakeSystem:
    def test_d4_is_bernstein_with_two_breakpoints(self):
        system = make_bspline_system((0.0, 1.0), 4)
        assert system.breakpoints.tolist() == [0.0, 1.0]
        assert system.knots.tolist() == [0.0] * 4 + [1.0] * 4

    def test_d10_eight_equispaced_breakpoints(self):
        system = make_bspline_system((0.0, 1.0), 10)
        assert system.breakpoints.size == 8
        np.testing.assert_allclose(system.breakpoints, np.arange(8) / 7)

    def test_d100_on_large_domain(self):
        system = make_bspline_system((1.0, 2797.0), 100)
        assert system.breakpoints.size == 98
        assert system.breakpoints[0] == 1.0
        assert system.breakpoints[-1] == 2797.0

    def test_degenerate_domain_rejected(self):
        with pytest.raises(ValueError):
            make_bspline_system((1.0, 1.0), 10)

    def test_too_few_basis_functions_rejected(self):
        with pytest.raises(ValueError):
            make_bspline_system((0.0, 1.0), 3)


class TestEvaluateBasis:
    def test_left_endpoint_interpolates(self):
        system = make_bspline_system((0.0, 1.0), 4)
        np.testing.assert_allclose(evaluate_basis(system, [0.0])[0], [1, 0, 0, 0])

    def test_midpoint_matches_bernstein(self):
        # oracle: cubic Bernstein polynomials evaluated directly
        t = 0.5
        bernstein = [(1 - t) ** 3, 3 * t * (1 - t) ** 2, 3 * t**2 * (1 - t), t**3]
        system = make_bspline_system((0.0, 1.0), 4)
        np.testing.assert_allclose(evaluate_basis(system, [t])[0], bernstein, atol=1e-15)

    @pytest.mark.parametrize("d", [4, 10, 100, 200])
    def test_partition_of_unity(self, d):
        system = make_bspline_system((0.0, 1.0), d)
        ts = np.random.default_rng(d).uniform(0.0, 1.0, 1000)
        vals = evaluate_basis(system, ts)
        assert np.abs(vals.sum(axis=1) - 1.0).max() < 1e-12
        assert vals.min() >= 0.0

    @pytest.mark.parametrize("d", [4, 10, 37, 200])
    def test_local_support(self, d):
        system = make_bspline_system((0.0, 1.0), d)
        ts = np.random.default_rng(d + 1).uniform(0.0, 1.0, 500)
        vals = evaluate_basis(system, ts)
        assert ((np.abs(vals) > 1e-14).sum(axis=1) <= 4).all()

    @pytest.mark.parametrize("d", [4, 7, 10, 30])
    def test_matches_scipy_bspline(self, d):
        system = make_bspline_system((-2.0, 3.0), d)
        rng = np.random.default_rng(d + 2)
        ts = np.concatenate([rng.uniform(-2, 3, 200), [-2.0, 3.0]])
        mine = evaluate_basis(system, ts)
        theirs = scipy_basis(system, ts)
        np.testing.assert_allclose(mine, theirs, atol=1e-12)

    def test_outside_domain_rejected(self):
        system = make_bspline_system((0.0, 1.0), 5)
        with pytest.raises(ValueError):
            evaluate_basis(system, [1.5])
        with pytest.raises(ValueError):
            evaluate_basis(system, [-0.1])


class TestDesignMatrix:
    def test_single_point_grid(self):
        system = make_bspline_system((0.0, 1.0), 4)
        grid = TimeGrid(points=np.array([0.0]), t_lo=0.0, t_hi=1.0)
        design = design_matrix(system, grid)
        np.testing.assert_allclose(design.matrix, [[1, 0, 0, 0]])

    def test_rows_sum_to_one(self):
        system = make_bspline_system((0.0, 1.0), 10)
        grid = TimeGrid.uniform(0.0, 1.0, 100)
        design = design_matrix(system, grid)
        assert np.abs(design.matrix.sum(axis=1) - 1.0).max() < 1e-12

    def test_rows_equal_evaluate_basis(self):
        system = make_bspline_system((0.0, 2.0), 12)
        grid = TimeGrid.uniform(0.0, 2.0, 33)
        design = design_matrix(system, grid)
        for j in (0, 7, 32):
            np.testing.assert_array_equal(design.matrix[j],
                                          evaluate_basis(system, grid.points[j:j + 1])[0])

    def test_gram_is_banded(self):
        system = make_bspline_system((0.0, 1.0), 10)
        grid = TimeGrid.uniform(0.0, 1.0, 100)
        gram = design_matrix(system, grid).gram
        assert np.allclose(gram, gram.T)
        i, j = np.indices(gram.shape)
        assert np.all(gram[np.abs(i - j) > 3] == 0.0)


class TestOlsFit:
    def test_identity_design_returns_series(self):
        design = DesignMatrix.from_matrix(np.eye(6))
        z = np.random.default_rng(0).normal(size=6)
        np.testing.assert_allclose(ols_fit(design, z[None])[0], z, atol=1e-12)

    def test_noiseless_recovery(self):
        system = make_bspline_system((0.0, 1.0), 10)
        grid = TimeGrid.uniform(0.0, 1.0, 60)
        design = design_matrix(system, grid)
        rng = np.random.default_rng(1)
        b = rng.normal(size=10)
        fitted = ols_fit(design, (design.matrix @ b)[None])[0]
        assert np.linalg.norm(fitted - b) / np.linalg.norm(b) < 1e-8

    def test_rank_deficient_matches_svd_oracle(self):
        # m < d: compare the pseudoinverse path to numpy's SVD lstsq
        system = make_bspline_system((0.0, 1.0), 20)
        grid = TimeGrid.uniform(0.0, 1.0, 8)
        design = design_matrix(system, grid)
        assert design.singular
        rng = np.random.default_rng(2)
        z = rng.normal(size=8)
        mine = ols_fit(design, z[None])[0]
        oracle = np.linalg.lstsq(design.matrix, z, rcond=None)[0]
        assert np.linalg.norm(design.matrix @ mine - z) < 1e-8
        np.testing.assert_allclose(mine, oracle, atol=1e-8)

    def test_linearity(self):
        system = make_bspline_system((0.0, 1.0), 8)
        grid = TimeGrid.uniform(0.0, 1.0, 40)
        design = design_matrix(system, grid)
        rng = np.random.default_rng(3)
        z1, z2 = rng.normal(size=(2, 40))
        lhs = ols_fit(design, (2.5 * z1 + z2)[None])[0]
        rhs = 2.5 * ols_fit(design, z1[None])[0] + ols_fit(design, z2[None])[0]
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_shared_design_consistency(self):
        system = make_bspline_system((0.0, 1.0), 8)
        grid = TimeGrid.uniform(0.0, 1.0, 50)
        shared = design_matrix(system, grid)
        rng = np.random.default_rng(4)
        Z = rng.normal(size=(5, 50))
        batch = ols_fit(shared, Z)
        for i in range(5):
            independent = design_matrix(make_bspline_system((0.0, 1.0), 8), grid)
            # same series against independently built identical designs: bit-equal
            np.testing.assert_array_equal(ols_fit(independent, Z[i][None])[0],
                                          ols_fit(shared, Z[i][None])[0])
            # batched solve equals the per-series solve
            np.testing.assert_array_equal(ols_fit(independent, Z[i][None])[0], batch[i])

    def test_shape_mismatch_rejected(self):
        design = DesignMatrix.from_matrix(np.eye(4))
        with pytest.raises(ValueError):
            ols_fit(design, np.zeros((1, 5)))


class TestDetrend:
    def test_exact_line_gives_zeros(self):
        grid = TimeGrid.uniform(0.0, 1.0, 30)
        series = 2.0 + 3.0 * grid.points
        assert np.abs(detrend(series[None], grid)[0]).max() < 1e-10

    def test_idempotent_on_detrended_series(self):
        grid = TimeGrid.uniform(0.0, 1.0, 50)
        rng = np.random.default_rng(5)
        once = detrend(rng.normal(size=50)[None], grid)[0]
        twice = detrend(once[None].copy(), grid)[0]
        np.testing.assert_allclose(twice, once, atol=1e-10)

    def test_quadratic_matches_normal_equations_oracle(self):
        grid = TimeGrid.uniform(0.0, 1.0, 40)
        t = grid.points
        series = t**2
        # oracle: residuals from solving the (1, t) normal equations directly
        A = np.column_stack([np.ones_like(t), t])
        beta = np.linalg.solve(A.T @ A, A.T @ series)
        np.testing.assert_allclose(detrend(series[None].copy(), grid)[0],
                                   series - A @ beta, atol=1e-12)

    def test_output_mean_and_t_correlation_vanish(self):
        grid = TimeGrid.uniform(0.0, 2.0, 64)
        rng = np.random.default_rng(6)
        out = detrend(rng.normal(size=(7, 64)), grid)
        assert np.abs(out.mean(axis=1)).max() < 1e-10
        assert np.abs(out @ (grid.points - grid.points.mean())).max() < 1e-8

    def test_constant_grid_rejected(self):
        grid = TimeGrid(points=np.array([1.0]), t_lo=0.0, t_hi=2.0)
        with pytest.raises(ValueError):
            detrend(np.array([[1.0]]), grid)


def test_coef_values_returns_a_c_contiguous_float64_matrix():
    # the stage-2 kernels read rows; a Fortran-ordered input is copied once
    # here, and a C-ordered float64 one is passed through without a copy
    U = np.random.default_rng(9).normal(size=(20, 3))
    out = coef_values(np.asfortranarray(U))
    assert out.flags.c_contiguous and out.dtype == np.float64
    np.testing.assert_array_equal(out, U)
    assert coef_values(U) is U
    with pytest.raises(ValueError):
        coef_values(U[0])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(2, 60), st.integers(4, 16),
       st.integers(0, 2 ** 32 - 1))
def test_one_series_gets_the_bits_of_its_row_in_a_batch(n, m, d, seed):
    """detrend and ols_fit work per row: a series alone, a batch and the
    batch's row blocks agree exactly, on regular and rank-deficient
    (m < d) designs."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid.uniform(-1.0, 3.0, m)
    design = design_matrix(make_bspline_system((-1.0, 3.0), d), grid)
    Z = rng.standard_normal((n, m)) * rng.uniform(0.1, 100.0) + rng.uniform(-50, 50)
    resid = detrend(Z.copy(), grid)
    coefs = ols_fit(design, Z)
    for i in range(n):
        np.testing.assert_array_equal(detrend(Z[i][None].copy(), grid)[0], resid[i])
        np.testing.assert_array_equal(ols_fit(design, Z[i][None])[0], coefs[i])
    for lo in range(0, n, 5):
        np.testing.assert_array_equal(ols_fit(design, Z[lo:lo + 5]), coefs[lo:lo + 5])


class TestTimeGrid:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            TimeGrid(points=np.array([0.2, 0.1]), t_lo=0.0, t_hi=1.0)

    def test_rejects_points_outside_domain(self):
        with pytest.raises(ValueError):
            TimeGrid(points=np.array([0.5, 1.5]), t_lo=0.0, t_hi=1.0)
