import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_ddse

from fdcluster.selection import (MIN_WINDOW, SelectionTrace,
                                 SlopeEstimationError, estimate_slope_ddse,
                                 penalty_spherical, select_k)


def make_trace(ks, losses, d=10, n=1):
    """Trace whose loglik column encodes the given per-point losses."""
    trace = SelectionTrace(n_points=n)
    for k, loss in zip(ks, losses):
        trace.add(k, -loss * n, penalty_spherical(k, d))
    return trace


class TestPenalties:
    def test_spherical_values(self):
        assert penalty_spherical(10, 100) == 1000
        assert penalty_spherical(1, 1) == 1
        assert penalty_spherical(5, 10) == 50

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            penalty_spherical(0, 5)


class TestDdse:
    def test_exact_affine_trace_recovers_slope(self):
        ks = range(2, 12)
        trace = make_trace(ks, [3.0 + 0.002 * penalty_spherical(k, 10) for k in ks])
        est = estimate_slope_ddse(trace)
        assert est.kappa == pytest.approx(0.002, abs=1e-12)

    def test_affine_decreasing_trace_recovers_magnitude(self):
        ks = range(2, 12)
        trace = make_trace(ks, [9.0 - 0.004 * penalty_spherical(k, 10) for k in ks])
        est = estimate_slope_ddse(trace)
        assert est.kappa == pytest.approx(0.004, abs=1e-12)

    def test_piecewise_trace_uses_large_model_windows(self):
        # steep drop below k=10, exactly linear (slope 0.002) above
        ks = list(range(2, 21))
        losses = []
        for k in ks:
            if k < 10:
                losses.append(10.0 / k + 0.002 * 10 * k)
            else:
                losses.append(1.0 + 0.002 * 10 * k)
        est = estimate_slope_ddse(make_trace(ks, losses))
        assert est.kappa == pytest.approx(0.002, rel=0.01)
        assert min(est.window) >= 10

    def test_noisy_linear_trace_within_five_percent(self):
        rng = np.random.default_rng(42)
        ks = list(range(2, 22))
        losses = [5.0 + 0.002 * 10 * k + rng.uniform(-1e-5, 1e-5) for k in ks]
        est = estimate_slope_ddse(make_trace(ks, losses))
        assert est.kappa == pytest.approx(0.002, rel=0.05)

    def test_too_few_candidates_rejected(self):
        trace = make_trace([2, 3, 4], [3.0, 2.0, 1.5])
        with pytest.raises(ValueError):
            estimate_slope_ddse(trace)

    def test_flat_trace_rejected(self):
        trace = make_trace(range(2, 10), [1.0] * 8)
        with pytest.raises(SlopeEstimationError):
            estimate_slope_ddse(trace)

    def test_diagnostics_cover_all_windows(self):
        ks = range(2, 14)
        trace = make_trace(ks, [1.0 + 0.01 * k for k in ks])
        est = estimate_slope_ddse(trace)
        lengths = [w for w, _ in est.diagnostics]
        assert lengths == list(range(4, 7))  # windows 4..ceil(12/2)


def planted_trace(ks, window_slopes, tail=(0.0, 0.5, -0.25), head=0.0, d=10):
    """Trace whose suffix window of length MIN_WINDOW + i has least-squares
    slope `window_slopes[i]` (up to rounding). The last three losses are
    `tail`; each earlier loss is solved from its window's slope, and the
    points left of the last window get the loss `head`."""
    ks = np.asarray(ks)
    pens = np.array([penalty_spherical(int(k), d) for k in ks])
    K = len(ks)
    loss = np.full(K, float(head))
    loss[K - 3:] = tail
    for w, slope in enumerate(window_slopes, start=MIN_WINDOW):
        i = K - w
        xc = pens[i:] - pens[i:].mean()
        # the slope is sum(xc * loss) / sum(xc**2); solve for loss[i]
        loss[i] = (slope * (xc @ xc) - xc[1:] @ loss[i + 1:]) / xc[0]
    return make_trace(ks, loss, d=d)


def _reference(trace):
    return reference_ddse(trace.k_values, trace.pens(), trace.loss())


@st.composite
def plateau_traces(draw):
    """Traces with K from 4 to 60 candidates (gaps of 1 to 3 in k) whose
    window slopes form plateaus: runs of equal slopes, next to slopes within
    and beyond the 5% stability band, and free ones."""
    K = draw(st.integers(4, 60))
    ks = np.cumsum(draw(st.lists(st.integers(1, 3), min_size=K, max_size=K)))
    n_windows = max(MIN_WINDOW, (K + 1) // 2) - MIN_WINDOW + 1
    slopes = []
    while len(slopes) < n_windows:
        value = draw(st.one_of(st.sampled_from([1.0, 1.01, 1.04, 1.2, 2.0, 3.0, -1.0, -0.97]),
                               st.floats(-10, 10).filter(lambda v: abs(v) > 0.1)))
        slopes.extend([value] * draw(st.integers(1, 6)))
    tail = draw(st.lists(st.floats(-2, 2, allow_nan=False), min_size=3, max_size=3))
    head = draw(st.floats(-5, 5, allow_nan=False))
    return planted_trace(ks, slopes[:n_windows], tail, head, d=draw(st.sampled_from([1, 10, 100])))


class TestDdseAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(plateau_traces())
    def test_window_kappa_and_diagnostics_match_the_brute_force_reference(self, trace):
        window, kappa, diagnostics = _reference(trace)
        est = estimate_slope_ddse(trace)
        assert est.window == window
        assert est.kappa == kappa
        assert est.diagnostics == diagnostics

    def test_tied_runs_go_to_the_later_one(self):
        # windows 4..9: stable pairs (4,5), (5,6), then (7,8), (8,9): two
        # runs of two pairs, so window 9 (slope 3) is used
        ks = range(1, 19)
        trace = planted_trace(ks, [1.0, 1.0, 1.0, 3.0, 3.0, 3.0])
        est = estimate_slope_ddse(trace)
        assert est.window == list(range(10, 19))
        assert est.kappa == pytest.approx(3.0, rel=1e-9)
        # a longer earlier run wins over a shorter later one
        trace = planted_trace(ks, [1.0, 1.0, 1.0, 3.0, 3.0, 5.0])
        est = estimate_slope_ddse(trace)
        assert est.window == list(range(13, 19))
        assert est.kappa == pytest.approx(1.0, rel=1e-9)

    def test_no_stable_pair_uses_the_largest_window(self):
        ks = range(1, 15)                     # windows 4..7
        trace = planted_trace(ks, [1.0, 2.0, 4.0, 8.0])
        est = estimate_slope_ddse(trace)
        assert est.window == list(range(8, 15))
        assert est.kappa == pytest.approx(8.0, rel=1e-9)

    @pytest.mark.parametrize("K", [4, 7, 8])
    def test_one_window(self, K):
        ks = range(2, 2 + K)
        trace = planted_trace(ks, [2.5])
        est = estimate_slope_ddse(trace)
        assert [w for w, _ in est.diagnostics] == [MIN_WINDOW]
        assert est.window == list(ks)[-MIN_WINDOW:]
        assert est.kappa == pytest.approx(2.5, rel=1e-9)


class TestSelectK:
    def test_single_candidate(self):
        trace = make_trace([4], [1.0])
        assert select_k(trace, 0.01) == 4

    def test_constructed_elbow_selects_five(self):
        # loss falls steeply to k=5 then declines slower than the penalty rises
        d, kappa = 10, 0.003
        ks = list(range(2, 11))
        losses = []
        for k in ks:
            if k <= 5:
                losses.append(10.0 - 1.0 * k)
            else:
                losses.append(5.0 - 0.5 * kappa * d * (k - 5))
        assert select_k(make_trace(ks, losses, d=d), kappa) == 5

    def test_invariant_to_constant_loglik_shift(self):
        rng = np.random.default_rng(1)
        ks = list(range(2, 12))
        losses = list(rng.uniform(0, 2, len(ks)))
        trace = make_trace(ks, losses)
        shifted = make_trace(ks, [v + 123.4 for v in losses])
        assert select_k(trace, 0.004) == select_k(shifted, 0.004)

    def test_larger_kappa_never_selects_more_clusters(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            ks = list(range(2, 12))
            losses = sorted(rng.uniform(0, 5, len(ks)), reverse=True)
            losses = [v + rng.normal(0, 0.2) for v in losses]
            trace = make_trace(ks, losses)
            chosen = [select_k(trace, kappa) for kappa in (1e-4, 1e-3, 1e-2, 1e-1)]
            assert all(a >= b for a, b in zip(chosen, chosen[1:]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12),
           st.floats(1e-6, 1e3), st.integers(-30, 30), st.integers(1, 100))
    def test_same_k_when_pen_scales_by_c_and_kappa_by_1_over_c(self, logliks, kappa,
                                                               power, d):
        # with c a power of two both scalings are exact, so every criterion
        # value and hence the argmin (ties included) is unchanged; the
        # estimated slope scales by exactly 1 / c, so a penalty linear in k
        # selects the same k whatever its constant
        c = 2.0 ** power
        trace = SelectionTrace(n_points=1)
        scaled = SelectionTrace(n_points=1)
        for k, loglik in enumerate(logliks, start=1):
            trace.add(k, loglik, penalty_spherical(k, d))
            scaled.add(k, loglik, c * penalty_spherical(k, d))
        assert select_k(scaled, kappa / c) == select_k(trace, kappa)
        # a product or quotient below the normal range rounds differently at
        # the two scales; losses of 0 or of at least 1e-200 in size keep
        # every one of them in range
        if len(logliks) >= MIN_WINDOW and all(v == 0 or abs(v) >= 1e-200
                                               for v in logliks):
            try:
                est = estimate_slope_ddse(trace)
            except SlopeEstimationError:
                with pytest.raises(SlopeEstimationError):
                    estimate_slope_ddse(scaled)
            else:
                est_scaled = estimate_slope_ddse(scaled)
                assert est_scaled.kappa == est.kappa / c
                assert est_scaled.window == est.window

    def test_rule10_penalty_increment(self):
        # kappa = 1.335e-3 at d=100: one extra cluster costs 0.267
        kappa, d = 1.335e-3, 100
        increment = 2 * kappa * (penalty_spherical(6, d) - penalty_spherical(5, d))
        assert increment == pytest.approx(0.267, abs=1e-12)

    def test_tie_breaks_toward_smaller_k(self):
        d, kappa = 1, 0.5
        # equal criterion at k=2 and k=3 by construction
        trace = SelectionTrace(n_points=1)
        trace.add(2, -(1.0), penalty_spherical(2, d))
        trace.add(3, -(1.0 - 2 * kappa * 1), penalty_spherical(3, d))
        assert select_k(trace, kappa) == 2

    def test_kappa_must_be_positive(self):
        with pytest.raises(ValueError):
            select_k(make_trace([2, 3], [1.0, 0.5]), 0.0)

    def test_nan_criterion_is_refused_and_an_infinite_loss_is_the_worst_k(self):
        # np.argmin would return the first NaN; `add` refuses the first NaN
        # row, so records set directly reach the check in select_k
        with pytest.raises(ValueError, match=r"NaN at k = \[2\]"):
            make_trace([2, 3, 4], [np.nan, 0.5, np.nan])
        records = [(k, -loss, penalty_spherical(k, 10), 0.0)
                   for k, loss in zip([2, 3, 4], [np.nan, 0.5, np.nan])]
        with pytest.raises(ValueError, match=r"NaN at k = \[2, 4\]"):
            select_k(SelectionTrace(records=records, n_points=1), 0.01)
        assert select_k(make_trace([2, 3, 4], [np.inf, 0.9, 0.5]), 0.01) == 4
        assert select_k(make_trace([2, 3], [0.5, np.inf]), 0.01) == 2


class TestTraceCsv:
    @pytest.mark.parametrize("loglik, pen", [(np.nan, 30.0), (-5.0, np.nan)])
    def test_add_refuses_a_nan_naming_its_k(self, loglik, pen):
        trace = make_trace([2], [1.0])
        with pytest.raises(ValueError, match=r"NaN at k = \[3\]"):
            trace.add(3, loglik, pen)
        assert trace.k_values == [2]

    def test_round_trip(self, tmp_path):
        trace = SelectionTrace(n_points=500)
        for k in range(2, 7):
            trace.add(k, -1234.5678 / k, 10.0 * k, 0.125 * k)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        back = SelectionTrace.read_csv(path, n_points=500)
        assert back.records == trace.records

    @pytest.mark.parametrize("n_points", [0, -100, 2.5, True])
    def test_n_points_must_be_a_positive_integer(self, tmp_path, n_points):
        # 0 used to leave the loss unscaled and -100 to flip its sign
        with pytest.raises(ValueError, match="n_points must be None or an integer >= 1"):
            SelectionTrace(n_points=n_points)
        path = tmp_path / "trace.csv"
        make_trace([2, 3], [1.0, 0.5]).write_csv(path)
        with pytest.raises(ValueError, match="n_points must be None or an integer >= 1"):
            SelectionTrace.read_csv(path, n_points=n_points)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            SelectionTrace.read_csv(path)

    def test_k_must_increase(self):
        trace = SelectionTrace()
        trace.add(3, 0.0, 1.0)
        with pytest.raises(ValueError):
            trace.add(3, 0.0, 1.0)
