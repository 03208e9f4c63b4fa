"""The penalty, data-driven slope estimation, and the penalized choice of k.

The candidate sweep produces one record per cluster count k: the best
log-likelihood over restarts, the penalty value, and the wall time. The
slope of the loss against the penalty on the largest models calibrates
the selection rule: pick the k minimizing loss(k) + 2 * kappa * pen(k).
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass, field

import numpy as np

MIN_WINDOW = 4          # shortest regression window (and fewest candidates)
STABILITY_RTOL = 0.05   # consecutive window slopes within 5% count as stable


class SlopeEstimationError(RuntimeError):
    """Raised when the loss is not yet linear in the penalty (slope <= 0)."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


@dataclass
class SelectionTrace:
    """Per-k records (k, loglik, pen, seconds) for a strictly increasing k set.

    `loglik` is the sample log-likelihood summed over the n points;
    `n_points` scales it to a per-point loss. Traces imported from bare
    CSV may not know n (selection with an internally estimated slope is
    scale-free, so this only matters for externally supplied slopes).
    """

    records: list = field(default_factory=list)   # (k, loglik, pen, seconds)
    n_points: int | None = None

    def __post_init__(self):
        n = self.n_points
        if n is not None and (isinstance(n, bool) or not isinstance(n, numbers.Integral)
                              or n < 1):
            raise ValueError(f"n_points must be None or an integer >= 1, got {n!r}")

    def add(self, k: int, loglik: float, pen: float, seconds: float = 0.0):
        if self.records and k <= self.records[-1][0]:
            raise ValueError("k values must be strictly increasing")
        self.records.append((int(k), float(loglik), float(pen), float(seconds)))

    @property
    def k_values(self) -> list:
        return [r[0] for r in self.records]

    def loss(self) -> np.ndarray:
        """Per-point loss -loglik / n for every record."""
        n = 1 if self.n_points is None else self.n_points
        return np.array([-r[1] / n for r in self.records])

    def pens(self) -> np.ndarray:
        return np.array([r[2] for r in self.records])

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "loglik", "pen", "seconds"])
            for k, loglik, pen, seconds in self.records:
                writer.writerow([k, repr(loglik), repr(pen), repr(seconds)])

    @classmethod
    def read_csv(cls, path, n_points: int | None = None) -> "SelectionTrace":
        trace = cls(n_points=n_points)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:4]] != ["k", "loglik", "pen", "seconds"]:
                raise ValueError(f"malformed trace header in {path}")
            for row in reader:
                if not row:
                    continue
                if len(row) < 4:
                    raise ValueError(f"{path}, line {reader.line_num}: "
                                     "expected k,loglik,pen,seconds")
                trace.add(int(row[0]), float(row[1]), float(row[2]), float(row[3]))
        return trace


@dataclass
class SlopeEstimate:
    """Estimated loss-vs-penalty slope with the window that produced it."""

    kappa: float
    window: list            # k values of the chosen window
    diagnostics: list       # (window_length, slope) for every window tried


def penalty_spherical(k: int, d: int) -> float:
    """Penalty for the equal-weight spherical model: one mean per component.

    The slope heuristic needs only the penalty's shape: the estimated slope
    calibrates its constant, so another penalty linear in k (the
    full-covariance parameter count, say) selects the same k.
    """
    if k < 1 or d < 1:
        raise ValueError("k and d must be positive")
    return float(d * k)


def _ols_slope(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    denom = float(xc @ xc)
    if denom == 0.0:
        raise ValueError("penalty values are constant over the window")
    return float(xc @ (y - y.mean())) / denom


def estimate_slope_ddse(trace: SelectionTrace) -> SlopeEstimate:
    """Slope of the per-point loss against the penalty on the largest models.

    Regressions run over suffix windows of the pen-sorted trace, from
    MIN_WINDOW points up to the larger half of the candidates. Among runs
    of consecutive window lengths whose slopes agree within 5% relative,
    the longest run wins and its largest window provides the slope; with
    no stable pair the largest window is used. The magnitude of the fitted
    slope is returned: a loss that falls linearly with the penalty (excess
    fit on overlarge models) and one that rises linearly (per-component
    weight dilution) calibrate the same selection rule. A vanishing or
    non-finite slope raises SlopeEstimationError: the trace carries no
    usable linear regime, so the candidate set should be extended.
    """
    K = len(trace.records)
    if K < MIN_WINDOW:
        raise ValueError(f"need at least {MIN_WINDOW} candidates, got {K}")
    pens = trace.pens()
    loss = trace.loss()
    order = np.argsort(pens, kind="stable")
    pens, loss = pens[order], loss[order]
    ks = np.array(trace.k_values)[order]

    w_max = max(MIN_WINDOW, (K + 1) // 2)
    w_max = min(w_max, K)
    lengths = list(range(MIN_WINDOW, w_max + 1))
    slopes = [_ols_slope(pens[K - w:], loss[K - w:]) for w in lengths]
    diagnostics = list(zip(lengths, slopes))

    stable = []
    for i in range(len(lengths) - 1):
        denom = max(abs(slopes[i]), 1e-300)
        stable.append(abs(slopes[i + 1] - slopes[i]) < STABILITY_RTOL * denom)

    best_idx = len(lengths) - 1
    if any(stable):
        run_end, run_len = 0, 0
        i = 0
        while i < len(stable):
            if stable[i]:
                j = i
                while j < len(stable) and stable[j]:
                    j += 1
                if j - i >= run_len:
                    run_len, run_end = j - i, j
                i = j
            else:
                i += 1
        best_idx = run_end  # largest window of the longest stable run

    kappa = abs(slopes[best_idx])
    chosen = lengths[best_idx]
    if kappa == 0 or not np.isfinite(kappa):
        raise SlopeEstimationError(
            f"estimated slope {slopes[best_idx]:.3e} is unusable; extend the candidate set",
            diagnostics,
        )
    return SlopeEstimate(kappa=kappa, window=[int(k) for k in ks[K - chosen:]],
                         diagnostics=diagnostics)


def select_k(trace: SelectionTrace, kappa: float) -> int:
    """k minimizing loss(k) + 2 * kappa * pen(k) over the trace's stored
    penalty column; ties toward smaller k. kappa must be finite and positive;
    a NaN criterion is refused (an infinite loss is just the worst k)."""
    if not (kappa > 0 and np.isfinite(kappa)):
        raise ValueError(f"kappa must be a positive finite number, got {kappa}")
    if not trace.records:
        raise ValueError("empty trace")
    criterion = trace.loss() + 2.0 * kappa * trace.pens()
    if np.isnan(criterion).any():
        bad = np.array(trace.k_values)[np.isnan(criterion)].tolist()
        raise ValueError(f"the trace's loss or penalty is NaN at k = {bad}")
    return trace.k_values[int(np.argmin(criterion))]
