"""The spherical mixture over coefficient vectors and its nearest-mean search.

Holds the spherical mean model and its log-score, the nearest-mean search,
the chosen means' distances, the equal-weight spherical log-likelihood used
to score mean models, and the row log-sum-exp behind it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .basis import coef_values

# Rows per block of the nearest-mean kernel and the log-likelihood, so that a
# block's scores and differences stay in cache; every result is per row and
# does not depend on it.
_NEAREST_ROWS = 1024

# Scores per block of a batched nearest-mean search: a batch of R models
# scores k R per row, so its blocks hold fewer rows, and its temporaries do
# not grow with R.
_BLOCK_SCORES = 1 << 16


@dataclass
class MeanModel:
    """Spherical mean model: k component means and a shared scale.

    Finalized models keep their means in lexicographic row order so that
    labels are comparable across runs; intermediate iterates need not be
    ordered. The iterates of R restarts fitted together share one model
    whose means are (R, k, d).
    """

    means: np.ndarray        # (k, d), or (R, k, d) for R restarts
    scale: float = 1.0       # shared spherical variance (lambda)

    def __post_init__(self):
        self.means = np.atleast_2d(np.asarray(self.means, dtype=float))
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def k(self) -> int:
        return self.means.shape[-2]

    @property
    def d(self) -> int:
        return self.means.shape[-1]

    @property
    def log_score_const(self) -> float:
        """log of (1/k) (2 pi scale)^(-d/2), shared by every component's log-score."""
        return -math.log(self.k) - 0.5 * self.d * math.log(2.0 * math.pi * self.scale)

    def log_scores(self, d2: np.ndarray) -> np.ndarray:
        """Log-scores of points at squared distances d2 from their component."""
        return self.log_score_const - d2 / (2.0 * self.scale)

    def finalized(self) -> "MeanModel":
        """Copy with rows sorted lexicographically."""
        return MeanModel(self.means[np.lexsort(self.means.T[::-1])], self.scale)


def row_logsumexp(a: np.ndarray) -> np.ndarray:
    """log sum_j exp(a[i, j]) for each row of a 2-D float array.

    Bit for bit the value of scipy.special.logsumexp(a, axis=1), without
    its per-call overhead: with M the row maximum and c the number of
    entries equal to it, s = sum of exp(a - M) over the other entries,
    divided by c, and the result is log1p(s) + log(c) + M. Rows where that
    is not finite (M infinite or NaN, or an overflow) get
    log(sum(exp(a))) instead.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the max and the count are exact in any order, and a loop over the
        # k columns beats a reduction along short rows; the sum below is
        # the same axis-1 reduction scipy makes, so it rounds the same way
        top = functools.reduce(np.maximum, a.T)
        at_top = a == top[:, None]
        count = functools.reduce(np.add, at_top.T, 0.0)
        terms = np.exp(a - top[:, None])
        terms[at_top] = 0.0
        # a zero term adds nothing wherever it falls, and s / c is s when
        # s is 0 (c >= 1 on every row with a finite result)
        out = np.log1p(terms.sum(axis=1) / count) + np.log(count) + top
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            out[bad] = np.log(np.exp(a[bad]).sum(axis=1))
    return out


def _sq_distances(U: np.ndarray, means: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances, computed per component in one buffer."""
    out = np.empty((U.shape[0], means.shape[0]))
    diff = np.empty(U.shape)
    for c, mean in enumerate(means):
        np.subtract(U, mean, out=diff)
        out[:, c] = np.einsum("ij,ij->i", diff, diff)
    return out


def nearest_search(U: np.ndarray, means: np.ndarray, u_sq: np.ndarray | None = None,
                   out=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest mean of every row (0-based), an estimate of the squared
    distance to it, and a bound on the estimate's error, for each of R models.

    `means` holds the (R, k, d) means of R models searched together; the
    labels and estimates are (R, n), with one bound per model. A caller may
    pass the rows' squared norms `u_sq` and, in `out`, a label and an
    estimate array whose first R rows take the results.

    The labels are bit-identical to ``np.argmin(_sq_distances(U, means[r]),
    axis=1)`` for each model r: ties go to the lowest index. The estimate is
    est = ||u||^2 + h_b, where h_b = ||mu_b||^2 - 2 u.mu_b is the chosen
    mean's score from one matrix product; rows rescored exactly carry their
    exact distance instead. Every row has |est - D| <= bound, where D is the
    difference-form distance `chosen_sq_distances` returns for its label.

    The models' means are stacked k-major, row c * R + r holding mean c of
    model r, so one product per block of rows (at most 1024 rows and 2^16
    scores) scores every model, and the (k, R * rows) score block is
    reduced along its leading axis, over contiguous memory: the best score,
    then the number of scores within the recheck tolerance of it and the
    sum of their indices. A row with one such score takes its index as the
    label; the others are rescored exactly.

    Rounding bound. Let S = ||u||^2 + max_c ||mu_c||^2 and g = (d + 3) eps
    with eps = 2^-53. The product scores h_c err by at most 2gS (the dot
    product by g * sum_j |2 u_j mu_cj| <= gS, ||mu_c||^2 by gS, the final
    addition by 2 eps S), and the difference-form distances D_c by at most
    2gS (each term carries 3 eps, the sum g, and ||u - mu_c||^2 <= 2S).
    h_c and D_c - ||u||^2 estimate the same number.

    Labels: if the exact rule picks a and the search picks b != a, then
    0 <= h_a - h_b <= (D_a - D_b) + 8gS <= 8gS, so the two best scores lie
    within 8gS of each other. Rows with a second score at most
    best + rtol * S, with S as computed and rtol = max(1e-10, 16g), are
    rescored exactly with `_sq_distances`, exact ties included; rtol is at
    least twice the bound, which covers the rounding of the computed S and
    of best + rtol * S (|best| <= 2S).

    Estimate: the computed ||u||^2 errs by at most gS and the addition of
    h_b by at most eps (||u||^2 + |h_b|) <= 3 eps S <= gS, so
    |est - D| <= 2gS + 2gS + gS + gS = 6gS. The returned bound,
    8g (max_i ||u_i||^2 + max_c ||mu_c||^2), covers every row and the
    rounding of the computed maxima.
    """
    R, k, d = means.shape
    n = U.shape[0]
    stacked = means.transpose(1, 0, 2).reshape(k * R, d)
    mu_sq = np.einsum("ij,ij->i", stacked, stacked)
    mu_max = mu_sq.reshape(k, R).max(axis=0)
    neg2_means = -2.0 * stacked
    g = (d + 3) * 2.0 ** -53
    rtol = max(1e-10, 16.0 * g)
    # a row's near scores are counted, and their indices added up, in the
    # smallest type that holds k: a sum over several indices may wrap, but
    # such rows are rescored anyway
    small = np.min_scalar_type(k)
    index = np.arange(k, dtype=small)[:, None]
    labels, est = [b[:R] for b in out] if out else (np.empty((R, n), np.intp), np.empty((R, n)))
    u_max = 0.0
    rows = max(1, min(_NEAREST_ROWS, _BLOCK_SCORES // (k * R)))
    for lo in range(0, n, rows):
        block = U[lo:lo + rows]
        b = block.shape[0]
        scores = neg2_means @ block.T
        scores += mu_sq[:, None]
        scores = scores.reshape(k, R * b)
        best = scores.min(axis=0)
        # without u_sq, the norms are computed here while the block is in cache
        u_blk = np.einsum("ij,ij->i", block, block) if u_sq is None else u_sq[lo:lo + b]
        u_max = max(u_max, float(u_blk.max()))
        tol = rtol * (u_blk + mu_max[:, None])
        close = (scores <= best + tol.ravel()).view(np.uint8)
        lab = np.add.reduce(close * index, axis=0, dtype=small)
        near = np.flatnonzero(np.add.reduce(close, axis=0, dtype=small) > 1)
        best += np.tile(u_blk, R)
        if near.size:
            owner, row = np.divmod(near, b)
            for r in np.unique(owner):
                mine = near[owner == r]
                exact = _sq_distances(block[row[owner == r]], means[r])
                lab[mine] = np.argmin(exact, axis=1)
                best[mine] = exact[np.arange(mine.size), lab[mine]]
        labels[:, lo:lo + b] = lab.reshape(R, b)
        est[:, lo:lo + b] = best.reshape(R, b)
    return labels, est, 8.0 * g * (u_max + mu_max)


def chosen_sq_distances(U: np.ndarray, means: np.ndarray, labels: np.ndarray,
                        rows: np.ndarray) -> np.ndarray:
    """||u_i - mu_{labels[i]}||^2 in the difference form of `_sq_distances`.

    `labels` (0-based) belong to `rows` of U. Computed in row blocks, so no
    n x d temporary is made.
    """
    out = np.empty(rows.size)
    for lo in range(0, rows.size, _NEAREST_ROWS):
        part = slice(lo, lo + _NEAREST_ROWS)
        diff = means[labels[part]]
        # gathered rows are freed at once, so at most two blocks live (peak memory)
        np.subtract(U[rows[part]], diff, out=diff)
        out[part] = np.einsum("ij,ij->i", diff, diff)
    return out


def spherical_log_likelihood(B, model: MeanModel) -> float:
    """Equal-weight spherical mixture log-likelihood of the coefficient set.

    sum_i log sum_c (1/k) N(b_i; mu_c, scale * I). Each row's term is
    computed from that row alone, in row blocks of fixed size, and the terms
    are summed exactly (`math.fsum`), so the total is the correctly rounded
    sum of the per-row terms whatever the block size or the row order.
    """
    U = coef_values(B)
    if U.shape[0] == 0:
        raise ValueError("empty coefficient set")
    if U.shape[1] != model.d:
        raise ValueError("dimension mismatch between coefficients and means")
    rows = np.empty(U.shape[0])
    for lo in range(0, U.shape[0], _NEAREST_ROWS):
        scores = model.log_scores(_sq_distances(U[lo:lo + _NEAREST_ROWS], model.means))
        rows[lo:lo + _NEAREST_ROWS] = row_logsumexp(scores)
    return math.fsum(rows)

