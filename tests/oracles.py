"""Independent reference implementations used to check the package.

Everything here is deliberately written with plain loops or a different
algorithmic route than the library (pair counting instead of contingency
algebra, exhaustive enumeration instead of concentration steps, scipy
cdist instead of the library's distance kernels). `exact_classification`
is the exception: it is the library's exact route (`_sq_distances` over
every row, then `_retain`), which its estimated search must reproduce bit
for bit. `study_cell` is a plain lookup into a study report, and
`kept_and_labels` a plain reading of a concentration step's state.
"""

import itertools
import math

import numpy as np
from scipy.spatial.distance import cdist

from fdcluster.mixtures import _sq_distances
from fdcluster.tclust import _retain


def pair_counting_ari(a, b):
    """Chance-corrected pair agreement counted directly over all pairs."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.size
    same_a = a[:, None] == a[None, :]
    same_b = b[:, None] == b[None, :]
    iu = np.triu_indices(n, k=1)
    n11 = int(np.sum(same_a[iu] & same_b[iu]))
    n_a = int(np.sum(same_a[iu]))
    n_b = int(np.sum(same_b[iu]))
    total = n * (n - 1) // 2
    expected = n_a * n_b / total
    denom = 0.5 * (n_a + n_b) - expected
    if denom == 0:
        return 1.0
    return (n11 - expected) / denom


def exact_scores(U, model):
    """Nearest means (0-based) of every row from exact distances to all
    means, ties to the lowest index, and each row's exact log-score."""
    d2 = _sq_distances(U, model.means)
    labels = np.argmin(d2, axis=1)
    chosen = d2[np.arange(U.shape[0]), labels]
    return labels, model.log_score_const - chosen / (2.0 * model.scale)


def exact_classification(U, model, h):
    """Labels (1-based) of every row, trim flags and the trimmed objective
    of one model, from exact scores of every row: the h best are kept by
    `_retain`, and the objective adds their scores in ascending row order
    and divides by n."""
    labels, scores = exact_scores(U, model)
    kept = _retain(scores, h)
    trimmed = np.ones(U.shape[0], dtype=bool)
    trimmed[kept] = False
    return labels + 1, trimmed, float(np.sum(scores[kept])) / U.shape[0]


def kept_and_labels(assigned):
    """The (R, h) ascending kept rows of each restart and their 1-based
    clusters, from a concentration step's (R, n) `assigned` array (0 marks a
    trimmed row); restarts keeping different counts raise."""
    kept = np.stack([np.flatnonzero(row) for row in assigned])
    return kept, np.take_along_axis(assigned, kept, axis=1)


def brute_objective(U, means, alpha, lam=1.0):
    """Trimmed objective by direct looping over points and components."""
    n, d = U.shape
    k = len(means)
    scores = []
    for u in U:
        best = -np.inf
        for mu in means:
            diff = u - mu
            val = (-math.log(k) - 0.5 * d * math.log(2 * math.pi * lam)
                   - float(diff @ diff) / (2 * lam))
            best = max(best, val)
        scores.append(best)
    h = int(math.floor(round(n * (1 - alpha), 9)))
    return sum(sorted(scores, reverse=True)[:h]) / n


def exhaustive_optimum(U, k, alpha, lam=1.0):
    """Global trimmed-objective optimum over every retained subset and
    every labeled assignment (candidate means are part centroids)."""
    n = U.shape[0]
    h = int(math.floor(round(n * (1 - alpha), 9)))
    best = -np.inf
    for subset in itertools.combinations(range(n), h):
        for assign in itertools.product(range(k), repeat=h):
            means = []
            for c in range(k):
                members = [U[i] for i, a in zip(subset, assign) if a == c]
                means.append(np.mean(members, axis=0) if members else None)
            fallback = next(m for m in means if m is not None)
            means = [m if m is not None else fallback for m in means]
            best = max(best, brute_objective(U, means, alpha, lam))
    return best


def reference_lloyd(U, init_means, max_iter=20):
    """Plain Lloyd k-means sharing only the start and the empty-cluster
    repair convention (worst-fit point re-seeds an empty cluster)."""
    means = np.array(init_means, dtype=float, copy=True)
    k = means.shape[0]
    prev = None
    for _ in range(max_iter):
        d2 = cdist(U, means, "sqeuclidean")
        labels = np.argmin(d2, axis=1)
        nearest = d2[np.arange(U.shape[0]), labels]
        empty = [c for c in range(k) if not np.any(labels == c)]
        if empty:
            worst_first = np.argsort(-nearest, kind="stable")
            for slot, c in enumerate(empty):
                means[c] = U[worst_first[slot]]
        for c in range(k):
            if np.any(labels == c):
                means[c] = U[labels == c].mean(axis=0)
        if prev is not None and np.array_equal(labels, prev):
            break
        prev = labels
    d2 = cdist(U, means, "sqeuclidean")
    return np.argmin(d2, axis=1) + 1, means


def contingency_ari(a, b):
    """Hubert-Arabie formula coded independently from the library: dense
    contingency table, comb sums, float expected term."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.size
    cats_a = sorted(set(a.tolist()))
    cats_b = sorted(set(b.tolist()))
    table = {}
    for x, y in zip(a.tolist(), b.tolist()):
        table[(x, y)] = table.get((x, y), 0) + 1

    def comb2(x):
        return x * (x - 1) // 2

    sum_cells = sum(comb2(v) for v in table.values())
    row = {x: sum(v for (i, _), v in table.items() if i == x) for x in cats_a}
    col = {y: sum(v for (_, j), v in table.items() if j == y) for y in cats_b}
    sum_a = sum(comb2(v) for v in row.values())
    sum_b = sum(comb2(v) for v in col.values())
    expected = sum_a * sum_b / comb2(n)
    denom = 0.5 * (sum_a + sum_b) - expected
    if denom == 0:
        return 1.0
    return (sum_cells - expected) / denom


def reference_ddse(ks, pens, loss, min_window=4, rtol=0.05):
    """(window ks, kappa, [(length, slope)]) of the slope rule, by brute force.

    The windows are the suffixes of the pen-sorted trace from `min_window`
    points up to the larger half of the candidates. Every maximal run of
    adjacent stable window pairs (slopes within `rtol` of the shorter
    window's) is listed; the longest run, the last one on a tie, gives its
    largest window, and with no stable pair the largest window is used. The
    slopes are the least-squares formula in the library's arithmetic, so the
    stability tests compare the same numbers.
    """
    order = np.argsort(pens, kind="stable")
    ks, pens, loss = (np.asarray(a)[order] for a in (ks, pens, loss))
    K = len(ks)
    longest = max(min_window, math.ceil(K / 2))
    lengths = [w for w in range(min_window, K + 1) if w <= longest]
    slopes = []
    for w in lengths:
        x, y = pens[K - w:], loss[K - w:]
        xc = x - x.mean()
        slopes.append(float(xc @ (y - y.mean())) / float(xc @ xc))
    stable = [abs(slopes[i + 1] - slopes[i]) < rtol * max(abs(slopes[i]), 1e-300)
              for i in range(len(lengths) - 1)]
    runs = [(start, stop) for start in range(len(stable))
            for stop in range(start + 1, len(stable) + 1)
            if all(stable[start:stop])
            and (start == 0 or not stable[start - 1])
            and (stop == len(stable) or not stable[stop])]
    best = len(lengths) - 1
    if runs:
        start, stop = max(runs, key=lambda run: (run[1] - run[0], run[1]))
        best = stop               # pair stop - 1 joins windows stop - 1 and stop
    chosen = lengths[best]
    return ([int(k) for k in ks[K - chosen:]], abs(slopes[best]),
            list(zip(lengths, slopes)))


def study_cell(report, m, n, method, alpha=None):
    """The row of a `StudyReport` for one grid cell and method (any trim
    level when `alpha` is None); KeyError when the report has none."""
    for r in report.rows:
        if r.m == m and r.n == n and r.method == method:
            if alpha is None or abs(r.alpha - alpha) < 1e-12:
                return r
    raise KeyError(f"no row for ({m}, {n}, {method}, {alpha})")
