"""Trimmed k-means: objective, concentration step, and multi-start driver.

The model scores each point by its best component log-density under a
shared spherical scale; a fraction alpha of the worst-scoring points is
excluded from the objective and the mean updates. Each iteration retains
the best-scoring points, splits them by nearest mean, and recenters. The
multi-start driver repeats from random initializations and keeps the
restart with the largest objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix

from .basis import coef_values
from .mixtures import (MeanModel, chosen_sq_distances, kmeans_allocate,
                       nearest_search)


@dataclass(frozen=True)
class TrimSpec:
    """Trim fraction alpha in [0, 1); floor(n * (1 - alpha)) points are kept."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")

    def retained_count(self, n: int) -> int:
        """floor(n * (1 - alpha)) in exact arithmetic on alpha as written
        (its shortest decimal form), so 0.1 means one tenth."""
        return math.floor(int(n) * (1 - Fraction(str(self.alpha))))


@dataclass
class ClusterFit:
    """Final fitted model with per-point labels and trim flags.

    `labels[i]` is the nearest-mean cluster (1-based) of every point,
    including the points that were trimmed while fitting; `trimmed[i]`
    records whether point i was excluded from the final objective.
    """

    model: MeanModel
    labels: np.ndarray
    trimmed: np.ndarray
    objective: float
    iterations: int
    restart_index: int

    @property
    def k(self) -> int:
        return self.model.k


def _scores(model: MeanModel, d2: np.ndarray) -> np.ndarray:
    """Log-scores of points at squared distances d2 from their component."""
    return model.log_score_const - d2 / (2.0 * model.scale)


def _retain(scores: np.ndarray, h: int) -> np.ndarray:
    """Ascending indices of the h largest scores; boundary ties toward lower index.

    Every score above the h-th largest is kept, then the lowest-index scores
    equal to it until h are kept.
    """
    n = scores.size
    cut = np.partition(scores, n - h)[n - h]
    keep = scores > cut
    ties = np.flatnonzero(scores == cut)
    keep[ties[:h - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def _certified_retain(U: np.ndarray, model: MeanModel, labels: np.ndarray,
                      est: np.ndarray, bound: float, h: int) -> np.ndarray:
    """`_retain` of the exact best scores, from estimated distances.

    `est` and `bound` come from `nearest_search`: each row's chosen
    difference-form distance D lies within `bound` of `est`, so the h-th
    smallest estimate, `cut`, lies within `bound` of the h-th smallest D.
    With w = 2 bound + margin, a row with est < cut - w has a D more than
    the margin below that h-th D, and a row with est > cut + w has one more
    than the margin above it. Two distances D1 < D2 get strictly ordered
    scores const - D / t (t = 2 scale) once
    D2 - D1 > 2.01 eps (D1 + D2) + 2 eps t |const|, since D / t and the
    subtraction each round by eps of their size; the margin,
    16 eps (|cut| + bound + t |const|), exceeds that near the cut and also
    covers the rounding of cut -/+ w. So the first rows score strictly above
    the h-th score and the second strictly below it: the exact rule keeps
    and trims them whatever its tie-break. Only the rows in between (every
    row scoring equal to the h-th among them) get exact scores, and
    `_retain` picks the rest of the h from them in ascending index order
    (all of them when they are exactly that many).
    """
    cut = np.partition(est, h - 1)[h - 1]
    t = 2.0 * model.scale
    margin = 16.0 * 2.0 ** -53 * (abs(cut) + bound + t * abs(model.log_score_const))
    w = 2.0 * bound + margin
    keep = est < cut - w
    band = np.flatnonzero((est <= cut + w) & ~keep)
    need = h - np.count_nonzero(keep)
    if band.size > need:
        d2 = chosen_sq_distances(U, model.means, labels[band], band)
        band = band[_retain(_scores(model, d2), need)]
    keep[band] = True
    return np.flatnonzero(keep)


def _classify(U: np.ndarray, model: MeanModel, h: int):
    """Nearest-mean labels of every point, trim flags, and the trimmed objective."""
    n = U.shape[0]
    labels = nearest_search(U, model.means)[0]
    scores = _scores(model, chosen_sq_distances(U, model.means, labels))
    kept = _retain(scores, h)
    trimmed = np.ones(n, dtype=bool)
    trimmed[kept] = False
    objective = float(np.sum(scores[kept])) / n
    return labels + 1, trimmed, objective


def tclust_objective(U, model: MeanModel, trim: TrimSpec) -> float:
    """Average best-component log-score over the retained points.

    The floor(n * (1 - alpha)) points with the largest best-component
    scores contribute; the rest contribute zero. The average is over all
    n points.
    """
    U = coef_values(U)
    h = trim.retained_count(U.shape[0])
    if h < 1:
        raise ValueError("trim level leaves no points")
    return _classify(U, model, h)[2]


def tclust_step(U, model: MeanModel,
                trim: TrimSpec) -> tuple[MeanModel, np.ndarray, np.ndarray]:
    """One concentration step: retain, split by nearest mean, recenter.

    Returns the updated model, the ascending indices of the retained
    points and their 1-based clusters; `trimmed_kmeans` stops when the
    last two repeat. Clusters left empty by the split are re-seeded at the
    worst-scoring retained points (successively, in cluster order), which
    keeps the update deterministic.
    """
    U = coef_values(U)
    n, d = U.shape
    h = trim.retained_count(n)
    if h < model.k:
        raise ValueError("retained count is smaller than the cluster count")

    labels, est, bound = nearest_search(U, model.means)
    kept = _certified_retain(U, model, labels, est, bound, h)
    lab = labels[kept]

    # one stable sort (a radix sort on the small label type) lays out each
    # cluster's members contiguously and in ascending index order; the
    # one-hot k x n CSR product then adds each cluster's rows in that order,
    # from zero, as U[members].sum(axis=0) does, without copying them
    counts = np.bincount(lab, minlength=model.k)
    members = kept[np.argsort(lab.astype(np.min_scalar_type(model.k)), kind="stable")]
    indptr = np.concatenate(([0], np.cumsum(counts)))
    if d > 1:
        # scipy stores the indices as int32 when they fit, and checks and
        # converts wider ones on every construction
        idx = np.int32 if n <= np.iinfo(np.int32).max else np.intp
        onehot = csr_matrix((np.ones(h), members.astype(idx), indptr.astype(idx)),
                            shape=(model.k, n))
        new_means = onehot @ U
    else:
        # numpy sums a single column pairwise, not row after row; gathering
        # it copies only n numbers
        new_means = np.stack([U[members[a:b]].sum(axis=0)
                              for a, b in zip(indptr[:-1], indptr[1:])])
    new_means /= np.maximum(counts, 1)[:, None]
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        scores = _scores(model, chosen_sq_distances(U, model.means, lab, kept))
        worst_first = kept[np.argsort(scores, kind="stable")]
        for slot, c in enumerate(empty):
            new_means[c] = U[worst_first[slot % h]]

    return MeanModel(new_means, model.scale), kept, lab + 1


def seed_int(seq: np.random.SeedSequence) -> int:
    """An integer seed drawn from a SeedSequence, for APIs that take an int."""
    return int(seq.generate_state(1, np.uint64)[0])


def trimmed_kmeans(U, k: int, trim: TrimSpec, restarts: int = 20,
                   max_iter: int = 20, seed: int = 0,
                   init_means: np.ndarray | None = None,
                   scale: float = 1.0) -> ClusterFit:
    """Multi-start trimmed k-means.

    Each restart starts from k distinct points drawn uniformly from U
    (stream derived from (seed, restart index)) and iterates the
    concentration step until the retained set and all assignments repeat,
    or `max_iter` is reached. The restart with the largest final objective
    wins; its means are returned in lexicographic order with labels
    remapped to match.

    `init_means` replaces the random initialization (restarts is then
    forced to 1), which is how reference runs reproduce a specific start.
    """
    U = coef_values(U)
    n, d = U.shape
    if n == 0:
        raise ValueError("empty data")
    if k < 1:
        raise ValueError("k must be positive")
    h = trim.retained_count(n)
    if h < k:
        raise ValueError(f"retained count {h} is smaller than k={k}")
    if restarts < 1:
        raise ValueError("restarts must be positive")
    if init_means is not None:
        restarts = 1

    children = np.random.SeedSequence(seed).spawn(restarts)

    best = None
    for r in range(restarts):
        if init_means is not None:
            means0 = np.atleast_2d(np.asarray(init_means, dtype=float)).copy()
            if means0.shape != (k, d):
                raise ValueError("init_means must be k x d")
        else:
            rng = np.random.default_rng(children[r])
            means0 = U[rng.choice(n, size=k, replace=False)].copy()
        model = MeanModel(means0, scale)

        prev_kept = None
        prev_labels = None
        iterations = 0
        for _ in range(max_iter):
            model, kept, kept_labels = tclust_step(U, model, trim)
            iterations += 1
            if (prev_kept is not None
                    and np.array_equal(kept, prev_kept)
                    and np.array_equal(kept_labels, prev_labels)):
                break
            prev_kept = kept
            prev_labels = kept_labels

        labels, trimmed, objective = _classify(U, model, h)
        if best is None or objective > best[0]:
            best = (objective, model, labels, trimmed, iterations, r)

    objective, model, labels, trimmed, iterations, r = best
    final_model, order = model.finalized()
    relabel = np.empty(k, dtype=np.int64)
    relabel[order] = np.arange(k)
    labels = relabel[labels - 1] + 1
    return ClusterFit(model=final_model, labels=labels, trimmed=trimmed,
                      objective=objective, iterations=iterations,
                      restart_index=r)


def allocate_all(U, fit: ClusterFit) -> np.ndarray:
    """Nearest-mean labels for every point, trimmed ones included."""
    return kmeans_allocate(coef_values(U), fit.model)
