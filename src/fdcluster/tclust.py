"""Trimmed k-means: objective, concentration step, and multi-start driver.

The model scores each point by its best component log-density under a
shared spherical scale; a fraction alpha of the worst-scoring points is
excluded from the objective and the mean updates. Each iteration retains
the best-scoring points, splits them by nearest mean, and recenters. The
multi-start driver repeats from random initializations and keeps the
restart with the largest objective.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix

from .basis import coef_values
from .mixtures import _CHUNK, MeanModel, chosen_sq_distances, nearest_search


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
    """The winning restart: its finalized model, objective, steps and index.

    Per-point labels and trim flags come from `allocate_all`.
    """

    model: MeanModel
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


def _certified_retain(U: np.ndarray, model: MeanModel, h: int,
                      u_sq: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """`_retain` of each restart's exact best scores, from estimated distances.

    `model` holds the (R, k, d) means of R restarts. Returns the (R, h) kept
    rows in ascending order and their 0-based nearest means. For one
    restart: `nearest_search` gives each row's label, an estimate `est` and
    a `bound` such that the chosen difference-form distance D lies within
    `bound` of `est`, so the h-th smallest estimate, `cut`, lies within
    `bound` of the h-th smallest D. With w = 2 bound + margin, a row with
    est < cut - w has a D more than the margin below that h-th D, and a row
    with est > cut + w has one more than the margin above it. Two distances
    D1 < D2 get strictly ordered scores const - D / t (t = 2 scale) once
    D2 - D1 > 2.01 eps (D1 + D2) + 2 eps t |const|, since D / t and the
    subtraction each round by eps of their size; the margin,
    16 eps (|cut| + bound + t |const|), exceeds that near the cut and also
    covers the rounding of cut -/+ w. So the first rows score strictly above
    the h-th score and the second strictly below it: the exact rule keeps
    and trims them whatever its tie-break. Only the rows in between (every
    row scoring equal to the h-th among them) get exact scores, and
    `_retain` picks the rest of the h from them in ascending index order
    (all of them when they are exactly that many). When h is every row,
    both rules keep them all, and no cut is made.
    """
    labels, est, bound = nearest_search(U, model.means, u_sq)
    R, n = labels.shape
    if h == n:
        return np.tile(np.arange(n), (R, 1)), labels
    cut = np.partition(est, h - 1, axis=1)[:, h - 1]
    t = 2.0 * model.scale
    margin = 16.0 * 2.0 ** -53 * (np.abs(cut) + bound + t * abs(model.log_score_const))
    w = 2.0 * bound + margin
    keep = est < (cut - w)[:, None]
    band = (est <= (cut + w)[:, None]) & ~keep
    need = h - np.count_nonzero(keep, axis=1)
    for r in np.flatnonzero(np.count_nonzero(band, axis=1) > need):
        rows = np.flatnonzero(band[r])
        d2 = chosen_sq_distances(U, model.means[r], labels[r, rows], rows)
        band[r, rows] = False
        band[r, rows[_retain(_scores(model, d2), need[r])]] = True
    keep |= band
    kept = np.flatnonzero(keep).reshape(-1, h)
    kept -= keep.shape[1] * np.arange(kept.shape[0])[:, None]
    return kept, np.take_along_axis(labels, kept, axis=1)


def _classify(U: np.ndarray, model: MeanModel, h: int, u_sq: np.ndarray | None = None):
    """Nearest-mean labels of every point, trim flags, and the trimmed objective.

    One exact search, scoring and retain over all n rows: `trimmed_kmeans`
    scores a restart stopped at `max_iter` or left with an empty cluster
    with it, and `allocate_all` allocates a finalized model.
    """
    n = U.shape[0]
    labels = nearest_search(U, model.means, u_sq)[0]
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


def tclust_step(U, model: MeanModel, h: int, u_sq: np.ndarray | None = None
                ) -> tuple[MeanModel, np.ndarray, np.ndarray]:
    """One concentration step: retain h rows, split by nearest mean, recenter.

    Returns the updated model, the ascending indices of the retained
    points and their 1-based clusters; `trimmed_kmeans` stops when the
    last two repeat. Clusters left empty by the split are re-seeded at the
    worst-scoring retained points (successively, in cluster order), which
    keeps the update deterministic. A model with (R, k, d) means steps R
    restarts at once: the kept rows and clusters are then (R, h), and each
    restart's result is the one it gets alone. `u_sq` holds the rows'
    squared norms when the caller has them.
    """
    U = coef_values(U)
    n, d = U.shape
    k = model.k
    if h < k:
        raise ValueError("retained count is smaller than the cluster count")
    single = model.means.ndim == 2
    if single:
        model = MeanModel(model.means[None], model.scale)
    means = model.means
    R = means.shape[0]

    kept, lab = _certified_retain(U, model, h, u_sq)

    # one stable sort (a radix sort on the small key type) lays out each
    # (restart, cluster)'s members contiguously and in ascending index order;
    # the one-hot (R k) x n CSR product then adds each cluster's rows in that
    # order, from zero, as U[members].sum(axis=0) does, without copying them
    key = lab.astype(np.min_scalar_type(R * k))
    key += (k * np.arange(R, dtype=key.dtype))[:, None]
    key = key.ravel()
    counts = np.bincount(key, minlength=R * k)
    members = kept.ravel()[np.argsort(key, kind="stable")]
    indptr = np.concatenate(([0], np.cumsum(counts)))
    if d > 1:
        # scipy stores the indices as int32 when they fit, and checks and
        # converts wider ones on every construction
        idx = np.int32 if n <= np.iinfo(np.int32).max else np.intp
        onehot = csr_matrix((np.ones(R * h), members.astype(idx), indptr.astype(idx)),
                            shape=(R * k, n))
        new_means = onehot @ U
    else:
        # numpy sums a single column pairwise, not row after row; gathering
        # it copies only n numbers
        new_means = np.stack([U[members[a:b]].sum(axis=0)
                              for a, b in zip(indptr[:-1], indptr[1:])])
    new_means /= np.maximum(counts, 1)[:, None]
    new_means = new_means.reshape(R, k, d)
    empty = np.flatnonzero(counts == 0)
    for r in np.unique(empty // k):
        d2 = chosen_sq_distances(U, means[r], lab[r], kept[r])
        worst_first = kept[r][np.argsort(_scores(model, d2), kind="stable")]
        for slot, c in enumerate(empty[empty // k == r] % k):
            new_means[r, c] = U[worst_first[slot % h]]

    if single:
        return MeanModel(new_means[0], model.scale), kept[0], lab[0] + 1
    return MeanModel(new_means, model.scale), kept, lab + 1


def seed_int(seq: np.random.SeedSequence) -> int:
    """An integer seed drawn from a SeedSequence, for APIs that take an int."""
    return int(seq.generate_state(1, np.uint64)[0])


# in a forked pool worker: its task with the shared argument bound (set once,
# when the worker starts; None in any other process)
_worker_task = None


def _start_worker(task, shared):
    global _worker_task
    _worker_task = functools.partial(task, shared)


def _run_in_worker(item):
    return _worker_task(item)


def map_tasks(task, shared, items, cost, jobs: int = 1) -> list:
    """[task(shared, item) for item in items], run on up to `jobs` processes.

    With one worker the items run here, in input order. Otherwise they go
    costliest first (largest `cost(item)`, ties in input order) to
    min(jobs, len(items)) workers forked from this process; `shared`
    reaches them through fork copy-on-write, not by pickle, so a large
    array in it is neither copied nor serialized, while each item and
    result is pickled. Either way the exception raised is that of the
    first failing item in input order (from a worker, chained to its
    traceback); items not yet started are then dropped, and the workers
    are joined before this returns or raises.
    """
    items = list(items)
    workers = min(jobs, len(items))
    if workers <= 1:
        return [task(shared, item) for item in items]
    order = sorted(range(len(items)), key=lambda i: cost(items[i]), reverse=True)
    # fork, not spawn: a spawned worker would need `shared` pickled
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               _start_worker, (task, shared))
    try:
        futures = {i: pool.submit(_run_in_worker, items[i]) for i in order}
        return [futures[i].result() for i in range(len(items))]
    finally:
        pool.shutdown(cancel_futures=True)


def trimmed_kmeans(U, k: int, trim: TrimSpec, restarts: int = 20,
                   max_iter: int = 20, seed: int = 0,
                   init_means: np.ndarray | None = None,
                   scale: float = 1.0) -> ClusterFit:
    """Multi-start trimmed k-means.

    Each restart starts from k distinct points drawn uniformly from U
    (stream derived from (seed, restart index)) and iterates the
    concentration step until the retained set and all assignments repeat,
    or `max_iter` is reached. The restart with the largest final objective
    wins (the first in restart order among equals); its means are returned
    in lexicographic order.

    Up to floor(_CHUNK / n) restarts step together as one batch (one at a
    time once n > _CHUNK); a restart leaves the batch when it stops and the
    next one takes its place. Batching changes no restart's result.

    A restart that stopped on a repeat with no cluster empty is scored from
    its last step: that step recentered the same kept rows and clusters as
    the step before, so it returned, bit for bit, the means it scored, and
    its certified retain is already the exact one; the objective is the
    ascending sum of its kept rows' exact scores. Any other restart is
    scored by a full `_classify`.

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
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    if init_means is not None:
        restarts = 1
        means0 = np.atleast_2d(np.asarray(init_means, dtype=float))
        if means0.shape != (k, d):
            raise ValueError("init_means must be k x d")

    cap = max(1, _CHUNK // n)
    u_sq = np.einsum("ij,ij->i", U, U)

    # the batch: restart indices, their means, steps taken and the last
    # step's kept rows and clusters (-1 before the first step)
    order = np.empty(0, dtype=np.intp)
    means = np.empty((0, k, d))
    iterations = np.empty(0, dtype=np.intp)
    prev_kept = prev_labels = np.empty((0, h), dtype=np.intp)
    best = None
    next_r = 0
    while next_r < restarts or order.size:
        joining = range(next_r, min(restarts, next_r + cap - order.size))
        if joining:
            if init_means is not None:
                starts = [means0]
            else:
                # restart r's stream is the r-th child SeedSequence(seed).spawn
                # would make, built when the restart joins
                starts = [U[np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
                            .choice(n, size=k, replace=False)] for r in joining]
            order = np.concatenate((order, joining))
            means = np.concatenate((means, starts))
            iterations = np.concatenate((iterations, np.zeros(len(joining), np.intp)))
            fresh = np.full((len(joining), h), -1)
            prev_kept = np.concatenate((prev_kept, fresh))
            prev_labels = np.concatenate((prev_labels, fresh))
            next_r = joining.stop

        model, kept, kept_labels = tclust_step(U, MeanModel(means, scale), h, u_sq)
        iterations += 1
        repeated = (kept == prev_kept).all(axis=1) & (kept_labels == prev_labels).all(axis=1)
        done = repeated | (iterations == max_iter)
        stay = ~done
        # the kept rows and 0-based clusters of each restart scored from its
        # last step, copied out so that the batch's rows can be dropped
        # before any restart is scored (peak memory)
        last = {j: (kept[j].copy(), kept_labels[j] - 1) for j in np.flatnonzero(repeated)
                if np.bincount(kept_labels[j], minlength=k + 1)[1:].all()}
        prev_kept, prev_labels = kept[stay], kept_labels[stay]
        del kept, kept_labels
        for j in np.flatnonzero(done):
            fit = MeanModel(model.means[j], scale)
            if j in last:
                rows, lab = last.pop(j)
                d2 = chosen_sq_distances(U, fit.means, lab, rows)
                objective = float(np.sum(_scores(fit, d2))) / n
            else:
                objective = _classify(U, fit, h, u_sq)[2]
            r = int(order[j])
            if best is None or objective > best[0] or (objective == best[0] and r < best[3]):
                best = (objective, fit, int(iterations[j]), r)
        order, means, iterations = order[stay], model.means[stay], iterations[stay]

    objective, model, iterations, r = best
    return ClusterFit(model=model.finalized(), objective=objective,
                      iterations=iterations, restart_index=r)


def allocate_all(U, fit: ClusterFit, trim: TrimSpec) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-mean labels (1-based) of every point, trimmed ones included,
    and the trim flags of `fit`'s model at level `trim`.

    One `_classify` of the finalized model, the only place labels and trim
    flags are computed: a point equally near two means goes to the first in
    their sorted order.
    """
    U = coef_values(U)
    labels, trimmed, _ = _classify(U, fit.model, trim.retained_count(U.shape[0]))
    return labels, trimmed
