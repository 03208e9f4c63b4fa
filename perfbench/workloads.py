"""Workload definitions: input sizes, program options and check thresholds.

Each workload has a full size, which the benchmark runs, and a smoke size
with the same shape, which the benchmark's own tests run through the same
code path in a few seconds. The full sizes pass every check on every seed
tried (sweep 40 seeds, ingest and study 30); the smoke sizes are too small
for that, and the tests run them at seed 1.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class VolumeSpec:
    """A planted-cluster CIVT volume and the `fdcluster fit` options run on it.

    Voxel series are one of `planted` sinusoid mean curves (frequencies
    1..planted cycles) or, for a `background` share of voxels, pure noise with a
    larger SD; every voxel adds its own offset and linear drift, which
    detrending removes, plus Gaussian noise of SD `sigma`.
    """

    dims: tuple
    m: int
    planted: int
    background: float
    sigma: float
    background_sigma: float
    d: int
    alpha: str          # passed to the CLI verbatim; parsed exactly by the checks
    k_lo: int
    k_hi: int
    restarts: int
    check_k_hat: bool   # whether k_hat must equal the planted count
    min_inlier_ari: float
    max_iter: int = 20  # the program's default

    @property
    def n(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz


@dataclass(frozen=True)
class StudyCall:
    """One `fdcluster simulate` call: a study cell and the methods fitted on it."""

    study: str
    m: int
    n: int
    # (method spec, published ARI mean, tolerance) per method
    targets: tuple
    replicates: int
    restarts: int
    min_gap: float | None = None   # required ARI(first) - ARI(second)


# sweep: stage 2 dominates. The candidate range ends at twice the planted
# count, so every model in the slope window splits one planted cluster once;
# the loss then falls evenly there and the slope rule picks the planted count.
SWEEP = VolumeSpec(dims=(20, 20, 15), m=240, planted=4, background=0.03,
                   sigma=1.25, background_sigma=2.5, d=48, alpha="0.05",
                   k_lo=2, k_hi=8, restarts=5, check_k_hat=True,
                   min_inlier_ari=0.99)

# ingest: long series and the shortest sweep the selection rule accepts (4
# candidates, 3 concentration steps), so stage 1 (load, detrend, OLS,
# normalization) takes about a third of the time and its float64 copies
# set the peak memory (payload 16000 x 2000 x 4 B = 128 MB). Three restarts, not
# one: a single restart whose two starting points share a cluster ends, on
# about one seed in twelve, with both means between the two clusters.
INGEST = VolumeSpec(dims=(40, 20, 20), m=2000, planted=2, background=0.0,
                    sigma=1.0, background_sigma=2.0, d=100, alpha="0.05",
                    k_lo=2, k_hi=5, restarts=3, check_k_hat=False,
                    min_inlier_ari=0.99, max_iter=3)

# study: the Table 1 (S1) and Table 2 (S2) cells of acceptance tests c01 and
# c02, with their published values and tolerances, at fewer replicates and
# restarts. Many small fits: per-call overhead, not bulk arithmetic.
# Each check is on a mean over replicates, so the replicate counts are set
# so that no seed tried (30) lands outside a tolerance: S1 k-means has the
# least room (an occasional hard replicate scores about 0.92), and
# trimming half the points makes dropping a whole class a strong local
# optimum, so trimmed:0.5 keeps c01's 100 restarts (at 30, about one
# replicate in twelve lands there).
def _study(scale: int) -> tuple:
    return (
        StudyCall("S1", 100, 1000, (("kmeans", 0.972, 0.02),),
                  replicates=6 // scale, restarts=20),
        StudyCall("S1", 100, 1000, (("trimmed:0.5", 0.970, 0.03),),
                  replicates=3 // scale, restarts=100),
        StudyCall("S2", 100, 2500, (("gmm", 0.984, 0.02), ("kmeans", 0.934, 0.02)),
                  replicates=4 // scale, restarts=20, min_gap=0.03),
    )


STUDY = _study(scale=1)

SMOKE = {
    "sweep": VolumeSpec(dims=(10, 10, 6), m=80, planted=4, background=0.03,
                        sigma=0.6, background_sigma=2.5, d=16, alpha="0.05",
                        k_lo=2, k_hi=8, restarts=5, check_k_hat=True,
                        min_inlier_ari=0.99),
    "ingest": VolumeSpec(dims=(10, 10, 5), m=300, planted=2, background=0.0,
                         sigma=1.0, background_sigma=2.0, d=20, alpha="0.05",
                         k_lo=2, k_hi=5, restarts=3, check_k_hat=False,
                         min_inlier_ari=0.99, max_iter=3),
    "study": _study(scale=3),
}

FULL = {"sweep": SWEEP, "ingest": INGEST, "study": STUDY}
NAMES = tuple(FULL)


def get(name: str, smoke: bool = False):
    return (SMOKE if smoke else FULL)[name]
