"""Cubic B-spline systems, design matrices, and per-series least-squares filtering.

Stage 1 of the pipeline: every observed series is projected onto a shared
clamped cubic B-spline basis by ordinary least squares, reducing each
length-m series to a d-dimensional coefficient vector. A system is its
clamped knot vector, whose distinct knots are the breakpoints; the basis is
evaluated on it with the Cox-de Boor recursion. The Gram matrix of the
shared design is factorized once, and only its factors are kept and reused
across all series.

`detrend` and `ols_fit` compute every series' result from that series
alone, summing in an order fixed by the grid and the design. A series
therefore gets the same coefficients, to the bit, whether it is fitted
alone or in a block of any size, so the volume can be filtered block by
block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve

ORDER = 4  # cubic splines throughout

# Relative eigenvalue cutoff below which the Gram matrix is treated as
# singular and the minimum-norm (pseudoinverse) path is used instead.
GRAM_RCOND = 1e-10


@dataclass(frozen=True)
class TimeGrid:
    """Ordered sample times t_1 < ... < t_m inside the domain [t_lo, t_hi]."""

    points: np.ndarray
    t_lo: float
    t_hi: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 1:
            raise ValueError("grid needs at least one point")
        if pts.size > 1 and not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        if pts[0] < self.t_lo or pts[-1] > self.t_hi:
            raise ValueError("grid points fall outside the domain")

    @classmethod
    def uniform(cls, t_lo: float, t_hi: float, m: int) -> "TimeGrid":
        if m < 1:
            raise ValueError("m must be positive")
        return cls(points=np.linspace(t_lo, t_hi, m), t_lo=float(t_lo), t_hi=float(t_hi))

    @property
    def m(self) -> int:
        return self.points.size


@dataclass(frozen=True)
class BasisSystem:
    """Clamped cubic B-spline system with d basis functions on [t_lo, t_hi].

    The breakpoints are the d-2 distinct knots: equally spaced, both
    endpoints included. The boundary knots are repeated to the spline order
    `ORDER`, so the basis interpolates at the domain ends.
    """

    t_lo: float
    t_hi: float
    d: int
    knots: np.ndarray


def make_bspline_system(domain, d: int) -> BasisSystem:
    """Build the cubic B-spline system with d basis functions over `domain`.

    Parameters
    ----------
    domain : (t_lo, t_hi) pair with t_lo < t_hi.
    d : number of basis functions, at least 4. The system has d-2 equally
        spaced breakpoints spanning the domain inclusive of both endpoints.
    """
    t_lo, t_hi = float(domain[0]), float(domain[1])
    if not t_lo < t_hi:
        raise ValueError(f"degenerate domain [{t_lo}, {t_hi}]")
    if d < ORDER:
        raise ValueError(f"need at least {ORDER} basis functions, got {d}")
    breakpoints = np.linspace(t_lo, t_hi, d - 2)
    knots = np.concatenate([
        np.full(ORDER, t_lo),
        breakpoints[1:-1],
        np.full(ORDER, t_hi),
    ])
    return BasisSystem(t_lo=t_lo, t_hi=t_hi, d=d, knots=knots)


def _basis_columns(system: BasisSystem, t: np.ndarray):
    """Nonzero basis values at each t: (spans, values) with values[j] the
    ORDER entries for basis indices spans[j]-3 .. spans[j].

    Vectorized Cox-de Boor recursion over all evaluation points.
    """
    knots = system.knots
    d = system.d
    if np.any(t < system.t_lo) or np.any(t > system.t_hi):
        raise ValueError("evaluation point outside the basis domain")

    spans = np.searchsorted(knots, t, side="right") - 1
    np.clip(spans, ORDER - 1, d - 1, out=spans)

    npts = t.size
    values = np.zeros((npts, ORDER))
    left = np.zeros((npts, ORDER))
    right = np.zeros((npts, ORDER))
    values[:, 0] = 1.0
    for r in range(1, ORDER):
        left[:, r] = t - knots[spans + 1 - r]
        right[:, r] = knots[spans + r] - t
        saved = np.zeros(npts)
        for i in range(r):
            denom = right[:, i + 1] + left[:, r - i]
            temp = values[:, i] / denom
            values[:, i] = saved + right[:, i + 1] * temp
            saved = left[:, r - i] * temp
        values[:, r] = saved
    return spans, values


def evaluate_basis(system: BasisSystem, t) -> np.ndarray:
    """Evaluate all d basis functions at each point of the 1-D array t.

    Returns one row per point; each row has at most ORDER nonzero entries,
    nonnegative and summing to one. This is the one place that scatters
    the values of `_basis_columns`.
    """
    tarr = np.asarray(t, dtype=float)
    if tarr.ndim != 1:
        raise ValueError("evaluation points must be a 1-D array")
    spans, values = _basis_columns(system, tarr)
    out = np.zeros((tarr.size, system.d))
    cols = spans[:, None] + np.arange(-(ORDER - 1), 1)[None, :]
    np.put_along_axis(out, cols, values, axis=1)
    return out


@dataclass(frozen=True)
class DesignMatrix:
    """Basis evaluations at the m grid points, with its Gram factorization.

    `solve_normal(rhs)` applies (X^T X)^{-1} (Cholesky) or (X^T X)^+
    (pseudoinverse) depending on the conditioning found at construction.
    X^T is also kept in CSR form (a B-spline design has at most 4 nonzeros
    per row), so that X^T z sums each entry's few terms in one fixed order,
    where a dense matrix product's order depends on the number of series.
    """

    matrix: np.ndarray          # m x d
    singular: bool
    _xt: sparse.csr_matrix = field(repr=False, default=None)
    _cho: tuple = field(repr=False, default=None)
    _pinv: np.ndarray = field(repr=False, default=None)

    @classmethod
    def from_matrix(cls, X: np.ndarray) -> "DesignMatrix":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("design matrix must be 2-D")
        gram = X.T @ X
        eigvals = np.linalg.eigvalsh(gram)
        largest = eigvals[-1]
        singular = largest <= 0 or eigvals[0] <= GRAM_RCOND * largest
        xt = sparse.csr_matrix(X.T)
        if singular:
            pinv = np.linalg.pinv(gram, rcond=GRAM_RCOND)
            return cls(matrix=X, singular=True, _xt=xt, _pinv=pinv)
        cho = cho_factor(gram)
        return cls(matrix=X, singular=False, _xt=xt, _cho=cho)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]

    def solve_normal(self, rhs: np.ndarray) -> np.ndarray:
        """Apply the (pseudo)inverse Gram matrix to a d x n stack of
        right-hand sides; each column's result does not depend on the others."""
        if self.singular:
            # one pseudoinverse column at a time, so every entry adds its d
            # terms in the same order for any n (a matrix product does not)
            out = self._pinv[:, :1] * rhs[:1]
            for c in range(1, self.d):
                out += self._pinv[:, c:c + 1] * rhs[c:c + 1]
            return out
        return cho_solve(self._cho, rhs)


def design_matrix(system: BasisSystem, grid: TimeGrid) -> DesignMatrix:
    """Evaluate the basis at every grid point and factorize the Gram matrix.

    The factorization is computed once per grid and shared by all series
    fitted against it.
    """
    return DesignMatrix.from_matrix(evaluate_basis(system, grid.points))


def ols_fit(design: DesignMatrix, Z: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of an (n, m) stack of series, as (n, d).

    For a well-conditioned Gram matrix this is (X^T X)^{-1} X^T z; when the
    Gram matrix is numerically singular the Moore-Penrose solution
    (X^T X)^+ X^T z is returned instead, which is the minimum-norm
    least-squares solution. Each row's coefficients are the same bits
    whatever the other rows are.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != design.m:
        raise ValueError(f"series of shape {Z.shape} do not match the "
                         f"{design.m} design rows")
    rhs = design._xt @ Z.T               # d x n
    return design.solve_normal(rhs).T    # n x d


def detrend(Z: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Replace each row of an (n, m) float64 stack by its residuals from the
    least-squares fit on (1, t), in place, and return the stack.

    Output rows have zero mean and zero correlation with t; each row is
    detrended on its own, with the same bits for any stack.
    """
    t = grid.points
    if t.size < 2:
        raise ValueError("detrending needs at least two time points")
    tc = t - t.mean()
    stt = float(tc @ tc)
    if stt == 0.0:
        raise ValueError("constant grid: zero time variance")
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != t.size:
        raise ValueError("series length does not match the grid")
    slope = np.einsum("ij,j->i", Z, tc) / stt   # per row, unlike a gemv
    Z -= Z.mean(axis=1, keepdims=True)
    Z -= slope[:, None] * tc[None, :]
    return Z


def coef_values(B) -> np.ndarray:
    """Return B as a C-contiguous float64 (n, d) coefficient matrix.

    An array already in that form is returned as it is; any other is copied
    once here, so the row-major kernels downstream never copy it per call.
    """
    arr = np.ascontiguousarray(B, dtype=float)
    if arr.ndim != 2:
        raise ValueError("expected an n x d coefficient matrix")
    return arr
