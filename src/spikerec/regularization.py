"""SVD-based solvers for the ill-conditioned collocation system.

Truncated pseudo-inverse application, Tikhonov filtering, and L-curve
selection of the regularization parameter.  Everything works on a fixed
SVD of the (column-normalized) collocation matrix, so repeated solves at
different gamma are cheap.  Real data is factored and filtered in real
arithmetic, complex data in complex arithmetic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AllTruncated, ConvergenceFailure, FlatCurveWarning, NonFinite, RankDeficient
from .kernels import as_float, is_finite

LCURVE_FLOOR = 1e-12  # lower grid bound as a multiple of sigma_1
SVD_DROP = 1e-15  # singular values below SVD_DROP * sigma_1 are discarded
LCURVE_GRID = 200  # gamma grid points of the corner scan


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """Thin SVD with strictly positive, nonincreasing singular values; the
    singular vectors are real for a real matrix and complex otherwise."""

    left: np.ndarray  # n_s x r, orthonormal columns
    singular_values: np.ndarray  # length r
    right: np.ndarray  # n_a x r, orthonormal columns

    @property
    def rank(self) -> int:
        return self.singular_values.size

    @cached_property
    def lcurve_table(self) -> tuple:
        """(gamma grid, (2, LCURVE_GRID, r) `_filter_terms` table) of the L-curve scan.

        Both depend on the singular values alone (Hansen 2010, ch. 5), so
        every rhs filtered by these factors shares one read-only table, built
        on first use.  Rank below 2 raises RankDeficient, caching nothing.
        """
        if self.rank < 2:
            raise RankDeficient("L-curve selection needs at least two singular values")
        s = self.singular_values
        grid = np.geomspace(max(s[-1], LCURVE_FLOOR * s[0]), s[0], LCURVE_GRID)
        table = grid, _filter_terms(grid, s * s)
        for a in table:
            a.setflags(write=False)  # a shared table must stay as built
        return table


@dataclass(frozen=True, eq=False)
class TikhonovSolution:
    v: np.ndarray
    gamma: float
    residual_norm: float
    solution_norm: float
    flagged: bool = False


def compute_svd(matrix: np.ndarray) -> SvdFactors:
    """Thin SVD, dropping singular values below SVD_DROP * sigma_1; NonFinite for NaN
    or inf, RankDeficient for a zero matrix, ConvergenceFailure if LAPACK fails."""
    matrix = as_float(matrix)
    if not np.all(np.isfinite(matrix)):
        raise NonFinite("matrix must be finite-valued")
    try:
        u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure("SVD failed to converge") from exc
    if s.size == 0 or s[0] == 0:
        raise RankDeficient("matrix is identically zero")
    keep = s > SVD_DROP * s[0]
    r = int(np.count_nonzero(keep))
    return SvdFactors(left=u[:, :r], singular_values=s[:r], right=vh[:r].conj().T)


def truncate(factors: SvdFactors, tol: float) -> tuple:
    """(left, singular values, right) of the directions with sigma >= tol.

    Boolean-mask indexing copies the kept columns; slicing views instead
    would change BLAS round-off in the products built from them.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    s = factors.singular_values
    keep = s >= tol
    if not np.any(keep):
        raise AllTruncated(f"tolerance {tol:g} exceeds sigma_1 = {s[0]:g}")
    return factors.left[:, keep], s[keep], factors.right[:, keep]


def truncated_pinv_apply(factors: SvdFactors, tol: float, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm solution restricted to singular directions with sigma >= tol."""
    left, s, right = truncate(factors, tol)
    return right @ ((left.conj().T @ rhs) / s)


def _project(factors: SvdFactors, rhs: np.ndarray) -> tuple:
    """(beta = U^H rhs, a = |beta|^2, perp_sq = ||rhs||^2 - sum(a), the squared
    norm of rhs's part outside the range of U, and ||rhs||); NonFinite for a
    rhs with a NaN or infinite entry."""
    rhs = as_float(rhs)
    norm = np.linalg.norm(rhs)
    if not norm < np.inf:  # False for NaN
        raise NonFinite(f"rhs must be finite-valued, not of norm {norm}")
    beta = factors.left.conj().T @ rhs
    a = np.abs(beta) ** 2
    return beta, a, max(float(norm**2 - a.sum()), 0.0), norm


def _solution(factors, beta, a, perp_sq, gamma, flagged=False):
    """The Tikhonov solution at gamma from beta = U^H rhs, a = |beta|^2 and
    perp_sq, its residual and solution norms straight from the SVD expansion."""
    s = factors.singular_values
    den = s * s + gamma**2
    coef = s / den * beta
    res_sq = np.sum((gamma**2 / den) ** 2 * a) + perp_sq
    return TikhonovSolution(
        v=factors.right @ coef,
        gamma=float(gamma),
        residual_norm=float(np.sqrt(max(res_sq, 0.0))),
        solution_norm=float(np.linalg.norm(coef)),
        flagged=flagged,
    )


def tikhonov_solve(factors: SvdFactors, rhs: np.ndarray, gamma: float) -> TikhonovSolution:
    """Minimizer of ||G v - rhs||^2 + gamma^2 ||v||^2 via SVD filter factors."""
    if not (is_finite(gamma) and gamma > 0 and is_finite(gamma * gamma)):  # as MethodConfig's
        raise ValueError(f"gamma must be > 0 with a finite square, not {gamma!r}")
    beta, a, perp_sq, _ = _project(factors, rhs)
    return _solution(factors, beta, a, perp_sq, gamma)


def _filter_terms(grid, s_sq):
    """The (2, grid, r) table (d^2, d^3) on a 1-D gamma grid, d = 1 / (s^2 +
    gamma^2): with the filter factors f = s^2 d and 1 - f = gamma^2 d, the
    rhs-free basis of the L-curve sums (P. C. Hansen, Discrete Inverse
    Problems, SIAM 2010, ch. 5)."""
    d = 1.0 / (s_sq + (grid * grid)[:, None])
    d2 = d * d
    return np.array((d2, d2 * d))


def _curvature(gamma, s02, s12, s13, perp_sq):
    """Negative curvature of (log residual, log solution) at gamma, a grid or
    a scalar, from the sums S(k, m) = sum s^2k d^m a, a = |U^H rhs|^2.

    Hansen 2010, ch. 5, with eta = ||v||^2 = S(1, 2), rho = ||G v - rhs||^2 =
    gamma^4 S(0, 2) + perp_sq and eta' = -4 gamma S(1, 3):
        -kappa = 2 eta rho / eta' * (gamma^2 eta' rho + 2 gamma eta rho
                 + gamma^4 eta eta') / (gamma^4 eta^2 + rho^2)^(3/2),
    here with eta' cancelled from the outer terms.  NumPy-scalar sums keep
    0/0 and overflow NaN/inf, and make a scalar ** 1.5 libm pow.
    """
    g_sq = gamma * gamma
    rho = g_sq * g_sq * s02 + perp_sq
    t = g_sq * s12
    eta_rho = s12 * rho
    return eta_rho * (2.0 * g_sq * (rho + t) - eta_rho / s13) / (t * t + rho * rho) ** 1.5


def _grid_curvature(grid, terms, weights, perp_sq):
    """`_curvature` on the grid of a `_filter_terms` table, left unmodified,
    and the rhs's (r, 2) weights (a, s^2 a): one matmul."""
    sums = terms @ weights  # sums[m - 2, :, k] = S(k, m)
    return _curvature(grid, sums[0, :, 0], sums[0, :, 1], sums[1, :, 1], perp_sq)


def _neg_curvature(gamma, s_sq, weights, perp_sq):
    """`_curvature` at a scalar gamma from `s_sq` = s * s and the weights of
    `_grid_curvature`: two small products, no table."""
    d = 1.0 / (s_sq + gamma * gamma)
    d2 = d * d
    sums = d2 @ weights  # (S(0, 2), S(1, 2))
    return _curvature(gamma, sums[0], sums[1], (d2 * d) @ weights[:, 1], perp_sq)


def _parabolic_min(func, x, f):
    """Minimizer of `func` from the bracket x = [a, b, c], a < b < c, and its
    values f, whose middle one lies below the first and at most the last.

    Successive parabolic interpolation, the fast step of Brent's method
    without its golden-section fallback (R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 5): each step evaluates
    `func` at the vertex of the parabola through the three points while the
    vertex lies strictly inside (a, c), and keeps the lowest point in the
    middle.  One vertex within Brent's tolerance 1.48e-8 |b| + 1e-11 of b can
    be a stall, a tiny step beside b while the minimum lies farther off, so
    the loop stops at the second such vertex in a row, or after 20 steps.
    Returns b, the lowest point evaluated.
    """
    (a, b, c), (fa, fb, fc) = x, f
    near = 0
    for _ in range(20):
        r, q = (b - a) * (fb - fc), (b - c) * (fb - fa)
        if r == q:  # a flat triple has no vertex
            break
        u = b - 0.5 * ((b - a) * r - (b - c) * q) / (r - q)
        if not a < u < c:  # False for a NaN vertex too
            break
        near = near + 1 if abs(u - b) < 1.48e-8 * abs(b) + 1e-11 else 0
        if near == 2:
            break
        fu = func(u)
        if fu < fb:
            a, b, c, fa, fb, fc = (a, u, b, fa, fu, fb) if u < b else (b, u, c, fb, fu, fc)
        elif u < b:
            a, fa = u, fu
        else:
            c, fc = u, fu
    return b


def lcurve_select(factors: SvdFactors, rhs: np.ndarray) -> TikhonovSolution:
    """Tikhonov solution at the maximum-curvature corner of the L-curve.

    Scans a log-spaced gamma grid over [max(sigma_r, 1e-12*sigma_1),
    sigma_1], then refines the interior curvature maximum by successive
    parabolic interpolation in log gamma over the two neighboring grid cells
    (`_parabolic_min`), never to a point of lower curvature than the grid
    point's.  If the curvature has no interior maximum the endpoint solution
    is returned with the flagged bit set (FlatCurveWarning).

    The scan weights `factors.lcurve_table`, shared by every rhs on the same
    factors, by this rhs alone.
    """
    grid, terms = factors.lcurve_table
    beta, a, perp_sq, norm = _project(factors, rhs)
    s = factors.singular_values
    if norm == 0.0:  # degenerate rhs: curvature is 0/0 everywhere
        return _solution(factors, beta, a, perp_sq, s[0], flagged=True)
    s_sq = s * s
    weights = np.stack((a, s_sq * a), axis=1)
    neg = _grid_curvature(grid, terms, weights, perp_sq)
    idx = int(np.argmin(neg))
    if idx == 0 or idx == grid.size - 1:
        warnings.warn("L-curve curvature has no interior maximum", FlatCurveWarning, stacklevel=2)
        return _solution(factors, beta, a, perp_sq, grid[idx], flagged=True)
    # the bracket's curvatures come from the grid pass, so the loop starts
    # without evaluating; argmin puts neg[idx] strictly below its left
    # neighbour and at most its right one; Python floats give the loop the
    # same IEEE arithmetic at less overhead

    def objective(lg):
        return float(_neg_curvature(float(np.exp(lg)), s_sq, weights, perp_sq))

    bracket = np.log(grid[idx - 1 : idx + 2]).tolist()
    lg = _parabolic_min(objective, bracket, neg[idx - 1 : idx + 2].tolist())
    gamma = min(max(float(np.exp(lg)), float(grid[0])), float(grid[-1]))
    return _solution(factors, beta, a, perp_sq, gamma)
