"""SVD-based solvers for the ill-conditioned collocation system.

Truncated pseudo-inverse application, Tikhonov filtering, and L-curve
selection of the regularization parameter.  Everything works on a fixed
SVD of the (column-normalized) collocation matrix, so repeated solves at
different gamma are cheap.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import AllTruncated, ConvergenceFailure, FlatCurveWarning

LCURVE_FLOOR = 1e-12  # lower grid bound as a multiple of sigma_1
SVD_DROP = 1e-15  # singular values below SVD_DROP * sigma_1 are discarded
LCURVE_MIN_GRID = 16  # fewest gamma grid points the corner scan accepts


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD with strictly positive, nonincreasing singular values."""

    left: np.ndarray  # n_s x r, orthonormal columns
    singular_values: np.ndarray  # length r
    right: np.ndarray  # n_a x r, orthonormal columns

    @property
    def rank(self) -> int:
        return self.singular_values.size

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singular_values) @ self.right.conj().T


@dataclass(frozen=True)
class TikhonovSolution:
    v: np.ndarray
    gamma: float
    residual_norm: float
    solution_norm: float
    flagged: bool = False


def compute_svd(matrix: np.ndarray) -> SvdFactors:
    """Thin SVD, dropping singular values below SVD_DROP * sigma_1."""
    matrix = np.asarray(matrix, dtype=complex)
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix must be finite-valued")
    try:
        u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure("SVD failed to converge") from exc
    if s.size == 0 or s[0] == 0:
        raise ConvergenceFailure("matrix is identically zero")
    keep = s > SVD_DROP * s[0]
    r = int(np.count_nonzero(keep))
    return SvdFactors(
        left=u[:, :r], singular_values=s[:r], right=vh[:r].conj().T
    )


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


def _tikhonov_from_coeffs(factors, beta, perp_sq, gamma):
    s = factors.singular_values
    filt = s / (s**2 + gamma**2)
    v = factors.right @ (filt * beta)
    # residual and solution norms straight from the SVD expansion
    res_sq = np.sum((gamma**2 / (s**2 + gamma**2)) ** 2 * np.abs(beta) ** 2) + perp_sq
    sol = float(np.linalg.norm(filt * beta))
    return v, float(np.sqrt(max(res_sq, 0.0))), sol


def tikhonov_solve(factors: SvdFactors, rhs: np.ndarray, gamma: float) -> TikhonovSolution:
    """Minimizer of ||G v - rhs||^2 + gamma^2 ||v||^2 via SVD filter factors."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    rhs = np.asarray(rhs, dtype=complex)
    beta = factors.left.conj().T @ rhs
    perp_sq = max(float(np.linalg.norm(rhs) ** 2 - np.linalg.norm(beta) ** 2), 0.0)
    v, res, sol = _tikhonov_from_coeffs(factors, beta, perp_sq, gamma)
    return TikhonovSolution(v=v, gamma=float(gamma), residual_norm=res, solution_norm=sol)


def _neg_curvature(gamma, s_sq, weights, perp_sq):
    """Negative curvature of (log residual, log solution) at gamma.

    Analytic first/second derivatives from the SVD expansion, following
    Hansen's regularization-tools formulation adapted to complex data.
    `s_sq` is s * s and `weights` the (6, r) stack (|xi|^2, |beta|^2) * 3.
    A scalar `gamma` gives a float, a 1-D grid one value per gamma.
    """
    if isinstance(gamma, np.ndarray):
        gamma, weights = gamma[:, None], weights[:, None]
    f = s_sq / (s_sq + gamma * gamma)
    cf = 1.0 - f
    f1 = -2.0 * f * cf / gamma
    f2 = -f1 * (3.0 - 4.0 * f) / gamma
    f1_sq = f1 * f1
    # Few ufunc calls and one reduction: the golden refinement calls this
    # with a scalar gamma, where NumPy call overhead dominates.  Products and
    # sums keep the reference's operand order (bitwise equal), and squares
    # are products since a scalar's ** 2 may go through libm pow.
    terms = np.array((f, cf) * 3)
    terms *= np.array((f, cf, f1, f1, f2, f2))
    terms[4] += f1_sq
    terms[5] -= f1_sq
    terms *= weights
    eta_sq, rho_sq, phi, psi, dphi, dpsi = terms.sum(axis=-1)
    # NumPy scalars from here on: 0/0 and overflow stay NaN/inf, and a
    # scalar ** 1.5 is libm pow (an array's may differ in the last bit).
    eta = np.sqrt(eta_sq)
    rho = np.sqrt(rho_sq + perp_sq)
    deta = phi / eta
    drho = -psi / rho
    ddeta = dphi / eta - deta * (deta / eta)
    ddrho = -dpsi / rho - drho * (drho / rho)
    dlogeta = deta / eta
    dlogrho = drho / rho
    ddlogeta = ddeta / eta - dlogeta * dlogeta
    ddlogrho = ddrho / rho - dlogrho * dlogrho
    return -(dlogrho * ddlogeta - ddlogrho * dlogeta) / (
        dlogrho * dlogrho + dlogeta * dlogeta
    ) ** 1.5


_GOLDEN_R = 0.61803399  # golden ratio conjugate, as in scipy.optimize.golden
_GOLDEN_C = 1.0 - _GOLDEN_R
_GOLDEN_XTOL = float(np.sqrt(np.finfo(float).eps))
_GOLDEN_MAXITER = 5000


def _golden(func, xa, xb, xc):
    """Golden-section minimizer of `func` from the bracket xa < xb < xc.

    The loop, constants and tolerance of scipy.optimize.golden (scipy 1.17)
    for a three-point bracket, so the result is bitwise the same, with one
    evaluation fewer: f(xb) is reused as f(x1) or f(x2).  Raises ValueError
    when the triple does not bracket a minimum.
    """
    if not (xa < xb < xc):
        raise ValueError("bracket must satisfy xa < xb < xc")
    fa, fb, fc = func(xa), func(xb), func(xc)
    if not (fb < fa and fb < fc):
        raise ValueError("bracket must satisfy f(xb) < f(xa) and f(xb) < f(xc)")
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + _GOLDEN_C * (xc - xb)
        f1, f2 = fb, func(x2)
    else:
        x1, x2 = xb - _GOLDEN_C * (xb - xa), xb
        f1, f2 = func(x1), fb
    for _ in range(_GOLDEN_MAXITER):
        if abs(x3 - x0) <= _GOLDEN_XTOL * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1, f1 = x1, x2, f2
            x2 = _GOLDEN_R * x1 + _GOLDEN_C * x3
            f2 = func(x2)
        else:
            x3, x2, f2 = x2, x1, f1
            x1 = _GOLDEN_R * x2 + _GOLDEN_C * x0
            f1 = func(x1)
    return x1 if f1 < f2 else x2


def lcurve_gamma_grid(factors: SvdFactors, grid_size: int) -> np.ndarray:
    s = factors.singular_values
    lo = max(s[-1], LCURVE_FLOOR * s[0])
    return np.geomspace(lo, s[0], grid_size)


def lcurve_select(factors: SvdFactors, rhs: np.ndarray, grid_size: int = 200) -> TikhonovSolution:
    """Tikhonov solution at the maximum-curvature corner of the L-curve.

    Scans a log-spaced gamma grid over [max(sigma_r, 1e-12*sigma_1),
    sigma_1], then refines the interior curvature maximum by golden-section
    search over the two neighboring grid cells.  If the curvature has no
    interior maximum the endpoint solution is returned with the flagged
    bit set (FlatCurveWarning).
    """
    if factors.rank < 2:
        raise ValueError("L-curve selection needs at least two singular values")
    if grid_size < LCURVE_MIN_GRID:
        raise ValueError(f"grid_size must be >= {LCURVE_MIN_GRID}")
    rhs = np.asarray(rhs, dtype=complex)
    s = factors.singular_values
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        # degenerate rhs: curvature is 0/0 everywhere
        zero = np.zeros(factors.right.shape[0], dtype=complex)
        return TikhonovSolution(
            v=zero, gamma=float(s[0]), residual_norm=0.0, solution_norm=0.0, flagged=True
        )
    beta = factors.left.conj().T @ rhs
    perp_sq = max(rhs_norm**2 - float(np.linalg.norm(beta) ** 2), 0.0)
    abs_beta_sq = np.abs(beta) ** 2
    s_sq = s * s
    weights = np.array((abs_beta_sq / s_sq, abs_beta_sq) * 3)
    grid = lcurve_gamma_grid(factors, grid_size)
    neg = _neg_curvature(grid, s_sq, weights, perp_sq)
    idx = int(np.argmin(neg))
    flagged = idx == 0 or idx == grid.size - 1
    gamma = grid[idx]
    if flagged:
        warnings.warn(
            "L-curve curvature has no interior maximum", FlatCurveWarning, stacklevel=2
        )
    else:
        log_grid = np.log(grid)

        def objective(lg):
            return _neg_curvature(float(np.exp(lg)), s_sq, weights, perp_sq)

        try:
            lg_opt = _golden(objective, log_grid[idx - 1], log_grid[idx], log_grid[idx + 1])
            gamma = float(np.exp(lg_opt))
        except ValueError:
            pass  # degenerate bracket: keep the grid point
        gamma = float(np.clip(gamma, grid[0], grid[-1]))
    v, res, sol = _tikhonov_from_coeffs(factors, beta, perp_sq, gamma)
    return TikhonovSolution(
        v=v, gamma=gamma, residual_norm=res, solution_norm=sol, flagged=flagged
    )
