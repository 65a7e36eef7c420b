"""The recovery pipeline: eigenmatrix construction, Krylov matrix
assembly (original and M-free regularized forms), ESPRIT location
extraction, and least-squares weight recovery.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    ConvergenceFailure,
    DegenerateDesign,
    IllConditionedShiftWarning,
    RankDeficient,
)
from .kernels import (
    CollocationNodes,
    CollocationSystem,
    KernelDescriptor,
    Observations,
    SampleSet,
    build_collocation_system,
    eval_kernel,
)
from .regularization import (
    LCURVE_MIN_GRID,
    SvdFactors,
    compute_svd,
    lcurve_select,
    tikhonov_solve,
    truncate,
    truncated_pinv_apply,
)

RANK_TOL = 1e-13  # sigma_{n_x} below RANK_TOL * sigma_1 means rank-deficient A
SHIFT_COND_LIMIT = 1e8
WEIGHT_PINV_TOL = 1e-12  # relative truncation for the weight least squares


class Variant(Enum):
    ORIGINAL_PINV = "pinv"
    REGULARIZED_LCURVE = "lcurve"
    REGULARIZED_FIXED_GAMMA = "fixed-gamma"


@dataclass(frozen=True)
class MethodConfig:
    variant: Variant
    n_x: int
    l: int | None = None  # Krylov parameter; defaults to n_x + 2
    tol_factor: float = 1e-4  # ORIGINAL_PINV: threshold as multiple of ||G-hat||_F
    gamma: float | None = None  # REGULARIZED_FIXED_GAMMA only
    lcurve_grid_size: int = 200

    def __post_init__(self):
        if self.n_x < 1:
            raise ValueError("n_x must be >= 1")
        if self.l is None:
            # higher Krylov powers amplify the collocation error on the
            # ill-conditioned presets, so keep A skinny by default
            object.__setattr__(self, "l", self.n_x + 2)
        if not (is_integer(self.l) and self.l > self.n_x):
            raise ValueError(f"l must be an integer > n_x = {self.n_x}, not {self.l!r}")
        if not (is_real(self.tol_factor) and 0 < self.tol_factor < np.inf):
            raise ValueError(f"tol_factor must be finite and > 0, not {self.tol_factor!r}")
        if not (is_integer(self.lcurve_grid_size) and self.lcurve_grid_size >= LCURVE_MIN_GRID):
            raise ValueError(
                f"grid_size must be an integer >= {LCURVE_MIN_GRID}, not {self.lcurve_grid_size!r}"
            )
        if self.variant is Variant.REGULARIZED_FIXED_GAMMA and not (
            is_real(self.gamma) and 0 < self.gamma < np.inf
        ):
            raise ValueError("fixed-gamma variant needs a finite gamma > 0")


def is_integer(value) -> bool:
    """An integer setting; bool is an int subclass but not a count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real-valued setting, not a bool.  Compare it against np.inf to
    reject NaN and infinities; the comparison is exact for huge ints."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class PreparedSystem:
    """What depends only on the sample set: the collocation system and the
    SVD of its normalized matrix, shared by every sigma and method."""

    kernel: KernelDescriptor
    samples: SampleSet
    system: CollocationSystem
    factors: SvdFactors


@dataclass(frozen=True)
class RecoveryResult:
    locations: np.ndarray
    weights: np.ndarray
    gamma_or_tol: float
    diagnostics: dict = field(default_factory=dict)


def build_eigenmatrix(
    system: CollocationSystem, tol: float, factors: SvdFactors | None = None
) -> np.ndarray:
    """The n_s x n_s matrix M = G-hat Lambda G-hat^dagger, with the
    pseudo-inverse truncated at tol.

    `factors` is the SVD of `system.normalized` when the caller has it
    already; it is computed here otherwise.
    """
    if factors is None:
        factors = compute_svd(system.normalized)
    left, s, right = truncate(factors, tol)
    pinv = (right / s) @ left.conj().T
    return system.normalized @ (system.nodes[:, None] * pinv)


def krylov_original(M: np.ndarray, u_noisy: np.ndarray, l: int) -> np.ndarray:
    """A = [u, M u, ..., M^l u] by repeated matrix-vector products."""
    if l < 1:
        raise ValueError("l must be >= 1")
    u_noisy = np.asarray(u_noisy, dtype=complex)
    A = np.empty((u_noisy.size, l + 1), dtype=complex)
    A[:, 0] = u_noisy
    for k in range(1, l + 1):
        A[:, k] = M @ A[:, k - 1]
    return A


def krylov_regularized(
    system: CollocationSystem, v: np.ndarray, u_noisy: np.ndarray, l: int
) -> np.ndarray:
    """A = [u, G-hat Lambda v, ..., G-hat Lambda^l v], diagonal powers on v."""
    if l < 1:
        raise ValueError("l must be >= 1")
    v = np.asarray(v, dtype=complex)
    if v.size != system.n_a:
        raise ValueError("v must have length n_a")
    u_noisy = np.asarray(u_noisy, dtype=complex)
    A = np.empty((u_noisy.size, l + 1), dtype=complex)
    A[:, 0] = u_noisy
    p = v
    for k in range(1, l + 1):
        p = system.nodes * p
        A[:, k] = system.normalized @ p
    return A


def esprit_extract(A: np.ndarray, n_x: int, with_diagnostics: bool = False):
    """Spike locations as eigenvalues of the ESPRIT shift operator.

    Rank-n_x truncated SVD of A; V_plus (first column of V* dropped) is
    matched against V_minus (last column dropped) in the least-squares
    sense, and the eigenvalues of the resulting n_x x n_x operator are the
    location estimates.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape[0] < n_x or A.shape[1] < n_x + 1:
        raise ValueError("A too small for the requested model order")
    _, s, vh = np.linalg.svd(A, full_matrices=False)
    if s[n_x - 1] < RANK_TOL * s[0]:
        raise RankDeficient(
            f"sigma_{n_x}(A) = {s[n_x - 1]:.3e} below {RANK_TOL:g} * sigma_1"
        )
    v_star = vh[:n_x, :]
    v_plus = v_star[:, 1:]
    v_minus = v_star[:, :-1]
    cond_minus = float(np.linalg.cond(v_minus))
    if cond_minus > SHIFT_COND_LIMIT:
        warnings.warn(
            f"cond(V_minus) = {cond_minus:.3e} exceeds {SHIFT_COND_LIMIT:g}",
            IllConditionedShiftWarning,
            stacklevel=2,
        )
    # Psi = V_plus pinv(V_minus), formed by a small least-squares solve
    psi = np.linalg.lstsq(v_minus.T, v_plus.T, rcond=None)[0].T
    locations = np.linalg.eigvals(psi)
    if with_diagnostics:
        gap = float(s[n_x] / s[n_x - 1]) if s.size > n_x and s[n_x - 1] > 0 else 0.0
        diag = {
            "condV_minus": cond_minus,
            "svd_gap": gap,
            "rank_retained": n_x,
        }
        return locations, diag
    return locations


def recover_weights(
    kernel: KernelDescriptor,
    samples: SampleSet,
    locations: np.ndarray,
    u_noisy: np.ndarray,
) -> np.ndarray:
    """Minimum-norm least squares for the weights at the recovered locations."""
    locations = np.asarray(locations, dtype=complex)
    design = eval_kernel(kernel, samples.points[:, None], locations[None, :])
    factors = compute_svd_or_degenerate(design)
    tol = WEIGHT_PINV_TOL * factors.singular_values[0]
    return truncated_pinv_apply(factors, tol, np.asarray(u_noisy, dtype=complex))


def compute_svd_or_degenerate(design: np.ndarray):
    try:
        return compute_svd(design)
    except (ConvergenceFailure, ValueError) as exc:
        raise DegenerateDesign("weight design matrix has no usable spectrum") from exc


def _project_locations(kernel: KernelDescriptor, raw: np.ndarray) -> np.ndarray:
    # Real-interval parameter spaces: report real parts clamped to the
    # interval; the raw complex eigenvalues stay in diagnostics.
    if kernel.domain.kind == "interval":
        return np.clip(raw.real, kernel.domain.lo, kernel.domain.hi).astype(complex)
    return raw


def prepare(
    kernel: KernelDescriptor, samples: SampleSet, nodes: CollocationNodes
) -> PreparedSystem:
    """Build the collocation system and factor it once for a sample set.

    A failure carries the stage it happened in ("collocation" or "svd").
    """
    stage = "collocation"
    try:
        system = build_collocation_system(kernel, samples, nodes)
        stage = "svd"
        factors = compute_svd(system.normalized)
    except Exception as exc:
        exc.stage = stage
        raise
    return PreparedSystem(kernel=kernel, samples=samples, system=system, factors=factors)


def recover(config: MethodConfig, prepared: PreparedSystem, obs: Observations) -> RecoveryResult:
    """Full pipeline for one noisy observation vector on a prepared system.

    ORIGINAL_PINV builds the eigenmatrix explicitly with threshold
    tol_factor * ||G-hat||_F; the regularized variants solve
    G-hat v = u by Tikhonov (L-curve or fixed gamma) and assemble the
    Krylov matrix M-free.  Both filter the same shared SVD factors.
    """
    system, factors = prepared.system, prepared.factors
    u = obs.noisy
    diag: dict = {}
    stage = "eigenmatrix"
    try:
        if config.variant is Variant.ORIGINAL_PINV:
            tol = config.tol_factor * float(np.linalg.norm(system.normalized, "fro"))
            M = build_eigenmatrix(system, tol, factors)
            stage = "krylov"
            A = krylov_original(M, u, config.l)
            gamma_or_tol = tol
        else:
            stage = "tikhonov"
            if config.variant is Variant.REGULARIZED_LCURVE:
                sol = lcurve_select(factors, u, grid_size=config.lcurve_grid_size)
            else:
                sol = tikhonov_solve(factors, u, config.gamma)
            diag["flat_curve"] = sol.flagged
            diag["residual_norm"] = sol.residual_norm
            stage = "krylov"
            A = krylov_regularized(system, sol.v, u, config.l)
            gamma_or_tol = sol.gamma
        stage = "esprit"
        raw, esprit_diag = esprit_extract(A, config.n_x, with_diagnostics=True)
        diag.update(esprit_diag)
        diag["raw_locations"] = raw
        locations = _project_locations(prepared.kernel, raw)
        stage = "weights"
        weights = recover_weights(prepared.kernel, prepared.samples, locations, u)
    except Exception as exc:
        exc.stage = stage
        raise
    return RecoveryResult(
        locations=locations,
        weights=weights,
        gamma_or_tol=float(gamma_or_tol),
        diagnostics=diag,
    )
