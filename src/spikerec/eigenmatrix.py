"""The recovery pipeline: eigenmatrix construction, Krylov matrix
assembly (original and M-free regularized forms), ESPRIT location
extraction, and least-squares weight recovery.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import IllConditionedShiftWarning, NonFinite, RankDeficient, SpikerecError
from .kernels import (
    CollocationNodes,
    KernelDescriptor,
    Observations,
    SampleSet,
    as_float,
    build_collocation_system,
    eval_kernel,
    is_finite,
    is_integer,
)
from .regularization import (
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
    gamma: float | None = None  # REGULARIZED_FIXED_GAMMA only, None elsewhere

    def __post_init__(self):
        if not (is_integer(self.n_x) and self.n_x >= 1):
            raise ValueError(f"n_x must be an integer >= 1, not {self.n_x!r}")
        if self.l is None:
            # higher Krylov powers amplify the collocation error on the
            # ill-conditioned presets, so keep A skinny by default
            object.__setattr__(self, "l", self.n_x + 2)
        if not (is_integer(self.l) and self.l > self.n_x):
            raise ValueError(f"l must be an integer > n_x = {self.n_x}, not {self.l!r}")
        if not (is_finite(self.tol_factor) and self.tol_factor > 0):
            raise ValueError(f"tol_factor must be finite and > 0, not {self.tol_factor!r}")
        if self.variant is not Variant.REGULARIZED_FIXED_GAMMA:
            if self.gamma is not None:
                raise ValueError(f"gamma is a fixed-gamma setting; {self.variant.value} takes none")
        elif not (is_finite(self.gamma) and self.gamma > 0 and is_finite(self.gamma * self.gamma)):
            # the Tikhonov filter squares gamma
            raise ValueError(f"gamma must be > 0 with a finite square, not {self.gamma!r}")


@dataclass(frozen=True, eq=False)
class PreparedSystem:
    """What depends only on the sample set, shared by every sigma and method:
    G-hat (`normalized`), its SVD (`factors`), the L-curve table of those
    factors (`SvdFactors.lcurve_table`), and pinv's tolerance and
    eigenmatrix M per `tol_factor`.

    Constructing one builds nothing.  The first `recover` that needs a piece
    builds it, in that call's stage and timing; a build that raises is not
    kept, so every later call raises the same error.
    """

    kernel: KernelDescriptor
    samples: SampleSet
    nodes: CollocationNodes
    _pieces: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def normalized(self) -> np.ndarray:
        return build_collocation_system(self.kernel, self.samples, self.nodes)

    @cached_property
    def factors(self) -> SvdFactors:
        return compute_svd(self.normalized)


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """Recovered spikes, the pinv tolerance or Tikhonov gamma used, and the
    ESPRIT conditioning: cond(V_minus) and sigma_{n_x+1}(A) / sigma_{n_x}(A)."""

    locations: np.ndarray
    weights: np.ndarray
    gamma_or_tol: float
    condV_minus: float
    svd_gap: float


def build_eigenmatrix(
    normalized: np.ndarray, nodes: np.ndarray, tol: float, factors: SvdFactors
) -> np.ndarray:
    """M = G-hat Lambda G-hat^dagger for G-hat = `normalized`, Lambda = diag(`nodes`),
    the pseudo-inverse truncated at tol; `factors` is the SVD of `normalized`."""
    left, s, right = truncate(factors, tol)
    pinv = (right / s) @ left.conj().T
    return normalized @ (nodes[:, None] * pinv)


def krylov_original(M: np.ndarray, u_noisy: np.ndarray, l: int) -> np.ndarray:
    """A = [u, M u, ..., M^l u] by matrix-vector products; a non-finite u raises NonFinite."""
    if l < 1:
        raise ValueError("l must be >= 1")
    cols = [as_float(u_noisy)]
    if not np.isfinite(cols[0]).all():
        raise NonFinite("u must be finite-valued")
    for _ in range(l):
        cols.append(M @ cols[-1])
    return np.column_stack(cols)


def krylov_regularized(
    normalized: np.ndarray, nodes: np.ndarray, v: np.ndarray, u_noisy: np.ndarray, l: int
) -> np.ndarray:
    """A = [u, G-hat Lambda v, ..., G-hat Lambda^l v] for G-hat = `normalized`
    and Lambda = diag(`nodes`), diagonal powers on v."""
    if l < 1:
        raise ValueError("l must be >= 1")
    p = as_float(v)
    if p.size != nodes.size:
        raise ValueError("v must have length n_a")
    cols = [as_float(u_noisy)]
    for _ in range(l):
        p = nodes * p
        cols.append(normalized @ p)
    return np.column_stack(cols)


def esprit_extract(A: np.ndarray, n_x: int) -> tuple:
    """Spike locations as eigenvalues of the ESPRIT shift operator.

    Rank-n_x truncated SVD of A; V_plus (first column of V* dropped) is
    matched against V_minus (last column dropped) in the least-squares
    sense, and the eigenvalues of the resulting n_x x n_x operator are the
    location estimates.  Returns (locations, cond(V_minus), svd_gap), the
    gap being sigma_{n_x+1}(A) / sigma_{n_x}(A), or 0 when A has n_x
    singular values.  A with sigma_{n_x} not above RANK_TOL * sigma_1
    (a zero or non-finite A included) raises RankDeficient.
    """
    A = as_float(A)
    if A.shape[0] < n_x or A.shape[1] < n_x + 1:
        raise ValueError("A too small for the requested model order")
    try:
        _, s, vh = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # a NaN in A
        raise RankDeficient(f"SVD of A failed: {exc}") from exc
    if not s[n_x - 1] > RANK_TOL * s[0]:
        raise RankDeficient(f"sigma_{n_x}(A) = {s[n_x - 1]:.3e} below {RANK_TOL:g} * sigma_1")
    v_star = vh[:n_x, :]
    v_plus, v_minus = v_star[:, 1:], v_star[:, :-1]
    # Psi = V_plus pinv(V_minus) by a small least-squares solve, which also
    # gives V_minus's singular values; x/0 and 0/0 read inf, as in np.linalg.cond
    psi_t, _, _, sv = np.linalg.lstsq(v_minus.T, v_plus.T, rcond=None)
    with np.errstate(divide="ignore", over="ignore"):
        cond_minus = float(sv[0] / sv[-1]) if sv[0] else np.inf
    if cond_minus > SHIFT_COND_LIMIT:
        warnings.warn(
            f"cond(V_minus) = {cond_minus:.3e} exceeds {SHIFT_COND_LIMIT:g}",
            IllConditionedShiftWarning, stacklevel=2,
        )
    gap = float(s[n_x] / s[n_x - 1]) if s.size > n_x else 0.0
    return np.linalg.eigvals(psi_t.T), cond_minus, gap


def recover_weights(
    kernel: KernelDescriptor, samples: SampleSet, locations: np.ndarray, u_noisy: np.ndarray
) -> np.ndarray:
    """Minimum-norm least squares for the weights at the recovered locations."""
    design = eval_kernel(kernel, samples.points[:, None], as_float(locations)[None, :])
    return truncated_pinv_apply(design, WEIGHT_PINV_TOL, u_noisy)


def recover(config: MethodConfig, prepared: PreparedSystem, obs: Observations) -> RecoveryResult:
    """Full pipeline for one noisy observation vector on a prepared system.

    ORIGINAL_PINV builds the eigenmatrix explicitly with threshold
    tol_factor * ||G-hat||_F; the regularized variants solve
    G-hat v = u by Tikhonov (L-curve or fixed gamma) and assemble the
    Krylov matrix M-free.  Both filter the same shared SVD factors.

    The pieces that do not depend on the observation are built and kept as
    `PreparedSystem` says.  A `SpikerecError` let through carries its
    `stage`; an `obs.noisy` not of shape (n_s,) raises ValueError before any
    stage.
    """
    pieces, u = prepared._pieces, obs.noisy
    if u.shape != (prepared.samples.n_s,):
        raise ValueError(f"obs.noisy must have shape ({prepared.samples.n_s},), not {u.shape}")
    stage = "collocation"
    try:
        normalized, nodes = prepared.normalized, prepared.nodes.nodes
        stage = "svd"
        factors = prepared.factors
        stage = "eigenmatrix"
        if config.variant is Variant.ORIGINAL_PINV:
            if config.tol_factor not in pieces:
                tol = config.tol_factor * float(np.linalg.norm(normalized, "fro"))
                M = build_eigenmatrix(normalized, nodes, tol, factors)
                M.setflags(write=False)  # shared by every later pinv record
                pieces[config.tol_factor] = tol, M
            tol, M = pieces[config.tol_factor]
            stage = "krylov"
            A = krylov_original(M, u, config.l)
            gamma_or_tol = tol
        else:
            stage = "tikhonov"
            if config.variant is Variant.REGULARIZED_LCURVE:
                sol = lcurve_select(factors, u)
            else:
                sol = tikhonov_solve(factors, u, config.gamma)
            stage = "krylov"
            A = krylov_regularized(normalized, nodes, sol.v, u, config.l)
            gamma_or_tol = sol.gamma
        stage = "esprit"
        raw, cond_minus, gap = esprit_extract(A, config.n_x)
        locations = prepared.kernel.domain.project(raw)
        stage = "weights"
        weights = recover_weights(prepared.kernel, prepared.samples, locations, u)
    except SpikerecError as exc:
        exc.stage = stage
        raise
    return RecoveryResult(locations, weights, float(gamma_or_tol), cond_minus, gap)
