"""Kernel functions, grids, observation synthesis, and the noise model.

Covers the five benchmark problems: rational approximation on the unit
disk, spectral function approximation on a Matsubara grid, Fourier
inversion, Laplace inversion, and sparse deconvolution.  The table
`PRESETS` holds each one's kernel, truth, sample count, noise levels and
sample law, and `experiments.ExperimentPreset` alone reads and checks a row.
All routines are pure functions of their arguments (seeds included), so they
are safe to call concurrently.

Arrays keep the type of their data: real input becomes float64 and complex
input complex128 (`as_float`), so the real kernels (Laplace, deconvolution)
run in real arithmetic end to end.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

# Imported eagerly: numpy loads numpy.random lazily, which would otherwise
# put its import cost inside the first record's timing.
from numpy.random import Generator, SeedSequence, default_rng

from .errors import DegenerateColumn, DomainError

FLOAT_MAX = float(np.finfo(np.float64).max)


class Kind(Enum):
    RATIONAL = "rational"
    FOURIER = "fourier"
    LAPLACE = "laplace"
    CAUCHY_SQUARED = "cauchy_squared"


@dataclass(frozen=True)
class Domain:
    """Parameter space X, the closed unit disk or a real interval, and its geometry."""

    kind: str  # "disk" or "interval"
    lo: float = 0.0
    hi: float = 0.0

    def __post_init__(self):
        if self.kind not in ("disk", "interval"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "interval" and not self.lo < self.hi:
            raise ValueError("interval domain needs lo < hi")

    def nodes(self, n_a: int) -> CollocationNodes:
        """`n_a` (an integer >= 1) nodes: exp(2 pi i t / n_a) on the unit circle for the
        disk, first-kind Chebyshev nodes mapped affinely strictly inside an interval."""
        if not (is_integer(n_a) and n_a >= 1):
            raise ValueError(f"n_a must be an integer >= 1, not {n_a!r}")
        if self.kind == "disk":
            return CollocationNodes(np.exp(2j * np.pi * np.arange(n_a) / n_a))
        ref = np.cos((2 * np.arange(1, n_a + 1) - 1) * np.pi / (2 * n_a))
        return CollocationNodes(self.lo + (self.hi - self.lo) * (ref + 1.0) / 2.0)

    def project(self, raw: np.ndarray) -> np.ndarray:
        """Recovered locations: on the disk `raw` itself, unchanged, so a point
        may lie outside X; on an interval the real parts clamped to [lo, hi],
        the imaginary parts dropped."""
        if self.kind == "disk":
            return raw
        return np.clip(raw.real, self.lo, self.hi)


UNIT_DISK = Domain("disk")


@dataclass(frozen=True)
class KernelDescriptor:
    kind: Kind
    domain: Domain


def _check_points(points: np.ndarray, field: str, distinct: bool = True) -> None:
    """Raise ValueError unless `points` are finite and, if `distinct`, pairwise
    distinct: sorted (complex by real, then imaginary part), repeats such as
    0.0 and -0.0 are neighbours.  Not `np.unique`: it imports numpy.ma."""
    if not np.isfinite(points).all():
        raise ValueError(f"{field} must be finite")
    if distinct:
        ordered = np.sort(points, axis=None)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError(f"{field} must be pairwise distinct")


@dataclass(frozen=True, eq=False)
class SpikeSignal:
    """Ground-truth (or recovered) spike locations and weights: equally
    many, at least one, all finite, and the locations pairwise distinct."""

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        locs = np.atleast_1d(as_float(self.locations))
        wts = np.atleast_1d(as_float(self.weights))
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "weights", wts)
        if locs.size != wts.size or locs.size < 1:
            raise ValueError("locations and weights must have equal length >= 1")
        _check_points(locs, "SpikeSignal.locations")
        _check_points(wts, "SpikeSignal.weights", distinct=False)

    @property
    def n_x(self) -> int:
        return self.locations.size


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Sample points s_j: finite; repeats are allowed."""

    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", np.atleast_1d(as_float(self.points)))
        _check_points(self.points, "SampleSet.points", distinct=False)

    @property
    def n_s(self) -> int:
        return self.points.size


@dataclass(frozen=True, eq=False)
class CollocationNodes:
    """Collocation nodes a_t: finite and pairwise distinct."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_1d(as_float(self.nodes))
        object.__setattr__(self, "nodes", nodes)
        _check_points(nodes, "CollocationNodes.nodes")

    @property
    def n_a(self) -> int:
        return self.nodes.size


@dataclass(frozen=True, eq=False)
class Observations:
    noisy: np.ndarray
    sigma: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "noisy", as_float(self.noisy))
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "seed", int(self.seed))


def as_float(a) -> np.ndarray:
    """`a` as a float64 array if it is real (integers included), complex128
    if it is complex; a 0-d input stays 0-d."""
    a = np.asarray(a)
    return a.astype(np.result_type(a, np.float64), copy=False)


def is_integer(value) -> bool:
    """An integer setting; bool is an int subclass but not a count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """A real setting, not a bool, whose magnitude fits a float64.  Ints compare
    with floats exactly, so NaN, the infinities and 10**400 all fail."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and abs(value) <= FLOAT_MAX


def _rng(seed: int, stream: int) -> Generator:
    # One substream per purpose (0: sample draws, 1: noise draws) so that
    # sample sets and noise realizations are independently reproducible.
    return default_rng(SeedSequence(entropy=seed, spawn_key=(stream,)))


def eval_kernel(kernel: KernelDescriptor, s, x):
    """Evaluate g(s, x); broadcasts over array arguments."""
    s, x = as_float(s), as_float(x)
    if kernel.kind is Kind.RATIONAL:
        diff = s - x
        if np.any(diff == 0):
            raise DomainError("rational kernel has a pole at s = x")
        return 1.0 / diff
    if kernel.kind is Kind.FOURIER:
        return np.exp(1j * np.pi * s * x)
    if kernel.kind is Kind.LAPLACE:
        return x * np.exp(-s * x)
    if kernel.kind is Kind.CAUCHY_SQUARED:
        return 1.0 / (1.0 + 4.0 * (s - x) ** 2)
    raise ValueError(f"unknown kernel kind {kernel.kind!r}")


def _annulus(rng, n, beta):  # the modulus is drawn first, then the angle
    r = rng.uniform(1.2, 2.2, size=n)
    return r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n))


def _matsubara(rng, n, beta):  # +/- (2j - 1) pi i / beta for j = 1..n/2, no draw
    pos = 1j * (2 * np.arange(1, n // 2 + 1) - 1) * np.pi / beta
    return np.concatenate([pos, -pos])


def _uniform(lo, hi):
    return lambda rng, n, beta: rng.uniform(lo, hi, size=n)


_PM1 = Domain("interval", -1.0, 1.0)
_SIGMAS = (1e-1, 1e-2, 1e-3)
# id: (kernel, true locations (unit weights), default n_s, default noise
# levels, sample law draw(rng, n, beta)), in the presets' canonical order
PRESETS = {
    "rational": (KernelDescriptor(Kind.RATIONAL, UNIT_DISK),
                 tuple(0.9 * np.exp(2j * np.pi * np.array([0.2, 0.5, 0.8, 1.0]))),
                 40, _SIGMAS, _annulus),
    "spectral": (KernelDescriptor(Kind.RATIONAL, _PM1), (-0.9, -0.2, 0.2, 0.9),
                 256, _SIGMAS, _matsubara),
    "fourier": (KernelDescriptor(Kind.FOURIER, _PM1), (-0.9, 0.0, 0.5, 0.9),
                128, _SIGMAS, _uniform(-5.0, 5.0)),
    "laplace": (KernelDescriptor(Kind.LAPLACE, Domain("interval", 0.1, 2.1)), (0.2, 1.1, 1.6, 2.0),
                100, (5e-2, 5e-3, 5e-4), _uniform(0.0, 10.0)),
    "deconv": (KernelDescriptor(Kind.CAUCHY_SQUARED, _PM1), (-0.9, 0.0, 0.5, 0.9),
               128, _SIGMAS, _uniform(-5.0, 5.0)),
}
PRESET_IDS = tuple(PRESETS)


def generate_samples(preset, rng_seed: int) -> SampleSet:
    """Sample points of a built `experiments.ExperimentPreset`: its row's law in
    `PRESETS` drawn at its `n_s` and `beta`; the spectral grid ignores the seed.
    Checks nothing: the preset checked its settings when it was built."""
    draw = PRESETS[preset.id][4]
    return SampleSet(draw(_rng(rng_seed, stream=0), preset.n_s, preset.beta))


def synthesize(kernel: KernelDescriptor, signal: SpikeSignal, samples: SampleSet) -> np.ndarray:
    """Exact observations u_j = sum_k w_k g(s_j, x_k)."""
    G = eval_kernel(kernel, samples.points[:, None], signal.locations[None, :])
    return G @ signal.weights


def add_noise(u: np.ndarray, sigma: float, rng_seed: int) -> Observations:
    """Multiplicative Gaussian noise: u_j * (1 + sigma * Z_j), Z_j ~ N(0, 1);
    ValueError unless sigma is finite (`is_finite`) and >= 0."""
    if not (is_finite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, not {sigma!r}")
    u = as_float(u)
    z = _noise(rng_seed, u.size)
    return Observations(noisy=u * (1.0 + sigma * z), sigma=sigma, seed=rng_seed)


@lru_cache(maxsize=1)
def _noise(seed: int, n: int) -> np.ndarray:
    """`add_noise`'s Z, drawn once per (seed, n) for all of a seed's sigmas; read-only."""
    z = _rng(seed, stream=1).standard_normal(n)
    z.setflags(write=False)
    return z


def build_collocation_system(
    kernel: KernelDescriptor, samples: SampleSet, nodes: CollocationNodes
) -> np.ndarray:
    """G-hat: G = [g(s_j, a_t)], n_s x n_a, with its columns normalized to
    unit 2-norm; a zero column raises DegenerateColumn."""
    G = eval_kernel(kernel, samples.points[:, None], nodes.nodes[None, :])
    norms = np.linalg.norm(G, axis=0)
    if np.any(norms == 0):
        raise DegenerateColumn("collocation matrix has a zero column")
    return G / norms
