"""Kernel functions, grids, observation synthesis, and the noise model.

Covers the five benchmark problems: rational approximation on the unit
disk, spectral function approximation on a Matsubara grid, Fourier
inversion, Laplace inversion, and sparse deconvolution.  All routines are
pure functions of their arguments (seeds included), so they are safe to
call concurrently.

Arrays keep the type of their data: real input becomes float64 and complex
input complex128 (`as_float`), so the real kernels (Laplace, deconvolution)
run in real arithmetic end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

# Imported eagerly: numpy loads numpy.random lazily, which would otherwise
# put its import cost inside the first record's timing.
from numpy.random import Generator, SeedSequence, default_rng

from .errors import DegenerateColumn, DomainError, UnknownPreset

PRESET_N_S = {"rational": 40, "spectral": 256, "fourier": 128, "laplace": 100, "deconv": 128}
PRESET_IDS = tuple(PRESET_N_S)  # the presets in their canonical order

# Matsubara scale for the spectral preset; no published value exists, and
# this default keeps the error-vs-noise trend monotone across the benchmark
# noise levels.  Overridable via config/CLI.
DEFAULT_BETA = 40.0


class Kind(Enum):
    RATIONAL = "rational"
    SPECTRAL_RATIONAL = "spectral_rational"
    FOURIER = "fourier"
    LAPLACE = "laplace"
    CAUCHY_SQUARED = "cauchy_squared"


@dataclass(frozen=True)
class Domain:
    """Parameter space X: the closed unit disk or a real interval."""

    kind: str  # "disk" or "interval"
    lo: float = 0.0
    hi: float = 0.0

    def __post_init__(self):
        if self.kind not in ("disk", "interval"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "interval" and not self.lo < self.hi:
            raise ValueError("interval domain needs lo < hi")


UNIT_DISK = Domain("disk")


@dataclass(frozen=True)
class KernelDescriptor:
    kind: Kind
    domain: Domain


@dataclass(frozen=True)
class SpikeSignal:
    """Ground-truth (or recovered) spike locations and weights."""

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        locs = np.atleast_1d(as_float(self.locations))
        wts = np.atleast_1d(as_float(self.weights))
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "weights", wts)
        if locs.size != wts.size or locs.size < 1:
            raise ValueError("locations and weights must have equal length >= 1")
        if len(np.unique(locs)) != locs.size:
            raise ValueError("spike locations must be pairwise distinct")

    @property
    def n_x(self) -> int:
        return self.locations.size


@dataclass(frozen=True)
class SampleSet:
    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", np.atleast_1d(as_float(self.points)))

    @property
    def n_s(self) -> int:
        return self.points.size


@dataclass(frozen=True)
class CollocationNodes:
    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_1d(as_float(self.nodes))
        object.__setattr__(self, "nodes", nodes)
        if len(np.unique(nodes)) != nodes.size:
            raise ValueError("collocation nodes must be pairwise distinct")

    @property
    def n_a(self) -> int:
        return self.nodes.size


@dataclass(frozen=True)
class Observations:
    exact: np.ndarray
    noisy: np.ndarray
    sigma: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "exact", as_float(self.exact))
        object.__setattr__(self, "noisy", as_float(self.noisy))
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class CollocationSystem:
    """G-hat, the column-normalized G = [g(s_j, a_t)], and the node diagonal."""

    normalized: np.ndarray  # G-hat, n_s x n_a, unit 2-norm columns
    nodes: np.ndarray  # diagonal of Lambda

    @property
    def n_s(self) -> int:
        return self.normalized.shape[0]

    @property
    def n_a(self) -> int:
        return self.normalized.shape[1]


def as_float(a) -> np.ndarray:
    """`a` as a float64 array if it is real (integers included), complex128
    if it is complex; a 0-d input stays 0-d."""
    a = np.asarray(a)
    return a.astype(np.result_type(a, np.float64), copy=False)


def _rng(seed: int, stream: int) -> Generator:
    # One substream per purpose (0: sample draws, 1: noise draws) so that
    # sample sets and noise realizations are independently reproducible.
    return default_rng(SeedSequence(entropy=seed, spawn_key=(stream,)))


def eval_kernel(kernel: KernelDescriptor, s, x):
    """Evaluate g(s, x); broadcasts over array arguments."""
    s, x = as_float(s), as_float(x)
    if kernel.kind in (Kind.RATIONAL, Kind.SPECTRAL_RATIONAL):
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


def uniform_circle_nodes(n_a: int) -> CollocationNodes:
    """Uniformly spaced nodes exp(2*pi*i*t/n_a) on the unit circle."""
    if n_a < 1:
        raise ValueError("n_a must be >= 1")
    t = np.arange(n_a)
    return CollocationNodes(np.exp(2j * np.pi * t / n_a))


def chebyshev_nodes(n_a: int, lo: float, hi: float) -> CollocationNodes:
    """First-kind Chebyshev nodes mapped affinely from [-1, 1] to [lo, hi];
    they stay strictly inside the interval."""
    if n_a < 1:
        raise ValueError("n_a must be >= 1")
    if not lo < hi:
        raise ValueError("need lo < hi")
    t = np.arange(1, n_a + 1)
    ref = np.cos((2 * t - 1) * np.pi / (2 * n_a))
    mapped = lo + (hi - lo) * (ref + 1.0) / 2.0
    return CollocationNodes(mapped)


def generate_samples(
    preset: str,
    rng_seed: int,
    beta: float = DEFAULT_BETA,
    n_s: int | None = None,
) -> SampleSet:
    """Sampling locations for one of the five presets.

    rational: n_s random points with modulus in [1.2, 2.2], angle uniform
    in [0, 2*pi).  spectral: the deterministic Matsubara grid
    +/- (2j-1)*pi*i/beta (seed ignored).  fourier/deconv: uniform on
    [-5, 5].  laplace: uniform on [0, 10].
    """
    if preset not in PRESET_N_S:
        raise UnknownPreset(f"unknown preset {preset!r}")
    n = PRESET_N_S[preset] if n_s is None else n_s
    rng = _rng(rng_seed, stream=0)
    if preset == "rational":
        r = rng.uniform(1.2, 2.2, size=n)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        return SampleSet(r * np.exp(1j * theta))
    if preset == "spectral":
        if n % 2 != 0:
            raise ValueError("spectral preset needs an even sample count")
        j = np.arange(1, n // 2 + 1)
        pos = 1j * (2 * j - 1) * np.pi / beta
        return SampleSet(np.concatenate([pos, -pos]))
    if preset in ("fourier", "deconv"):
        return SampleSet(rng.uniform(-5.0, 5.0, size=n))
    # laplace
    return SampleSet(rng.uniform(0.0, 10.0, size=n))


def synthesize(kernel: KernelDescriptor, signal: SpikeSignal, samples: SampleSet) -> np.ndarray:
    """Exact observations u_j = sum_k w_k g(s_j, x_k)."""
    G = eval_kernel(kernel, samples.points[:, None], signal.locations[None, :])
    return G @ signal.weights


def add_noise(u: np.ndarray, sigma: float, rng_seed: int) -> Observations:
    """Multiplicative Gaussian noise: u_j * (1 + sigma * Z_j), Z_j ~ N(0, 1)."""
    if not 0 <= sigma < np.inf:  # False for NaN
        raise ValueError(f"sigma must be finite and >= 0, not {sigma!r}")
    u = as_float(u)
    z = _rng(rng_seed, stream=1).standard_normal(u.size)
    return Observations(exact=u, noisy=u * (1.0 + sigma * z), sigma=sigma, seed=rng_seed)


def build_collocation_system(
    kernel: KernelDescriptor, samples: SampleSet, nodes: CollocationNodes
) -> CollocationSystem:
    """Assemble G and normalize its columns to unit 2-norm; a zero column
    raises DegenerateColumn."""
    G = eval_kernel(kernel, samples.points[:, None], nodes.nodes[None, :])
    norms = np.linalg.norm(G, axis=0)
    if np.any(norms == 0):
        raise DegenerateColumn("collocation matrix has a zero column")
    return CollocationSystem(normalized=G / norms, nodes=nodes.nodes.copy())
