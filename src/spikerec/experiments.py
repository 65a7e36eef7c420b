"""Experiment harness: the five benchmark presets, seeded noise sweeps
with shared noise across methods, and CSV and JSON reports.
"""

from __future__ import annotations

import json
import time
from collections.abc import Collection
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .eigenmatrix import MethodConfig, PreparedSystem, Variant, recover
from .errors import SpikerecError, UnknownPreset
from .kernels import (
    PRESET_IDS,
    PRESETS,
    CollocationNodes,
    KernelDescriptor,
    Observations,
    SampleSet,
    SpikeSignal,
    _matsubara,
    add_noise,
    generate_samples,
    is_finite,
    is_integer,
    synthesize,
)
from .metrics import match_and_error

_NAN = float("nan")
# Matsubara scale for the spectral preset; no published value exists, and
# this default keeps the error-vs-noise trend monotone across the benchmark
# noise levels.  Overridable with `--beta`.
DEFAULT_BETA = 40.0
MAX_ARRAY_BYTES = 2**30  # caps complex G and pinv's M: 16 n_s max(n_s, n_a) bytes
MAX_SWEEP_ENTRIES = 10**5  # check_sweep's cap on each argument's length


@dataclass(frozen=True)
class ExperimentPreset:
    """Row `id` of `kernels.PRESETS` at a caller's `n_s` (None: the row's), `n_a` and `beta`,
    the row's one reader and checker.  It equals and hashes by those four; `kernel`, `truth`
    and `sigma_list` are the row's, not settable.  Building it raises UnknownPreset for an
    unknown id, and ValueError for an `n_s` or `n_a` not an integer >= n_x (ESPRIT needs n_x
    sample rows; rank(A) <= n_a), an odd spectral `n_s` (its grid is +/- pairs), more than
    MAX_ARRAY_BYTES in complex G or pinv's M (16 n_s max(n_s, n_a) bytes), or a `beta` not
    finite and > 0 or overflowing the top Matsubara frequency (n_s - 1) pi / beta, taken as
    NumPy's complex division takes it (times 1 / beta), so that the rule and the grid agree."""

    id: str
    n_s: int | None
    n_a: int
    beta: float  # Matsubara scale; only the spectral samples use it
    kernel: KernelDescriptor = field(init=False, compare=False)
    truth: SpikeSignal = field(init=False, compare=False)
    sigma_list: tuple = field(init=False, compare=False)

    def __post_init__(self):
        if self.id not in PRESET_IDS:  # a tuple, so an unhashable id is unknown too
            raise UnknownPreset(f"unknown preset {self.id!r}")
        kernel, locs, default_n_s, sigmas, draw = PRESETS[self.id]
        n_s = default_n_s if self.n_s is None else self.n_s
        for name, value in (("n_s", n_s), ("n_a", self.n_a)):
            if not (is_integer(value) and value >= len(locs)):
                raise ValueError(f"{name} must be an integer >= {len(locs)} (n_x), not {value!r}")
        if draw is _matsubara and n_s % 2:
            raise ValueError(f"the spectral preset needs an even n_s, not {n_s!r}")
        if 16 * n_s * max(n_s, self.n_a) > MAX_ARRAY_BYTES:
            raise ValueError(f"n_s = {n_s} and n_a = {self.n_a} exceed the array cap "
                             f"16 * n_s * max(n_s, n_a) <= {MAX_ARRAY_BYTES} bytes")
        if not (is_finite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and > 0, not {self.beta!r}")
        if not is_finite((n_s - 1) * np.pi * (1 / float(self.beta))):
            raise ValueError(f"beta = {self.beta!r} overflows (n_s - 1) * pi / beta at n_s = {n_s}")
        truth = SpikeSignal(locs, np.ones(len(locs)))
        # frozen: the row's values go past the dataclass's __setattr__
        vars(self).update(n_s=n_s, kernel=kernel, truth=truth, sigma_list=sigmas)

    def nodes(self) -> CollocationNodes:
        return self.kernel.domain.nodes(self.n_a)

    def samples(self, seed: int) -> SampleSet:
        return generate_samples(self, seed)


@dataclass
class RunRecord:
    """One (preset, method, sigma, seed) cell: the report schema.

    The JSON keys are these fields in order and the CSV columns the fields
    up to `wall_time_ms`.  A failed run keeps the NaN defaults and says why
    in `failed_stage` and `error`.
    """

    preset: str
    method: str
    sigma: float
    seed: int
    location_error: float = _NAN
    weight_error: float = _NAN
    gamma_or_tol: float = _NAN
    condV_minus: float = _NAN
    svd_gap: float = _NAN
    wall_time_ms: float = 0.0
    locations: list = field(default_factory=list)  # [re, im] pairs
    weights: list = field(default_factory=list)
    failed_stage: str | None = None
    error: str | None = None

    def sort_key(self):
        # canonical output order regardless of execution order
        return (self.preset, self.sigma, self.seed, self.method)


_NAMES = tuple(f.name for f in fields(RunRecord))
CSV_COLUMNS = _NAMES[: _NAMES.index("wall_time_ms") + 1]
REPORT_FORMATS = ("csv", "json")


def load_preset(
    id: str, beta: float = DEFAULT_BETA, n_s: int | None = None, n_a: int = 32
) -> ExperimentPreset:
    """`ExperimentPreset(id, n_s, n_a, beta)`: its checks, these defaults."""
    return ExperimentPreset(id, n_s, n_a, beta)


def run_one(
    preset: ExperimentPreset, config: MethodConfig, prepared: PreparedSystem, obs: Observations
) -> RunRecord:
    """Run one (method, sigma, seed) cell on the seed's prepared system and
    noisy observation; a `SpikerecError` lands in the record at its stage,
    and any other exception propagates.

    The record's sigma and seed are `obs.sigma` and `obs.seed`.  Its wall
    time covers `recover`, which includes building any shared piece of
    `prepared` this cell is the first to need.
    """
    t0 = time.perf_counter()
    try:
        result = recover(config, prepared, obs)
    except SpikerecError as exc:
        return RunRecord(
            preset.id, config.variant.value, obs.sigma, obs.seed,
            wall_time_ms=(time.perf_counter() - t0) * 1e3,
            failed_stage=exc.stage, error=f"{type(exc).__name__}: {exc}",
        )
    wall = (time.perf_counter() - t0) * 1e3
    errors = match_and_error(preset.truth, result)
    return RunRecord(
        preset.id, config.variant.value, obs.sigma, obs.seed,
        location_error=errors.location_error,
        weight_error=errors.weight_error,
        gamma_or_tol=result.gamma_or_tol,
        condV_minus=result.condV_minus,
        svd_gap=result.svd_gap,
        wall_time_ms=wall,
        locations=[[z.real, z.imag] for z in result.locations],
        weights=[[z.real, z.imag] for z in result.weights],
    )


def check_sweep(preset: ExperimentPreset, methods, seeds, sigmas=None) -> tuple:
    """`(methods, seeds, sigmas)` as tuples; `sigmas=None` is `preset.sigma_list`.
    ValueError names an argument that is not a collection (a generator would be
    spent by a first check), has more than MAX_SWEEP_ENTRIES (500 times the
    benchmark's seed pool; a walk of 2**70 seeds would not end), is empty or
    repeats an entry (no record, or two under one key; methods by variant,
    0.0 == -0.0), or a method without the preset's `n_x` or with
    l > max(n_a, n_x + 2) (M has rank <= n_a, so more Krylov columns add no
    rank), a seed not an integer >= 0, or a sigma not a finite real >= 0
    (bools are neither)."""
    sigmas = preset.sigma_list if sigmas is None else sigmas
    n_x, l_max = preset.truth.n_x, max(preset.n_a, preset.truth.n_x + 2)
    for name, values, valid, rule in (
        ("method", methods, lambda m: m.n_x == n_x and m.l <= l_max,
         f"have n_x = {n_x} and l <= max(n_a, n_x + 2) = {l_max}"),
        ("seed", seeds, lambda s: is_integer(s) and s >= 0, "be integers >= 0"),
        ("sigma", sigmas, lambda x: is_finite(x) and x >= 0, "be finite numbers >= 0"),
    ):
        if not (isinstance(values, Collection) and getattr(values, "ndim", 1)):  # 0-d arrays
            raise ValueError(f"{name}s must be a collection such as a list, not {values!r}")
        try:
            too_many = len(values) > MAX_SWEEP_ENTRIES
        except OverflowError:  # len(range(2**70)) does not fit a C ssize_t
            too_many = True
        if too_many:
            raise ValueError(f"{name}s must number at most {MAX_SWEEP_ENTRIES}")
        for value in values:
            if not valid(value):
                raise ValueError(f"{name}s must {rule}, not {value!r}")
        labels = [m.variant.value for m in values] if name == "method" else list(values)
        if not labels or len(set(labels)) < len(labels):
            raise ValueError(f"need at least one {name}, none repeated: {labels!r}")
    return tuple(methods), tuple(seeds), tuple(sigmas)


def run_sweep(preset: ExperimentPreset, methods, seeds, sigmas=None) -> list:
    """All (sigma, seed, method) cells; one noise draw shared per (sigma, seed).

    The arguments pass `check_sweep` first; `sigmas=None` runs the preset's
    levels.  Seeds run outermost.  One `PreparedSystem` serves every cell of
    a seed and of the following seeds with the same sample points; its first
    cell to need a shared piece builds it.
    """
    methods, seeds, sigmas = check_sweep(preset, methods, seeds, sigmas)
    nodes = preset.nodes()
    records = []
    prepared = None
    for seed in seeds:
        samples = preset.samples(seed)
        u = synthesize(preset.kernel, preset.truth, samples)
        if prepared is None or not np.array_equal(samples.points, prepared.samples.points):
            prepared = PreparedSystem(preset.kernel, samples, nodes)
        for sigma in sigmas:
            obs = add_noise(u, sigma, seed)
            records.extend(run_one(preset, config, prepared, obs) for config in methods)
    records.sort(key=RunRecord.sort_key)
    return records


def _csv_cell(value) -> str:
    # floats at full precision; str and int fields as they are
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def emit_report(records, format: str, outdir, include_timing: bool = True) -> list:
    """Write records as `records.csv` or `records.json` under outdir; returns [path]."""
    records = list(records)  # `not records` is False for any generator
    if not records:
        raise ValueError("no records to report")
    if format not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {format!r}")
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        # vars(), not dataclasses.asdict: its deep copy doubles the JSON time
        objs = [vars(r) if include_timing else {**vars(r), "wall_time_ms": 0.0} for r in records]
        if format == "csv":
            path = outdir / "records.csv"
            lines = [",".join(CSV_COLUMNS)]
            lines += [",".join(_csv_cell(obj[c]) for c in CSV_COLUMNS) for obj in objs]
            path.write_text("\n".join(lines) + "\n")
            return [path]
        path = outdir / "records.json"
        path.write_text(json.dumps(objs, indent=1, allow_nan=True) + "\n")
        return [path]
    except OSError as exc:
        raise OSError(f"failed writing report under {outdir}: {exc}") from exc


def make_method(name: str, n_x: int = 4, **settings) -> MethodConfig:
    """`MethodConfig` of method `name`, a `Variant` value (ValueError
    otherwise); `settings` are its other fields."""
    return MethodConfig(Variant(name), n_x, **settings)
