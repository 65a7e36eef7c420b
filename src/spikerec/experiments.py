"""Experiment harness: the five benchmark presets, seeded noise sweeps
with shared noise across methods, and CSV/JSON/plot-data reports.
"""

from __future__ import annotations

import json
import time
from collections.abc import Collection
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .eigenmatrix import MethodConfig, PreparedSystem, Variant, recover
from .errors import SpikerecError
from .kernels import (
    DEFAULT_BETA,
    CollocationNodes,
    KernelDescriptor,
    Observations,
    SampleSet,
    SpikeSignal,
    add_noise,
    chebyshev_nodes,
    generate_samples,
    is_finite,
    is_integer,
    preset_row,
    synthesize,
    uniform_circle_nodes,
)
from .metrics import match_and_error

_NAN = float("nan")
MAX_ARRAY_BYTES = 2**30  # ExperimentPreset's cap on 16 * n_s * max(n_s, n_a)
MAX_SWEEP_ENTRIES = 10**5  # check_sweep's cap on each argument's length


@dataclass(frozen=True)
class ExperimentPreset:
    """Row `id` of `kernels.PRESETS` at a caller's `n_s` (None: the row's), `n_a` and
    `beta`, checked by `preset_row`, n_a >= n_x (rank(A) <= n_a) and MAX_ARRAY_BYTES on
    complex G and pinv's M; `kernel`, `truth` and `sigma_list` are the row's, not settable."""

    id: str
    n_s: int | None
    n_a: int
    beta: float  # Matsubara scale; only the spectral samples use it
    kernel: KernelDescriptor = field(init=False)
    truth: SpikeSignal = field(init=False)
    sigma_list: tuple = field(init=False)

    def __post_init__(self):
        kernel, locs, n_s, sigmas, _ = preset_row(self.id, self.n_s, self.beta)
        if not (is_integer(self.n_a) and self.n_a >= len(locs)):
            raise ValueError(f"n_a must be an integer >= {len(locs)} (n_x), not {self.n_a!r}")
        if 16 * n_s * max(n_s, self.n_a) > MAX_ARRAY_BYTES:
            raise ValueError(f"n_s = {n_s} and n_a = {self.n_a} exceed the array cap "
                             f"16 * n_s * max(n_s, n_a) <= {MAX_ARRAY_BYTES} bytes")
        truth = SpikeSignal(locs, np.ones(len(locs)))
        # frozen: the row's values go past the dataclass's __setattr__
        vars(self).update(n_s=n_s, kernel=kernel, truth=truth, sigma_list=sigmas)

    def nodes(self) -> CollocationNodes:
        if self.kernel.domain.kind == "disk":
            return uniform_circle_nodes(self.n_a)
        return chebyshev_nodes(self.n_a, self.kernel.domain.lo, self.kernel.domain.hi)

    def samples(self, seed: int) -> SampleSet:
        return generate_samples(self.id, seed, beta=self.beta, n_s=self.n_s)


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
REPORT_FORMATS = ("csv", "json", "plotdata")


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
    """Write records as csv, json, or plotdata files; returns written paths."""
    records = list(records)  # read once: plotdata and the empty check each read them
    if not records:
        raise ValueError("no records to report")
    if format not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {format!r}")
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        if format == "plotdata":
            return _emit_plotdata(records, outdir)
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


def _emit_plotdata(records, outdir: Path) -> list:
    paths = []
    for pid in sorted({r.preset for r in records}):
        path = outdir / f"{pid}_truth.dat"
        lines = ["# loc_re loc_im weight_re weight_im"]
        truth = load_preset(pid).truth
        for x, w in zip(truth.locations, truth.weights):
            lines.append(f"{x.real:.17g} {x.imag:.17g} {w.real:.17g} {w.imag:.17g}")
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    groups = {}
    for r in records:
        groups.setdefault((r.preset, r.sigma, r.method), []).append(r)
    for (pid, sigma, method), recs in sorted(groups.items()):
        # %g names the default sigmas; one it would round keeps all its digits
        label = f"{sigma:g}" if float(f"{sigma:g}") == sigma else repr(sigma)
        path = outdir / f"{pid}_sigma{label}_{method}.dat"
        lines = ["# seed loc_re loc_im weight_re weight_im"]
        for r in recs:
            for loc, w in zip(r.locations, r.weights):
                lines.append(f"{r.seed} {loc[0]:.17g} {loc[1]:.17g} {w[0]:.17g} {w[1]:.17g}")
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    return paths


def make_method(name: str, n_x: int = 4, **settings) -> MethodConfig:
    """`MethodConfig` of method `name`, a `Variant` value (ValueError
    otherwise); `settings` are its other fields."""
    return MethodConfig(Variant(name), n_x, **settings)
