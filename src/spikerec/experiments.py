"""Experiment harness: the five benchmark presets, seeded noise sweeps
with shared noise across methods, and CSV/JSON/plot-data reports.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .eigenmatrix import (
    MethodConfig, PreparedSystem, Variant, is_integer, is_real, prepare, recover
)
from .errors import SpikerecError, UnknownPreset
from .kernels import (
    DEFAULT_BETA,
    CollocationNodes,
    Domain,
    KernelDescriptor,
    Kind,
    SampleSet,
    SpikeSignal,
    UNIT_DISK,
    add_noise,
    chebyshev_nodes,
    generate_samples,
    synthesize,
    uniform_circle_nodes,
)
from .metrics import match_and_error

_NAN = float("nan")
# What a run may raise and still be a failed record; LinAlgError is a
# ValueError.  Anything else is a bug and propagates.
_RUN_FAILURES = (SpikerecError, ValueError)


@dataclass(frozen=True)
class ExperimentPreset:
    id: str
    kernel: KernelDescriptor
    truth: SpikeSignal
    n_s: int
    n_a: int
    node_law: str
    sigma_list: tuple
    beta: float | None = None

    def nodes(self) -> CollocationNodes:
        if self.node_law == "circle":
            return uniform_circle_nodes(self.n_a)
        lo, hi = self.kernel.domain.lo, self.kernel.domain.hi
        return chebyshev_nodes(self.n_a, lo, hi)

    def samples(self, seed: int) -> SampleSet:
        beta = self.beta if self.beta is not None else DEFAULT_BETA
        return generate_samples(self.id, seed, beta=beta, n_s=self.n_s)


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


def _default_sigmas(preset_id: str) -> tuple:
    if preset_id == "laplace":
        return (5e-2, 5e-3, 5e-4)
    return (1e-1, 1e-2, 1e-3)


def load_preset(
    id: str,
    beta: float = DEFAULT_BETA,
    n_s: int | None = None,
    n_a: int | None = None,
    sigma_list: tuple | None = None,
) -> ExperimentPreset:
    """The five benchmark configurations, optionally overriding grid sizes.

    An unusable override raises ValueError: `n_s` and `n_a` are integers of
    at least the spike count (even `n_s` on spectral), `beta` is finite and
    > 0, and `sigma_list` is a non-empty list or tuple of finite values >= 0.
    """
    ones = np.ones(4)
    if id == "rational":
        kernel = KernelDescriptor(Kind.RATIONAL, UNIT_DISK)
        locs = 0.9 * np.exp(2j * np.pi * np.array([0.2, 0.5, 0.8, 1.0]))
        base_ns, law = 40, "circle"
    elif id == "spectral":
        kernel = KernelDescriptor(Kind.SPECTRAL_RATIONAL, Domain("interval", -1.0, 1.0))
        locs = np.array([-0.9, -0.2, 0.2, 0.9])
        base_ns, law = 256, "chebyshev"
    elif id == "fourier":
        kernel = KernelDescriptor(Kind.FOURIER, Domain("interval", -1.0, 1.0))
        locs = np.array([-0.9, 0.0, 0.5, 0.9])
        base_ns, law = 128, "chebyshev"
    elif id == "laplace":
        kernel = KernelDescriptor(Kind.LAPLACE, Domain("interval", 0.1, 2.1))
        locs = np.array([0.2, 1.1, 1.6, 2.0])
        base_ns, law = 100, "chebyshev"
    elif id == "deconv":
        kernel = KernelDescriptor(Kind.CAUCHY_SQUARED, Domain("interval", -1.0, 1.0))
        locs = np.array([-0.9, 0.0, 0.5, 0.9])
        base_ns, law = 128, "chebyshev"
    else:
        raise UnknownPreset(f"unknown preset {id!r}")
    n_s = base_ns if n_s is None else n_s
    n_a = 32 if n_a is None else n_a
    sigma_list = _default_sigmas(id) if sigma_list is None else sigma_list
    # ESPRIT needs n_x sample rows, and rank(A) <= rank(G-hat) <= n_a
    for key, value in (("n_s", n_s), ("n_a", n_a)):
        if not (is_integer(value) and value >= locs.size):
            raise ValueError(f"{key} must be an integer >= {locs.size} (n_x), not {value!r}")
    if id == "spectral" and n_s % 2:
        raise ValueError("the spectral preset needs an even n_s")
    if not (is_real(beta) and 0 < beta < np.inf):
        raise ValueError(f"beta must be finite and > 0, not {beta!r}")
    if not (isinstance(sigma_list, (list, tuple)) and sigma_list) or not all(
        is_real(x) and 0 <= x < np.inf for x in sigma_list
    ):
        raise ValueError(f"sigma_list must list finite numbers >= 0, not {sigma_list!r}")
    return ExperimentPreset(
        id=id,
        kernel=kernel,
        truth=SpikeSignal(locs, ones),
        n_s=n_s,
        n_a=n_a,
        node_law=law,
        sigma_list=tuple(sigma_list),
        beta=beta if id == "spectral" else None,
    )


def _failed_record(preset, config, sigma, seed, exc, wall_ms) -> RunRecord:
    return RunRecord(
        preset.id, config.variant.value, sigma, seed,
        wall_time_ms=wall_ms,
        failed_stage=getattr(exc, "stage", "unknown"),
        error=f"{type(exc).__name__}: {exc}",
    )


def run_one(
    preset: ExperimentPreset,
    config: MethodConfig,
    sigma: float,
    seed: int,
    obs=None,
    prepared: PreparedSystem | None = None,
) -> RunRecord:
    """Run one (method, sigma, seed) cell; failures land in the record.

    `prepared` is the seed's system from `prepare`, shared by a sweep's
    cells and outside their wall time; without it the cell prepares its
    own, inside its wall time.
    """
    samples = preset.samples(seed) if obs is None or prepared is None else None
    if obs is None:
        u = synthesize(preset.kernel, preset.truth, samples)
        obs = add_noise(u, sigma, seed)
    nodes = preset.nodes() if prepared is None else None
    t0 = time.perf_counter()
    try:
        if prepared is None:
            prepared = prepare(preset.kernel, samples, nodes)
        result = recover(config, prepared, obs)
    except _RUN_FAILURES as exc:
        wall = (time.perf_counter() - t0) * 1e3
        return _failed_record(preset, config, sigma, seed, exc, wall)
    wall = (time.perf_counter() - t0) * 1e3
    errors = match_and_error(preset.truth, result)
    return RunRecord(
        preset.id, config.variant.value, sigma, seed,
        location_error=errors.location_error,
        weight_error=errors.weight_error,
        gamma_or_tol=result.gamma_or_tol,
        condV_minus=result.diagnostics["condV_minus"],
        svd_gap=result.diagnostics["svd_gap"],
        wall_time_ms=wall,
        locations=[[z.real, z.imag] for z in result.locations],
        weights=[[z.real, z.imag] for z in result.weights],
    )


def run_sweep(preset: ExperimentPreset, methods, seeds, sigmas=None) -> list:
    """All (sigma, seed, method) cells; one noise draw shared per (sigma, seed).

    Seeds run outermost.  The collocation system and its SVD depend only on
    the sample set, so one `prepare` serves every cell of a seed, and of the
    following seeds while their sample points stay the same.  If `prepare`
    fails, every cell of that seed is a failed record.
    """
    if not methods or not len(seeds):
        raise ValueError("need at least one method and one seed")
    sigmas = preset.sigma_list if sigmas is None else tuple(sigmas)
    nodes = preset.nodes()
    records = []
    prepared = None
    for seed in seeds:
        samples = preset.samples(seed)
        u = synthesize(preset.kernel, preset.truth, samples)
        failure = None
        if prepared is None or not np.array_equal(samples.points, prepared.samples.points):
            t0 = time.perf_counter()
            try:
                prepared = prepare(preset.kernel, samples, nodes)
            except _RUN_FAILURES as exc:
                prepared, failure = None, exc
                wall = (time.perf_counter() - t0) * 1e3
        for sigma in sigmas:
            obs = add_noise(u, sigma, seed)
            for config in methods:
                if failure is None:
                    rec = run_one(preset, config, sigma, seed, obs=obs, prepared=prepared)
                else:
                    rec = _failed_record(preset, config, sigma, seed, failure, wall)
                records.append(rec)
    records.sort(key=RunRecord.sort_key)
    return records


def _csv_cell(value) -> str:
    # floats at full precision; str and int fields as they are
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def emit_report(records, format: str, outdir, include_timing: bool = True) -> list:
    """Write records as csv, json, or plotdata files; returns written paths."""
    if not records:
        raise ValueError("no records to report")
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
        if format == "json":
            path = outdir / "records.json"
            path.write_text(json.dumps(objs, indent=1, allow_nan=True) + "\n")
            return [path]
        raise ValueError(f"unknown report format {format!r}")
    except OSError as exc:
        raise OSError(f"failed writing report under {outdir}: {exc}") from exc


def _emit_plotdata(records, outdir: Path) -> list:
    paths = []
    presets_seen = {}
    for r in records:
        presets_seen.setdefault(r.preset, load_preset(r.preset))
    for pid, preset in sorted(presets_seen.items()):
        path = outdir / f"{pid}_truth.dat"
        lines = ["# loc_re loc_im weight_re weight_im"]
        for x, w in zip(preset.truth.locations, preset.truth.weights):
            lines.append(f"{x.real:.17g} {x.imag:.17g} {w.real:.17g} {w.imag:.17g}")
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    groups = {}
    for r in records:
        groups.setdefault((r.preset, r.sigma, r.method), []).append(r)
    for (pid, sigma, method), recs in sorted(groups.items()):
        path = outdir / f"{pid}_sigma{sigma:g}_{method}.dat"
        lines = ["# seed loc_re loc_im weight_re weight_im"]
        for r in recs:
            for loc, w in zip(r.locations, r.weights):
                lines.append(
                    f"{r.seed} {loc[0]:.17g} {loc[1]:.17g} {w[0]:.17g} {w[1]:.17g}"
                )
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    return paths


def make_method(
    name: str,
    n_x: int = 4,
    l: int | None = None,
    tol_factor: float = 1e-4,
    gamma: float | None = None,
    grid_size: int = 200,
) -> MethodConfig:
    try:
        variant = Variant(name)
    except ValueError:
        raise ValueError(f"unknown method {name!r}") from None
    return MethodConfig(
        variant=variant,
        n_x=n_x,
        l=l,
        tol_factor=tol_factor,
        gamma=gamma,
        lcurve_grid_size=grid_size,
    )
