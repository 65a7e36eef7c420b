"""Workload definitions shared by the orchestrator, the worker and the
reference builder.

Every workload draws its record seeds from a fixed pool whose reference
records are stored in ``reference.json.gz``.  A run executes units one after
another, each in a fresh interpreter.  Unit k takes window ``k % 2`` of a
permutation of the pool chosen by the workload seed, so the first two units
of every run cover the pool exactly once and the accuracy read-outs do not
depend on the seed or on how many units fit in the run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PRESETS = ("rational", "spectral", "fourier", "laplace", "deconv")

# The paper's noise levels per preset.  They are pinned here, not read from
# the program's defaults, so that the benchmark alone defines the inputs.
SIGMAS = {p: (0.1, 0.01, 0.001) for p in PRESETS}
SIGMAS["laplace"] = (0.05, 0.005, 0.0005)

DEFAULT_SEED = 0  # unit 0 is then seeds 0..19, the ROADMAP sweep
HELD_OUT_SEED = 7331  # a claim tuned on the default seed must also hold here

# BLAS and OpenMP threads of every process the benchmark starts; a single
# thread keeps the numbers independent of the machine's default threading.
BLAS_THREADS = 1
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
}


@dataclass(frozen=True)
class Workload:
    name: str
    via_cli: bool  # run the `recover` CLI as a subprocess per preset
    presets: tuple
    methods: tuple
    middle_sigma_only: bool
    seeds_per_unit: int

    @property
    def pool(self) -> int:
        return 2 * self.seeds_per_unit

    def sigmas(self, preset: str) -> tuple:
        levels = SIGMAS[preset]
        return (levels[1],) if self.middle_sigma_only else levels

    def unit_seeds(self, seed: int, unit: int) -> list:
        perm = list(range(self.pool))
        if seed != DEFAULT_SEED:
            random.Random(f"{self.name}/{seed}").shuffle(perm)
        start = (unit % 2) * self.seeds_per_unit
        return sorted(perm[start : start + self.seeds_per_unit])

    def keys(self, presets, seeds) -> list:
        """(preset, method, sigma, seed) of every record a unit must produce."""
        return [
            (p, m, s, seed)
            for p in presets
            for m in self.methods
            for s in self.sigmas(p)
            for seed in seeds
        ]

    def cli_argv(self, preset: str, seeds, outdir) -> list:
        argv = ["--preset", preset]
        for m in self.methods:
            argv += ["--method", m]
        for s in self.sigmas(preset):
            argv += ["--sigma", repr(s)]
        argv += ["--seed-list", *map(str, seeds)]
        return argv + ["--format", "json", "--no-timing", "--out", str(outdir)]


WORKLOADS = {
    w.name: w
    for w in (
        # one run_sweep call per preset over all the unit's seeds, so a
        # collocation system can serve its 6 cells and spectral's all 120
        Workload("sweep-paper", False, PRESETS, ("lcurve", "pinv"), False, 20),
        # only the presets whose sample sets depend on the seed, so every
        # record gets its own collocation system
        Workload("pinv-fresh", False, PRESETS[:1] + PRESETS[2:], ("pinv",), True, 100),
        Workload("cli-reports", True, PRESETS, ("lcurve", "pinv"), False, 3),
    )
}
