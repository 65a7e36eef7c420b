"""Rebuild reference.json.gz: the --no-timing records of every workload's
seed pool, made with the program of the current checkout.

    python3 perfbench/make_reference.py

Only rebuild it on purpose: the benchmark reports a run as wrong when the
program's records leave this reference by more than TOLERANCE.
"""

from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json.gz"

# |got - ref| <= atol + rtol * scale, where scale is |ref| for the scalar
# fields and max |ref| over the vector for the (optimally matched) locations
# and weights.  Calibration at the reference commit: multiplying every
# observation by (1 + 1e-14 z), z ~ N(0, 1), moved no record by more than
# 6.7e-5 of its scale (one ill-conditioned spectral pinv record), and 48 of
# the 50 (preset, method, field) groups by less than 3e-7; two BLAS threads
# instead of one moved none by more than 8e-8.  A real change, such as one
# L-curve grid cell (about 15% in gamma), misses by orders of magnitude.
TOLERANCE = {"rtol": 1e-4, "atol": 1e-12}
DIGITS = 10  # stored significant digits, far below the tolerance


def _round(x: float) -> float:
    return float(f"{x:.{DIGITS}g}")


def main() -> int:
    os.environ.update(workloads.BLAS_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    from spikerec import load_preset, make_method, run_sweep

    rows = {}
    for w in workloads.WORKLOADS.values():
        for pid in w.presets:
            preset = load_preset(pid)
            methods = [make_method(m, n_x=preset.truth.n_x) for m in w.methods]
            for r in run_sweep(preset, methods, range(w.pool), sigmas=w.sigmas(pid)):
                if r.failed_stage is not None:
                    raise SystemExit(f"reference record failed: {r}")
                row = [
                    r.preset, r.method, r.sigma, r.seed,
                    *(_round(x) for x in (r.location_error, r.weight_error, r.gamma_or_tol)),
                    [[_round(x) for x in z] for z in r.locations],
                    [[_round(x) for x in z] for z in r.weights],
                ]
                key = tuple(row[:4])
                if rows.setdefault(key, row) != row:
                    raise SystemExit(f"record {key} differs between workloads")
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    doc = {
        "commit": commit,
        "tolerance": TOLERANCE,
        "fields": ["preset", "method", "sigma", "seed", "location_error", "weight_error",
                   "gamma_or_tol", "locations", "weights"],
        "records": [rows[k] for k in sorted(rows)],
    }
    REFERENCE.write_bytes(gzip.compress(json.dumps(doc, separators=(",", ":")).encode(), mtime=0))
    print(f"{len(rows)} records from {commit} -> {REFERENCE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
