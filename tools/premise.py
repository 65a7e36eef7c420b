"""The source paper's premise on the five presets: the original method's
pseudo-inverse needs its threshold tuned to each problem, and the L-curve
method, which takes no threshold, does not.

    python tools/premise.py              # seeds 0-19
    python tools/premise.py --seeds 40   # seeds 0-39

For each (preset, sigma) cell of the presets' default noise levels, it runs
the seeds with pinv at each `tol_factor` in TOLERANCES and with lcurve, all
on the same noise, and prints a Markdown table: the median
`location_error` of each, the tolerance whose pinv median is lowest (the one
the cell wanted, in hindsight), pinv's spread (its largest median over its
smallest across the tolerances) and lcurve's median over that best pinv
median.  Run it with BLAS on one thread (OPENBLAS_NUM_THREADS=1) for
reproducible digits.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from spikerec import check_sweep, load_preset, make_method, run_sweep  # noqa: E402
from spikerec.kernels import PRESET_IDS  # noqa: E402

TOLERANCES = (1e-8, 1e-6, 1e-4, 1e-2)


def table(seeds) -> list:
    """One row per (preset, sigma): (preset, sigma, {tol_factor: pinv median},
    lcurve median), medians of `location_error` over `seeds`."""
    rows = []
    for pid in PRESET_IDS:
        preset = load_preset(pid)
        medians = {}  # (sigma, tol_factor or None for lcurve) -> median
        # a sweep takes one method per variant, so each tolerance is a sweep
        for tol in TOLERANCES + (None,):
            method = make_method("lcurve") if tol is None else make_method("pinv", tol_factor=tol)
            errors = {}
            for r in run_sweep(preset, [method], seeds):
                errors.setdefault(r.sigma, []).append(r.location_error)
            for sigma, values in errors.items():
                medians[sigma, tol] = statistics.median(values)
        for sigma in preset.sigma_list:
            pinv = {tol: medians[sigma, tol] for tol in TOLERANCES}
            rows.append((pid, sigma, pinv, medians[sigma, None]))
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=20, help="use seeds 0..N-1")
    args = p.parse_args(argv)
    try:  # the sweeps' seed rule, before the table's first line
        check_sweep(load_preset(PRESET_IDS[0]), [make_method("lcurve")], range(args.seeds))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    label = {t: f"{t:.0e}".replace("e-0", "e-") for t in TOLERANCES}  # 1e-8, not 1e-08
    heads = [f"pinv {label[t]}" for t in TOLERANCES]
    heads += ["lcurve", "best tol", "spread", "lcurve/best"]
    print("| preset | sigma | " + " | ".join(heads) + " |")
    print("|---" * (len(heads) + 2) + "|")
    for pid, sigma, pinv, lcurve in table(range(args.seeds)):
        best = min(pinv, key=pinv.get)
        cells = [f"{pinv[t]:.3g}" for t in TOLERANCES] + [f"{lcurve:.3g}", label[best]]
        cells += [f"{max(pinv.values()) / pinv[best]:.1f}", f"{lcurve / pinv[best]:.2f}"]
        print(f"| {pid} | {sigma:g} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
