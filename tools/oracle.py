"""Behavioural oracle: the `--no-timing` reports of all five presets.

    python tools/oracle.py OUTDIR                       # write OUTDIR/<preset>/records.{csv,json}
    python tools/oracle.py --compare A B                # byte-compare two such directories
    python tools/oracle.py --compare A B --rtol 1e-6    # compare B's records to A's within R

Each preset runs seeds 0-39 with the lcurve and pinv methods at its default
noise levels, through the `recover` command line of the checkout this file
sits in.  A change that keeps the program's behaviour keeps every file
byte-identical; `--compare` lists the files that differ and exits 1 if any
does.

A change that moves floating-point round-off on purpose states a tolerance R
and compares with `--rtol R` against the reference A written before it.  That
mode reads the `records.json` files, matches records on (preset, method,
sigma, seed), and compares each float field up to `wall_time_ms` relative to
A's value, and the locations and weights under the assignment that best
matches the locations, relative to A's largest magnitude (as
perfbench/check.py does).  `failed_stage` and `error` must be equal, and NaN
matches only NaN.  It prints the worst relative difference and the number of
records that moved per preset and field, and exits 1 if any difference
exceeds R or a record is missing from either side.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import permutations
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = 40
FORMATS = ("csv", "json")


def write(outdir: Path) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from spikerec.cli import main
    from spikerec.kernels import PRESET_IDS

    for preset in PRESET_IDS:
        for fmt in FORMATS:
            argv = [
                "--preset", preset, "--method", "lcurve", "--method", "pinv",
                "--seeds", str(SEEDS), "--format", fmt, "--no-timing",
                "--out", str(outdir / preset),
            ]
            # exit 2 (some runs failed) is behaviour the reports record
            if main(argv) == 1:
                return 1
    return 0


def compare(a: Path, b: Path) -> int:
    names = sorted(
        {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
        | {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    )
    differ = [
        n for n in names
        if not ((a / n).is_file() and (b / n).is_file()
                and (a / n).read_bytes() == (b / n).read_bytes())
    ]
    for n in differ:
        print(f"differs: {n}")
    print(f"{len(names) - len(differ)}/{len(names)} files byte-identical")
    return 1 if differ or not names else 0


def _load_records(root: Path) -> dict:
    records = {}
    for path in sorted(root.rglob("records.json")):
        for r in json.loads(path.read_text()):
            records[(r["preset"], r["method"], r["sigma"], r["seed"])] = r
    return records


def _rel(got, want, scale) -> float:
    """|got - want| / scale: 0 when equal (NaN equals NaN), inf when not comparable."""
    if got == want or (got != got and want != want):
        return 0.0
    diff = abs(got - want) / scale if scale else math.inf
    return diff if diff == diff else math.inf


def _differences(got: dict, want: dict) -> dict:
    """Relative difference of each compared field of one record."""
    names = list(want)
    out = {
        name: _rel(got.get(name, math.nan), want[name], abs(want[name]))
        for name in names[names.index("seed") + 1 : names.index("wall_time_ms") + 1]
    }
    got_l, got_w, ref_l, ref_w = (
        [complex(*z) for z in rec[key]]
        for rec in (got, want) for key in ("locations", "weights")
    )
    n = len(ref_l)
    if (len(got_l), len(got_w), len(ref_w)) != (n, n, n):
        out["locations"] = out["weights"] = math.inf
    else:
        perm = min(
            permutations(range(n)),
            key=lambda p: sum(abs(got_l[p[k]] - ref_l[k]) ** 2 for k in range(n)),
        )
        for name, vals, ref in (("locations", got_l, ref_l), ("weights", got_w, ref_w)):
            scale = max((abs(z) for z in ref), default=0.0)
            out[name] = max((_rel(vals[perm[k]], ref[k], scale) for k in range(n)), default=0.0)
    for name in ("failed_stage", "error"):
        out[name] = 0.0 if got.get(name) == want[name] else math.inf
    return out


def compare_within(a: Path, b: Path, rtol: float) -> int:
    ref, new = _load_records(a), _load_records(b)
    missing = sorted(ref.keys() ^ new.keys(), key=str)
    for key in missing:
        print(f"missing in {b if key in ref else a}: {key}")
    worst = {}  # (preset, field) -> [largest difference, records moved, records]
    moved = {}  # method -> [records with any field moved, records]
    for key in sorted(ref.keys() & new.keys(), key=str):
        diffs = _differences(new[key], ref[key])
        for name, diff in diffs.items():
            entry = worst.setdefault((key[0], name), [0.0, 0, 0])
            entry[0] = max(entry[0], diff)
            entry[1] += diff > 0
            entry[2] += 1
        count = moved.setdefault(key[1], [0, 0])
        count[0] += any(d > 0 for d in diffs.values())
        count[1] += 1
    print(f"{'preset':<10} {'field':<15} {'worst rel diff':>14}  moved")
    for (preset, name), (diff, n_moved, total) in sorted(worst.items()):
        flag = "  > rtol" if diff > rtol else ""
        print(f"{preset:<10} {name:<15} {diff:>14.3g}  {n_moved}/{total}{flag}")
    print("records moved: " + ", ".join(f"{m} {k}/{n}" for m, (k, n) in sorted(moved.items())))
    outside = sum(diff > rtol for diff, _, _ in worst.values())
    print(f"{len(ref.keys() & new.keys())} records matched, {len(missing)} missing, "
          f"{outside} preset/field pairs outside rtol {rtol:g}")
    return 1 if missing or outside or not worst else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("dirs", nargs="+", type=Path, metavar="DIR")
    p.add_argument("--compare", action="store_true", help="compare two oracle directories")
    p.add_argument(
        "--rtol", type=float, metavar="R",
        help="with --compare: compare records within relative tolerance R, not bytes",
    )
    args = p.parse_args(argv)
    if len(args.dirs) != (2 if args.compare else 1):
        p.error("give OUTDIR, or --compare A B")
    if args.rtol is not None and not (args.compare and 0 <= args.rtol < math.inf):
        p.error("--rtol takes a finite R >= 0 and needs --compare")
    if not args.compare:
        return write(args.dirs[0])
    if args.rtol is None:
        return compare(*args.dirs)
    return compare_within(*args.dirs, args.rtol)


if __name__ == "__main__":
    raise SystemExit(main())
