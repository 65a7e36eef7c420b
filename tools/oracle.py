"""Behavioural oracle: the `--no-timing` reports of all five presets.

    python tools/oracle.py OUTDIR              # write OUTDIR/<preset>/records.{csv,json}
    python tools/oracle.py --compare A B       # byte-compare two such directories

Each preset runs seeds 0-39 with the lcurve and pinv methods at its default
noise levels, through the `recover` command line of the checkout this file
sits in.  A change that keeps the program's behaviour keeps every file
byte-identical; `--compare` lists the files that differ and exits 1 if any
does.
"""

from __future__ import annotations

import argparse
import sys
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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("dirs", nargs="+", type=Path, metavar="DIR")
    p.add_argument("--compare", action="store_true", help="compare two oracle directories")
    args = p.parse_args(argv)
    if len(args.dirs) != (2 if args.compare else 1):
        p.error("give OUTDIR, or --compare A B")
    return compare(*args.dirs) if args.compare else write(args.dirs[0])


if __name__ == "__main__":
    raise SystemExit(main())
