"""Per-pair benchmark table of two commits from the committed speed trajectory.

    python tools/bench_table.py PARENT CHANGE [--dir DIR]

Reads `BENCH_<workload>.json` for every workload that BENCHMARK.json names
(from DIR, by default the repo root) and pairs the k-th run of PARENT with
the k-th run of CHANGE per (workload, seed), in the order the runs were
folded.  It prints one markdown row per pair: workload, seed, pair number,
and the run medians of `ms_per_record`, `wall_s`, `setup_s` and
`peak_rss_mb` as parent → change, with the percentage where the change
moved a median by at least 5%.  Below the table one line names every pair
median, of every end-to-end metric, that is worse than its BENCHMARK.json
bound, or says that none is.

PARENT and CHANGE are commit prefixes as `tools/bench_fold.py --commit`
recorded them (a full hash matches its short form too).  A prefix that
matches no commit or more than one, a (workload, seed) with unequal run
counts for the two commits, or a trajectory file that cannot be read exits
1 with one `error:` line and prints no table.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COLUMNS = ("ms_per_record", "wall_s", "setup_s", "peak_rss_mb")
MARK = 0.05  # moves of at least 5% carry their percentage


def resolve(prefix: str, commits) -> set:
    """The recorded names of the one commit that `prefix` names (a short and a
    full hash of it are one commit); ValueError otherwise."""
    found = {c for c in commits if c.startswith(prefix) or prefix.startswith(c)}
    longest = max(found, key=len, default="")
    if not found or not all(longest.startswith(c) for c in found):
        what = f"ambiguous ({', '.join(sorted(found))})" if found else "unknown"
        raise ValueError(f"{what} commit prefix {prefix!r}")
    return found


def pairs(runs_by_workload: dict, parent: str, change: str) -> list:
    """[(workload, seed, k, parent run, change run)] in workload, seed, run order."""
    commits = {r["commit"] for runs in runs_by_workload.values() for r in runs}
    names = resolve(parent, commits), resolve(change, commits)
    out = []
    for workload, runs in runs_by_workload.items():
        a, b = ([r for r in runs if r["commit"] in n] for n in names)
        for seed in sorted({r["seed"] for r in a + b}):
            x, y = [r for r in a if r["seed"] == seed], [r for r in b if r["seed"] == seed]
            if len(x) != len(y):
                raise ValueError(f"{workload} seed {seed}: {len(x)} runs of {parent} "
                                 f"but {len(y)} of {change}")
            out += [(workload, seed, k, p, c) for k, (p, c) in enumerate(zip(x, y), 1)]
    return out


def _num(x: float) -> str:
    return f"{x:.3f}" if abs(x) < 10 else f"{x:.2f}"


def cell(a: float, b: float) -> str:
    move = (b - a) / a
    mark = f" ({100 * move:+.1f}%)" if abs(move) >= MARK else ""
    return f"{_num(a)} → {_num(b)}{mark}"


def render(rows: list, bounds: dict) -> str:
    """The markdown table and the bound line."""
    lines = ["| workload | seed | pair | " + " | ".join(COLUMNS) + " |",
             "|---" * (3 + len(COLUMNS)) + "|"]
    worse = []
    for workload, seed, k, a, b in rows:
        ma, mb = a["metrics"], b["metrics"]
        cells = [cell(ma[m]["median"], mb[m]["median"]) for m in COLUMNS]
        lines.append(f"| {workload} | {seed} | {k} | " + " | ".join(cells) + " |")
        for name, (better, bound) in bounds.items():
            move = mb[name]["median"] / ma[name]["median"] - 1
            if (move if better == "lower" else -move) > bound:
                worse.append(f"{workload} seed {seed} pair {k} {name} {100 * move:+.1f}% "
                             f"(bound {100 * bound:g}%)")
    lines.append("")
    if worse:
        lines.append("Worse than the BENCHMARK.json bound: " + "; ".join(worse) + ".")
    else:
        lines.append("No pair median is worse than its BENCHMARK.json bound.")
    return "\n".join(lines)


def table(parent: str, change: str, bench_dir: Path) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    runs = {}
    for w in spec["workloads"]:
        path = bench_dir / f"BENCH_{w['name']}.json"
        try:
            runs[w["name"]] = json.loads(path.read_text())["runs"] if path.exists() else []
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: cannot read its runs ({exc!r})") from None
    try:
        return render(pairs(runs, parent, change), bounds)
    except (KeyError, TypeError) as exc:  # a run without a field or metric
        raise ValueError(f"malformed run in a BENCH file: {exc!r}") from None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="commit prefix of the parent runs")
    p.add_argument("change", help="commit prefix of the change runs")
    p.add_argument("--dir", type=Path, default=ROOT, help="where the BENCH_*.json files are")
    args = p.parse_args(argv)
    try:
        text = table(args.parent, args.change, args.dir)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
