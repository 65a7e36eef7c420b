"""Fold benchmark results into the committed speed trajectory.

    python tools/bench_fold.py --commit SHA RESULT.json [RESULT.json ...]

Each RESULT.json is one `perfbench/run.py` run, as it writes to
`perfbench/results/<workload>-seed<n>-trace<t>.json` (copy each run out
before the next one overwrites it).  Each run becomes one entry appended to
`BENCH_<workload>.json` at the repo root: the commit the run measured, its
seed and trace flag, the median, q1, q3 and n of every end-to-end metric
that BENCHMARK.json names, and whether every record matched the reference
(`correct`) and how many runs failed (`failed`).  `--out-dir` writes the
files elsewhere.  A file that cannot be read, is not a JSON object, or lacks
a field or one of those metrics (a `--trace 1` run has none) exits 1 with
one `error:` line that names it, before any file is written.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def entry(result: dict, commit: str, metric_names) -> dict:
    """One trajectory entry from a run's result file."""
    check = result["check"]
    metrics = {}
    for name in metric_names:
        if name not in result["metrics"]:
            raise ValueError(f"no end-to-end metric {name} (a --trace 1 run has none)")
        m = result["metrics"][name]
        metrics[name] = {"median": m["value"], "q1": m["q1"], "q3": m["q3"], "n": m["n"]}
    return {
        "commit": commit,
        "seed": result["seed"],
        "trace": result["trace"],
        "metrics": metrics,
        "correct": check["mismatched"] == 0 and check["self_test_caught_perturbation"],
        "failed": check["failed"],
    }


def fold(paths, commit: str, out_dir: Path) -> list:
    """Append one entry per result file to its workload's trajectory file;
    returns the files written."""
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    runs = {}
    # read every file before writing any, so a bad one leaves no file changed
    for path in paths:
        try:
            result = json.loads(Path(path).read_text())
            if not isinstance(result, dict):
                raise ValueError("not a JSON object")
            runs.setdefault(result["workload"], []).append(entry(result, commit, names))
        except OSError as exc:
            raise ValueError(f"{path}: {exc.strerror or exc}") from None
        except KeyError as exc:
            raise ValueError(f"{path}: no {exc.args[0]!r} field") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    written = []
    for workload, entries in sorted(runs.items()):
        target = out_dir / f"BENCH_{workload}.json"
        bench = (json.loads(target.read_text()) if target.exists()
                 else {"workload": workload, "runs": []})
        bench["runs"].extend(entries)
        target.write_text(json.dumps(bench, indent=1) + "\n")
        written.append(target)
    return written


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--commit", required=True, help="the commit the runs measured")
    p.add_argument("--out-dir", type=Path, default=ROOT)
    p.add_argument("results", nargs="+", type=Path)
    args = p.parse_args(argv)
    try:
        written = fold(args.results, args.commit, args.out_dir)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
