"""Plot data from a `records.json` report, one whitespace-separated `.dat` file per group.

    python tools/plotdata.py results/records.json plots/

For each preset it writes `<preset>_truth.dat` (`# loc_re loc_im weight_re
weight_im`, the preset's true spikes) and for each (preset, sigma, method)
`<preset>_sigma<sigma>_<method>.dat` (`# seed loc_re loc_im weight_re
weight_im`, one line per recovered spike; a failed record has none).  The
sigma is named by `%g` unless that form rounds it, then by all its digits,
so 0.1 and 0.1000001 get two files.  It prints the written paths.  Exit 1,
with one line on stderr, on a file that cannot be read or written or on JSON
that is not a list of records.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from spikerec import Variant, load_preset  # noqa: E402
from spikerec.kernels import PRESET_IDS  # noqa: E402

METHODS = frozenset(v.value for v in Variant)  # a method names a file: no "../" from the input


def _is_number(value) -> bool:
    return type(value) in (int, float)


def _is_record(r) -> bool:
    return (isinstance(r, dict) and r.get("preset") in PRESET_IDS
            and r.get("method") in METHODS and _is_number(r.get("sigma"))
            and type(r.get("seed")) is int
            and all(isinstance(r.get(key), list) and all(
                isinstance(z, list) and len(z) == 2 and all(map(_is_number, z)) for z in r[key])
                for key in ("locations", "weights")))


def _write(path: Path, header: str, lines) -> Path:
    path.write_text("\n".join([header, *lines]) + "\n")
    return path


def write_plotdata(records: list, outdir: Path) -> list:
    """Write the `.dat` files of `records` (dicts of `records.json`) under `outdir`."""
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for pid in sorted({r["preset"] for r in records}):
        truth = load_preset(pid).truth
        paths.append(_write(outdir / f"{pid}_truth.dat", "# loc_re loc_im weight_re weight_im", (
            f"{x.real:.17g} {x.imag:.17g} {w.real:.17g} {w.imag:.17g}"
            for x, w in zip(truth.locations, truth.weights))))
    groups = {}
    for r in records:
        groups.setdefault((r["preset"], r["sigma"], r["method"]), []).append(r)
    for (pid, sigma, method), recs in sorted(groups.items()):
        # %g names the default sigmas; one it would round keeps all its digits
        label = f"{sigma:g}" if float(f"{sigma:g}") == sigma else repr(sigma)
        paths.append(_write(outdir / f"{pid}_sigma{label}_{method}.dat",
                            "# seed loc_re loc_im weight_re weight_im", (
            f"{r['seed']} {loc[0]:.17g} {loc[1]:.17g} {w[0]:.17g} {w[1]:.17g}"
            for r in recs for loc, w in zip(r["locations"], r["weights"]))))
    return paths


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: plotdata.py RECORDS_JSON OUTDIR", file=sys.stderr)
        return 1
    source, outdir = Path(args[0]), Path(args[1])
    try:
        records = json.loads(source.read_text())
    except (OSError, ValueError) as exc:  # undecodable bytes and bad JSON are ValueErrors
        print(f"error: cannot read {source}: {exc}", file=sys.stderr)
        return 1
    if not (isinstance(records, list) and records and all(map(_is_record, records))):
        print(f"error: {source} is not a non-empty list of records", file=sys.stderr)
        return 1
    try:
        paths = write_plotdata(records, outdir)
    except OSError as exc:
        print(f"error: cannot write plot data under {outdir}: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
