"""One benchmark process, started by run.py in a fresh interpreter with
PYTHONPATH pointing at the checkout's src/ and the BLAS threads pinned.

    worker.py --workload W --setup-only [--env-out FILE]
    worker.py --workload W --unit-dir DIR --seeds 0,1,2 [--preset P] [--trace]

--setup-only does the workload's set-up and prints ``ready <speed>
<calibration seconds>``, the mean factor to reference speed its calibration
passes saw and the time they took, then exits.  A
library unit does the same set-up, runs ``run_sweep`` once per preset and
writes the records with ``emit_report`` as ``records.json``.  For
cli-reports, --preset makes one `recover` call the way the installed entry
point does, ``spikerec.cli.main(argv)``.  Both write their timings (and
spans, when traced) as ``meta.json``.  Calibration passes (calibration.py)
run between the program's bytecodes from the package import to the end.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import sys
import time
from pathlib import Path

import workloads


def environment() -> dict:
    import numpy
    import scipy
    import spikerec

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.__config__.CONFIG),
        "scipy_blas": blas(scipy.__config__.CONFIG),
        "blas_env": {k: os.environ.get(k) for k in workloads.BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_caches": caches,
        "spikerec_file": spikerec.__file__,
    }


def import_spikerec(w, tracer) -> float:
    """Import the package (and the CLI, for cli-reports); seconds taken."""
    start = time.perf_counter()
    with tracer.span("process.import") if tracer else contextlib.nullcontext():
        if w.via_cli:
            import spikerec.cli
        import spikerec.experiments  # noqa: F401
    seconds = time.perf_counter() - start
    if tracer:
        tracer.install()
    return seconds


def set_up(w) -> tuple:
    """What the workload does before its first record: presets and methods."""
    experiments = sys.modules["spikerec.experiments"]
    if w.via_cli:  # as `recover` does
        cli_args = sys.modules["spikerec.cli"].build_parser().parse_args(
            w.cli_argv(w.presets[0], [0], "."))
        names, preset_ids = cli_args.method, [cli_args.preset]
    else:
        names, preset_ids = w.methods, w.presets
    presets = {p: experiments.load_preset(p) for p in preset_ids}
    methods = {p: [experiments.make_method(m, n_x=presets[p].truth.n_x) for m in names]
               for p in preset_ids}
    return presets, methods


def library_unit(w, args, seeds) -> dict:
    experiments = sys.modules["spikerec.experiments"]
    presets, methods = set_up(w)
    records = []
    calls = []  # [preset, records, start, end]
    for pid in w.presets:
        start = time.perf_counter()
        out = experiments.run_sweep(presets[pid], methods[pid], seeds, sigmas=w.sigmas(pid))
        calls.append([pid, len(out), start, time.perf_counter()])
        records += out
    experiments.emit_report(records, "json", args.unit_dir, include_timing=False)
    return {"n_records": len(records), "calls": calls}


def unit(w, args, seeds, tracer) -> int:
    """One library unit or one `recover` call, under calibration."""
    from calibration import Timeline  # loads NumPy before the timed span

    on_pass = (lambda start, end: tracer.add("bench.calibration", start, end)) if tracer else None
    with Timeline(on_pass) as timeline:
        start = time.perf_counter()
        import_s = import_spikerec(w, tracer)
        if w.via_cli:
            code = sys.modules["spikerec.cli"].main(w.cli_argv(args.preset, seeds, args.unit_dir))
            meta = {}
        else:
            code = 0
            meta = library_unit(w, args, seeds)
        end = time.perf_counter()
    raw, norm = timeline.normalise(start, end)
    meta.update(import_s=import_s, speed=norm / raw, calibration_s=timeline.spent_s)
    if "calls" in meta:
        # [preset, records, seconds, seconds at reference speed]
        for call in meta["calls"]:
            call[2:] = timeline.normalise(*call[2:])
        meta["record_s"] = sum(c[2] for c in meta["calls"])
        meta["norm_record_s"] = sum(c[3] for c in meta["calls"])
    if tracer:
        meta["spans"] = tracer.spans
    Path(args.unit_dir, "meta.json").write_text(json.dumps(meta))
    return code


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--env-out")
    p.add_argument("--unit-dir")
    p.add_argument("--seeds", default="")
    p.add_argument("--preset")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    w = workloads.WORKLOADS[args.workload]
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        return unit(w, args, [int(s) for s in args.seeds.split(",")], tracer)
    from calibration import Timeline

    with Timeline() as timeline:
        start = time.perf_counter()
        import_spikerec(w, None)
        set_up(w)
        end = time.perf_counter()
    raw, norm = timeline.normalise(start, end)
    print(f"ready {norm / raw!r} {timeline.spent_s!r}", flush=True)
    if args.env_out:
        Path(args.env_out).write_text(json.dumps(environment()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
