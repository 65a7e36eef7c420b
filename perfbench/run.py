"""spikerec benchmark: one workload, timed (--trace 0) or traced (--trace 1).

    python3 perfbench/run.py --workload sweep-paper --seed 0 --seconds 25 --trace 0

It runs the checkout's src/ (nothing needs installing).  Workloads, defined
in workloads.py, with their predictions in predictions.json:

  sweep-paper  run_sweep over 5 presets x 20 seeds x 3 sigmas x {lcurve, pinv}
  pinv-fresh   run_sweep, pinv only, middle sigma, 4 presets x 100 fresh seeds
  cli-reports  one `recover` call per preset, both methods, 3 seeds, JSON report

Each workload is a closed loop with one caller: units run one after another,
each in a fresh interpreter, until --seconds have passed (at least two units,
which together cover the workload's seed pool).  Every record is checked
against reference.json.gz; a run with a record outside the tolerance prints
``"correct": false``.  Times of the program's work are reported at the
reference speed of calibration.py.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates plain and
traced units, prints the self-time table and the per-layer metrics, and
writes the spans to results/.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import workloads
from tracer import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 5  # set-ups per run; setup_s is their median
MIN_UNITS = 2  # the first two units cover the seed pool once
PROC_TIMEOUT_S = 120.0

E2E_UNITS = {
    "setup_s": "s",
    "ms_per_record": "ms",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "loc_err_p50": "1",
    "wt_err_p50": "1",
}
# span name -> per-layer statistics reported for it
FUNCTION_STATS = {
    "kernels.build_collocation_system": ("calls", "self_ms", "repeat_frac"),
    "regularization.compute_svd": ("calls", "self_ms", "repeat_frac", "gflop_computed"),
    "regularization.lcurve_select": ("calls", "self_ms"),
    "regularization.truncated_pinv_apply": ("self_ms",),
    "eigenmatrix.build_eigenmatrix": ("self_ms",),
    "eigenmatrix.krylov_original": ("self_ms",),
    "eigenmatrix.krylov_regularized": ("self_ms",),
    "eigenmatrix.esprit_extract": ("self_ms",),
    "eigenmatrix.recover_weights": ("self_ms",),
    "eigenmatrix.recover": ("calls", "self_ms", "failed"),
    "metrics.match_and_error": ("self_ms",),
    "experiments.run_sweep": ("self_ms",),
    "experiments.run_one": ("self_ms",),
    "experiments.emit_report": ("self_ms", "bytes"),
    "cli.main": ("self_ms",),
}
STAT_UNITS = {
    "calls": "1/record",
    "self_ms": "ms/record",
    "repeat_frac": "frac",
    "gflop_computed": "GFLOP/record",
    "failed": "1/record",
    "bytes": "B/record",
}
OBSERVE = ("kernels.generate_samples", "kernels.synthesize", "kernels.add_noise")
# "process" is the import of spikerec; "bench" is the benchmark's own work
# inside traced processes (input fingerprints and calibration passes)
LAYERS = (
    "process", "kernels", "regularization", "eigenmatrix", "metrics", "experiments",
    "cli", "bench",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


@dataclass
class Proc:
    code: int
    wall_s: float
    ready_s: float | None
    ready_line: str | None
    rss_mb: float


def spawn(argv, stderr_path) -> Proc:
    """Run one child to completion; wall time, time to its "ready" line, peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **workloads.BLAS_ENV)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # imports read cached bytecode, as installs do
    start = time.perf_counter()
    with open(stderr_path, "w") as err:
        p = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err, text=True)
    watchdog = threading.Timer(PROC_TIMEOUT_S, p.kill)
    watchdog.start()
    ready = ready_line = None
    try:
        for line in p.stdout:
            if ready is None and line.startswith("ready"):
                ready, ready_line = time.perf_counter() - start, line
        _, status, usage = os.wait4(p.pid, 0)
    except BaseException:
        p.kill()
        p.wait()
        raise
    finally:
        watchdog.cancel()
        p.stdout.close()
    wall = time.perf_counter() - start
    p.returncode = os.waitstatus_to_exitcode(status)
    return Proc(p.returncode, wall, ready, ready_line, usage.ru_maxrss / 1024.0)


def _crash(proc: Proc, what: str, stderr_path: Path) -> BenchError:
    tail = stderr_path.read_text().strip().splitlines()[-5:]
    return BenchError(f"{what} exited with {proc.code}:\n  " + "\n  ".join(tail))


@dataclass
class Unit:
    index: int
    traced: bool
    seeds: list
    expected: list
    records: list = field(default_factory=list)
    failed_keys: set = field(default_factory=set)
    n_records: int = 0
    record_s: float = 0.0  # raw seconds producing records
    wall_s: float = 0.0  # raw seconds from process start to exit
    norm_record_s: float = 0.0  # the same at the calibration's reference speed
    norm_wall_s: float = 0.0
    rss_mb: float = 0.0
    procs: list = field(default_factory=list)  # (wall_s, meta) of traced processes

    @property
    def ms_per_record(self) -> float:
        return self.norm_record_s * 1e3 / self.n_records

    @property
    def raw_ms_per_record(self) -> float:
        return self.record_s * 1e3 / self.n_records


def run_library_unit(w, unit: Unit, work: Path) -> None:
    d = work / f"unit{unit.index}"
    d.mkdir()
    argv = [sys.executable, str(WORKER), "--workload", w.name, "--unit-dir", str(d),
            "--seeds", ",".join(map(str, unit.seeds))]
    proc = spawn(argv + (["--trace"] if unit.traced else []), d / "stderr.txt")
    if proc.code != 0:
        raise _crash(proc, f"unit {unit.index}", d / "stderr.txt")
    meta = json.loads((d / "meta.json").read_text())
    unit.records = json.loads((d / "records.json").read_text())
    unit.n_records = meta["n_records"]
    unit.record_s = meta["record_s"]
    unit.norm_record_s = meta["norm_record_s"]
    # the program's time: the calibration passes are left out, and the
    # process is taken at the mean speed its passes saw
    unit.wall_s = proc.wall_s - meta["calibration_s"]
    unit.norm_wall_s = unit.wall_s * meta["speed"]
    unit.rss_mb = proc.rss_mb
    if unit.traced:
        unit.procs.append((proc.wall_s, meta))


def run_cli_unit(w, unit: Unit, work: Path) -> None:
    for preset in w.presets:
        d = work / f"unit{unit.index}" / preset
        d.mkdir(parents=True)
        argv = [sys.executable, str(WORKER), "--workload", w.name, "--unit-dir", str(d),
                "--preset", preset, "--seeds", ",".join(map(str, unit.seeds))]
        proc = spawn(argv + (["--trace"] if unit.traced else []), d / "stderr.txt")
        if proc.code not in (0, 2):  # 2: some runs recorded a numerical failure
            raise _crash(proc, f"recover --preset {preset}", d / "stderr.txt")
        records = json.loads((d / "records.json").read_text())
        meta = json.loads((d / "meta.json").read_text())
        if proc.code != 0:
            unit.failed_keys.update(w.keys((preset,), unit.seeds))
        unit.records += records
        unit.n_records += len(records)
        wall_s = proc.wall_s - meta["calibration_s"]  # as for library units
        unit.record_s += wall_s
        unit.wall_s += wall_s
        unit.norm_record_s += wall_s * meta["speed"]
        unit.norm_wall_s += wall_s * meta["speed"]
        unit.rss_mb = max(unit.rss_mb, proc.rss_mb)
        if unit.traced:
            unit.procs.append((proc.wall_s, meta))


def check_units(units, ref, tol) -> dict:
    """Counts of attempted, failed and mismatched records, and the self-test."""
    attempted = failed = mismatched = 0
    reasons = {}
    self_test = None
    for unit in units:
        got = {(r["preset"], r["method"], r["sigma"], r["seed"]): r for r in unit.records}
        mismatched += len(got.keys() - set(unit.expected))  # records nobody asked for
        for key in unit.expected:
            attempted += 1
            record = got.get(key)
            if record is None or record["failed_stage"] is not None or key in unit.failed_keys:
                failed += 1
                mismatched += 1
                continue
            reason = check.mismatch(record, ref[key], tol)
            if reason is not None:
                mismatched += 1
                reasons.setdefault(reason, key)
            elif self_test is None:
                self_test = check.self_test(record, ref[key], tol)
    return {
        "attempted": attempted,
        "failed": failed,
        "mismatched": mismatched,
        "failed_frac": failed / attempted,
        "oracle_mismatch_frac": mismatched / attempted,
        "first_mismatch_by_field": {k: list(v) for k, v in reasons.items()},
        "self_test_caught_perturbation": bool(self_test),
    }


def stat(samples, unit) -> dict:
    """Median and quartiles of the samples, with their count."""
    q1, q3 = (statistics.quantiles(samples, n=4)[::2] if len(samples) > 1
              else (samples[0], samples[0]))
    return {"value": statistics.median(samples), "unit": unit, "q1": q1, "q3": q3,
            "n": len(samples)}


def end_to_end(units, setups) -> dict:
    plain = [u for u in units if not u.traced]
    pool = [r for u in units[:MIN_UNITS] for r in u.records if r["failed_stage"] is None]
    samples = {
        "setup_s": setups,
        "ms_per_record": [u.ms_per_record for u in plain],
        "wall_s": [u.norm_wall_s for u in plain],
        "peak_rss_mb": [u.rss_mb for u in plain],
        "loc_err_p50": [statistics.median(r["location_error"] for r in pool)],
        "wt_err_p50": [statistics.median(r["weight_error"] for r in pool)],
    }
    return {name: stat(samples[name], unit) for name, unit in E2E_UNITS.items()}


def per_layer(units) -> tuple:
    """Per-layer metrics and the self-time table of the traced units."""
    traced = [u for u in units if u.traced]
    n = sum(u.n_records for u in traced)
    procs = [p for u in traced for p in u.procs]
    workload_s = sum(wall for wall, _ in procs)
    table = {}
    for _, meta in procs:
        for name, row in summarize(meta["spans"]).items():
            merged = table.setdefault(name, {})
            for key, value in row.items():
                merged[key] = merged.get(key, 0) + value

    metrics = {}
    for name, stats in FUNCTION_STATS.items():
        row = table.get(name, {})
        calls = row.get("calls", 0)
        values = {
            "calls": calls / n,
            "self_ms": row.get("self_s", 0.0) * 1e3 / n,
            "repeat_frac": row.get("repeat", 0) / calls if calls else 0.0,
            "gflop_computed": row.get("gflop", 0.0) / n,
            "failed": row.get("failed", 0) / n,
            "bytes": row.get("bytes", 0) / n,
        }
        for s in stats:
            metrics[f"{name}.{s}"] = (values[s], STAT_UNITS[s])
    observe_s = sum(table.get(name, {}).get("self_s", 0.0) for name in OBSERVE)
    metrics["kernels.observe.self_ms"] = (observe_s * 1e3 / n, "ms/record")
    metrics["process.import_s"] = (
        statistics.median(meta["import_s"] for _, meta in procs), "s")
    for layer in LAYERS:
        layer_s = sum(row["self_s"] for name, row in table.items()
                      if name.split(".")[0] == layer)
        metrics[f"{layer}.share"] = (layer_s / workload_s, "frac")
    covered_s = sum(row["self_s"] for row in table.values())
    metrics["uncovered.share"] = ((workload_s - covered_s) / workload_s, "frac")
    plain_ms = statistics.median(u.ms_per_record for u in units if not u.traced)
    traced_ms = statistics.median(u.ms_per_record for u in traced)
    metrics["trace.overhead_frac"] = (traced_ms / plain_ms - 1.0, "frac")
    return metrics, table, workload_s, n


def print_self_times(table, workload_s, n) -> None:
    print(f"\nself time of the traced units: {workload_s:.3f} s over {n} records")
    print(f"  {'span':40s} {'calls/rec':>9s} {'ms/rec':>9s} {'share':>7s}")
    rows = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])
    covered = 0.0
    for layer in LAYERS:
        layer_rows = [(k, r) for k, r in rows if k.split(".")[0] == layer]
        layer_s = sum(r["self_s"] for _, r in layer_rows)
        covered += layer_s
        if not layer_rows:
            continue
        print(f"  {layer:40s} {'':9s} {layer_s * 1e3 / n:9.4f} {layer_s / workload_s:7.2%}")
        for name, r in layer_rows:
            print(f"    {name:38s} {r['calls'] / n:9.3f} {r['self_s'] * 1e3 / n:9.4f}"
                  f" {r['self_s'] / workload_s:7.2%}")
    uncovered = workload_s - covered
    print(f"  {'uncovered (interpreter, glue)':40s} {'':9s} {uncovered * 1e3 / n:9.4f}"
          f" {uncovered / workload_s:7.2%}")
    total = covered + uncovered
    print(f"  {'total':40s} {'':9s} {total * 1e3 / n:9.4f} {total / workload_s:7.2%}")


def run(args, work: Path) -> tuple:
    w = workloads.WORKLOADS[args.workload]
    ref, tol, ref_commit = check.load_reference()

    # Unmeasured warm-up: fills the page cache and writes bytecode, which a
    # user pays once, not per run.  It also reports the environment.
    env_path = work / "env.json"
    probe = [sys.executable, str(WORKER), "--workload", w.name, "--setup-only"]
    proc = spawn(probe + ["--env-out", str(env_path)], work / "warmup.stderr")
    if proc.code != 0:
        raise _crash(proc, "set-up", work / "warmup.stderr")
    env = json.loads(env_path.read_text())
    if not Path(env["spikerec_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"spikerec imported from {env['spikerec_file']}, not {ROOT / 'src'}")

    setups, raw_setups = [], []
    if not args.trace:
        for i in range(SETUP_PROBES):
            proc = spawn(probe, work / f"setup{i}.stderr")
            if proc.code != 0 or proc.ready_s is None:
                raise _crash(proc, "set-up", work / f"setup{i}.stderr")
            speed, calibration_s = map(float, proc.ready_line.split()[1:])
            raw_setups.append(proc.ready_s - calibration_s)
            setups.append(raw_setups[-1] * speed)

    runner = run_cli_unit if w.via_cli else run_library_unit
    units = []
    start = time.perf_counter()
    while len(units) < MIN_UNITS or time.perf_counter() - start < args.seconds:
        k = len(units)
        seeds = w.unit_seeds(args.seed, k)
        unit = Unit(k, bool(args.trace) and k % 2 == 1, seeds, w.keys(w.presets, seeds))
        runner(w, unit, work)
        units.append(unit)

    verdict = check_units(units, ref, tol)
    correct = verdict["mismatched"] == 0 and verdict["self_test_caught_perturbation"]
    report = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "reference_commit": ref_commit, "tolerance": tol,
        "check": verdict,
        "units": [{"index": u.index, "traced": u.traced, "seeds": u.seeds,
                   "records": u.n_records, "ms_per_record": u.ms_per_record,
                   "raw_ms_per_record": u.raw_ms_per_record, "wall_s": u.norm_wall_s,
                   "raw_wall_s": u.wall_s, "peak_rss_mb": u.rss_mb} for u in units],
        "setup_s": setups, "raw_setup_s": raw_setups,
    }

    print(f"spikerec benchmark: {w.name}, seed {args.seed}, trace {args.trace}")
    print(f"environment: python {env['python']}, numpy {env['numpy']} ({env['numpy_blas']}),"
          f" scipy {env['scipy']} ({env['scipy_blas']}), nproc {env['nproc']},"
          f" BLAS threads {workloads.BLAS_THREADS}, caches {env['cpu_caches']}")
    print(f"units: {len(units)} ({sum(u.traced for u in units)} traced),"
          f" {verdict['attempted']} records")
    print(f"check vs reference {ref_commit[:12]} (rtol {tol['rtol']:g}):"
          f" failed_frac {verdict['failed_frac']:g},"
          f" oracle_mismatch_frac {verdict['oracle_mismatch_frac']:g},"
          f" self-test {'caught' if verdict['self_test_caught_perturbation'] else 'MISSED'}"
          " the perturbed record")
    if not correct:
        print(f"WRONG: records outside tolerance {verdict['first_mismatch_by_field']};"
              " the timings below are not valid")

    if args.trace:
        layer, table, workload_s, n = per_layer(units)
        print_self_times(table, workload_s, n)
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in layer.items()}
        spans_path = HERE / "results" / f"{w.name}-seed{args.seed}-spans.jsonl"
        with open(spans_path, "w") as fh:
            for u in units:
                for pid, (_, meta) in enumerate(u.procs):
                    for span in meta["spans"]:
                        fh.write(json.dumps([u.index, pid, *span]) + "\n")
        report["spans"] = str(spans_path.relative_to(ROOT))
        report["spans_fields"] = ["unit", "process", "name", "start", "end", "parent",
                                  "record", "extra"]
    else:
        metrics = end_to_end(units, setups)
    print(f"\n  {'metric':44s} {'value':>12s} {'unit':12s} {'q1':>12s} {'q3':>12s}  n")
    for name, m in metrics.items():
        q = (f"{m['q1']:12.6g} {m['q3']:12.6g} {m['n']:2d}" if "n" in m else "")
        print(f"  {name:44s} {m['value']:12.6g} {m['unit']:12s} {q}")
    plain = [u for u in units if not u.traced]
    raw = {"setup_s": raw_setups, "ms_per_record": [u.raw_ms_per_record for u in plain],
           "wall_s": [u.wall_s for u in plain]}
    report["raw_medians"] = {k: statistics.median(v) for k, v in raw.items() if v}
    print("  times are at the calibration's reference speed; raw: "
          + ", ".join(f"{k} {v:.6g}" for k, v in report["raw_medians"].items()))
    report["metrics"] = metrics
    result_path = HERE / "results" / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"results: {result_path.relative_to(ROOT)}")
    return correct, verdict, metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "spikerec" / "__init__.py").is_file():
        print(f"run.py: no src/spikerec under {ROOT}; run it in a spikerec checkout",
              file=sys.stderr)
        return 2
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (HERE / "results").mkdir(exist_ok=True)
    try:
        correct, verdict, metrics = run(args, work)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
