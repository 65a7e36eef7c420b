import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_sites():
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SITES


SITES = _load_sites()


@pytest.mark.parametrize("module_name", sorted(SITES))
def test_traced_names_resolve(module_name):
    # Tracer.install wraps getattr(module, name) for each name, so a renamed
    # or removed function would crash the benchmark's traced pass
    module = importlib.import_module(module_name)
    missing = [a for a in SITES[module_name] if not callable(getattr(module, a, None))]
    assert not missing


def _span_names():
    # the name Tracer.wrap gives each traced function's spans
    names = set()
    for module_name, attrs in SITES.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            fn = getattr(module, attr)
            names.add(f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}")
    return names


def _observe_names():
    # perfbench/run.py's OBSERVE, read without importing the harness
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["OBSERVE"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no OBSERVE")


def test_per_layer_names_are_span_names():
    # a per-layer metric reads the spans of one function by name; a function
    # that moves module (or is renamed) would zero it without an error
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    wanted = {m["name"].rsplit(".", 1)[0] for m in per_layer if m["name"].count(".") == 2}
    wanted.discard("kernels.observe")  # the sum of OBSERVE's spans
    wanted.update(_observe_names())
    assert sorted(wanted - _span_names()) == []


# One seed of every preset with lcurve and pinv at its middle sigma, then one
# `recover` call, under the tracer the benchmark installs; prints the span names
_TRACED_PASS = """
import importlib.util, json, sys
import spikerec.cli, spikerec.experiments as ex
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
tracer = tracer_module.Tracer()
tracer.install()
for pid in spikerec.kernels.PRESET_IDS:
    preset = ex.load_preset(pid)
    methods = [ex.make_method("lcurve"), ex.make_method("pinv")]
    ex.run_sweep(preset, methods, [0], sigmas=[preset.sigma_list[1]])
argv = ["--preset", "fourier", "--method", "pinv", "--seeds", "1", "--format", "json",
        "--no-timing", "--out", sys.argv[2]]
assert spikerec.cli.main(argv) == 0
print(json.dumps(sorted({span[0] for span in tracer.spans})))
"""


def test_traced_pass_records_every_named_span(tmp_path):
    # the names above only have to resolve; this runs the traced pass itself,
    # so a probe that reads a moved attribute, or a layer whose caller stops
    # reaching it through the traced name, fails here and not in the benchmark
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_PASS, str(TRACER), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    spans = set(json.loads(proc.stdout.splitlines()[-1]))
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    wanted = {m["name"].rsplit(".", 1)[0] for m in per_layer if m["name"].count(".") == 2}
    wanted.discard("kernels.observe")  # the sum of OBSERVE's spans
    wanted.update(_observe_names())
    assert sorted(wanted - spans) == []
