import ast
import importlib
import importlib.util
import json
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
