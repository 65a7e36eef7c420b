"""The benchmark harness (perfbench/) and the tools (tools/) reach spikerec by
name; a name the package drops would only fail when one of them runs.  The
scripts are read with `ast`, not imported, as test_tracer_sites reads OBSERVE.
The argument lists that the benchmark and the oracle hand to `recover` are
built by their own code, loaded by file path, and must parse."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from spikerec.cli import build_parser
from spikerec.experiments import REPORT_FORMATS
from spikerec.kernels import PRESET_IDS

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("tools/*.py")])


def _package_module(name) -> bool:
    return isinstance(name, str) and (name == "spikerec" or name.startswith("spikerec."))


def _sys_module(node):
    """"spikerec.<module>" if `node` is `sys.modules["spikerec.<module>"]`."""
    if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "modules" and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "sys" and isinstance(node.slice, ast.Constant)
            and _package_module(node.slice.value)):
        return node.slice.value
    return None


def _references(tree) -> set:
    """(module, name) for each `from spikerec[.<module>] import name`, each
    `sys.modules["spikerec.<module>"].name` and each `alias.name` where a
    function bound `alias = sys.modules["spikerec.<module>"]`; `import
    spikerec.<module>` gives ("spikerec", module)."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and _package_module(node.module):
            refs.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names if _package_module(a.name) and "." in a.name]
            refs.update(tuple(name.rsplit(".", 1)) for name in names)
        elif isinstance(node, ast.Attribute) and _sys_module(node.value):
            refs.add((_sys_module(node.value), node.attr))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            aliases = {
                target.id: _sys_module(stmt.value)
                for stmt in ast.walk(node) if isinstance(stmt, ast.Assign)
                for target in stmt.targets if isinstance(target, ast.Name)
                and _sys_module(stmt.value)
            }
            refs.update(
                (aliases[n.value.id], n.attr) for n in ast.walk(node)
                if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and n.value.id in aliases
            )
    return refs


REFERENCES = sorted(
    (path.relative_to(ROOT).as_posix(), module, name)
    for path in SCRIPTS
    for module, name in _references(ast.parse(path.read_text()))
)


def test_the_scan_sees_the_harness_reads():
    # worker.py reads the library through sys.modules, some of it through a
    # local name; a scan that missed them would pass on any package
    worker = {(m, n) for p, m, n in REFERENCES if p == "perfbench/worker.py"}
    assert {
        ("spikerec.experiments", "load_preset"), ("spikerec.experiments", "run_sweep"),
        ("spikerec.experiments", "emit_report"), ("spikerec.cli", "build_parser"),
        ("spikerec.cli", "main"), ("spikerec", "cli"),
    } <= worker
    assert ("tools/oracle.py", "spikerec.kernels", "PRESET_IDS") in REFERENCES


@pytest.mark.parametrize("path, module, name", REFERENCES)
def test_harness_names_resolve(path, module, name):
    found = hasattr(importlib.import_module(module), name)
    assert found or importlib.util.find_spec(f"{module}.{name}"), f"{path}: no {module}.{name}"


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


WORKLOADS = _load(ROOT / "perfbench" / "workloads.py")
ORACLE = _load(ROOT / "tools" / "oracle.py")


@pytest.mark.parametrize(
    "workload", sorted(n for n, w in WORKLOADS.WORKLOADS.items() if w.via_cli)
)
def test_benchmark_argv_parses(workload):
    # the benchmark hands these to `recover`; a parser edit that rejected one
    # would only show when the benchmark ran
    w = WORKLOADS.WORKLOADS[workload]
    for preset in w.presets:
        args = build_parser().parse_args(w.cli_argv(preset, [0, 1], "out"))
        assert (args.preset, args.method, args.seed_list) == (preset, list(w.methods), [0, 1])


@pytest.mark.parametrize("fmt", REPORT_FORMATS)
def test_oracle_argv_parses(fmt):
    for preset in PRESET_IDS:
        args = build_parser().parse_args(ORACLE.recover_argv(preset, fmt, Path("out")))
        assert (args.preset, args.format, args.no_timing) == (preset, fmt, True)
