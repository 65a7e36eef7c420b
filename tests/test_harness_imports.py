"""The benchmark harness (perfbench/) and the tools (tools/) reach spikerec by
name; a name the package drops would only fail when one of them runs.  The
scripts are read with `ast`, not imported, as test_tracer_sites reads OBSERVE."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

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
