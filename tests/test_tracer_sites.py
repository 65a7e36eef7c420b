import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
