import importlib.util
from pathlib import Path

import pytest

from spikerec import emit_report

PLOTDATA = Path(__file__).resolve().parents[1] / "tools" / "plotdata.py"


@pytest.fixture(scope="session")
def plotdata_tool():
    """tools/plotdata.py as a module."""
    spec = importlib.util.spec_from_file_location("plotdata", PLOTDATA)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def plot(plotdata_tool, tmp_path, capsys):
    """plot(records): the paths tools/plotdata.py prints for the records.json
    that emit_report writes of `records`; the files go to tmp_path / "plots"."""

    def run(records) -> list:
        (source,) = emit_report(records, "json", tmp_path / "report", include_timing=False)
        capsys.readouterr()
        assert plotdata_tool.main([str(source), str(tmp_path / "plots")]) == 0
        return [Path(p) for p in capsys.readouterr().out.splitlines()]

    return run
