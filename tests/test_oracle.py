import importlib.util
from pathlib import Path

import pytest

ORACLE = Path(__file__).resolve().parents[1] / "tools" / "oracle.py"


@pytest.fixture(scope="module")
def oracle():
    spec = importlib.util.spec_from_file_location("oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root, files):
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


class TestCompare:
    FILES = {"rational/records.csv": b"a,b\n1,2\n", "rational/records.json": b"[]\n"}

    def test_identical_trees(self, oracle, tmp_path, capsys):
        a = _tree(tmp_path / "a", self.FILES)
        b = _tree(tmp_path / "b", self.FILES)
        assert oracle.main(["--compare", str(a), str(b)]) == 0
        assert "2/2 files byte-identical" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "other",
        [
            {"rational/records.csv": b"a,b\n1,3\n", "rational/records.json": b"[]\n"},
            {"rational/records.csv": b"a,b\n1,2\n"},
        ],
        ids=["changed-byte", "missing-file"],
    )
    def test_difference_exits_one(self, oracle, tmp_path, capsys, other):
        a = _tree(tmp_path / "a", self.FILES)
        b = _tree(tmp_path / "b", other)
        assert oracle.main(["--compare", str(a), str(b)]) == 1
        assert "differs: rational/records." in capsys.readouterr().out

    def test_empty_trees_are_not_a_match(self, oracle, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        assert oracle.main(["--compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
