import importlib.util
import json
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


def _record(seed=0, weight_error=0.5, error=None):
    return {
        "preset": "rational", "method": "lcurve", "sigma": 0.01, "seed": seed,
        "location_error": 0.25, "weight_error": weight_error, "gamma_or_tol": 1e-3,
        "condV_minus": float("nan"), "svd_gap": 0.1, "wall_time_ms": 0.0,
        "locations": [[0.5, 0.0], [-0.5, 0.0]], "weights": [[1.0, 0.0], [2.0, 0.0]],
        "failed_stage": None if error is None else "esprit", "error": error,
    }


def _records_tree(root, records):
    path = root / "rational" / "records.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(records, allow_nan=True))
    return root


class TestCompareWithinRtol:
    REF = [_record(0), _record(1)]

    def _compare(self, oracle, tmp_path, records, rtol="1e-6"):
        a = _records_tree(tmp_path / "a", self.REF)
        b = _records_tree(tmp_path / "b", records)
        return oracle.main(["--compare", str(a), str(b), "--rtol", rtol])

    def test_inside_rtol_passes(self, oracle, tmp_path, capsys):
        # a relative move of 4e-7 in one weight error, spikes listed in another order
        moved = _record(1, weight_error=0.5 * (1 + 4e-7))
        moved["locations"].reverse()
        moved["weights"].reverse()
        assert self._compare(oracle, tmp_path, [_record(0), moved]) == 0
        out = capsys.readouterr().out
        assert "rational   weight_error" in out and "1/2" in out
        assert "records moved: lcurve 1/2" in out

    def test_outside_rtol_fails(self, oracle, tmp_path, capsys):
        moved = _record(1, weight_error=0.5 * (1 + 4e-6))
        assert self._compare(oracle, tmp_path, [_record(0), moved]) == 1
        assert "> rtol" in capsys.readouterr().out

    def test_changed_error_string_fails(self, oracle, tmp_path):
        ref = [_record(0, error="RankDeficient: a"), _record(1)]
        a = _records_tree(tmp_path / "a", ref)
        b = _records_tree(tmp_path / "b", [_record(0, error="RankDeficient: b"), _record(1)])
        assert oracle.main(["--compare", str(a), str(b), "--rtol", "1e-6"]) == 1

    def test_missing_record_fails(self, oracle, tmp_path, capsys):
        assert self._compare(oracle, tmp_path, [_record(0)]) == 1
        assert "missing in" in capsys.readouterr().out

    def test_nan_matches_only_nan(self, oracle, tmp_path):
        finite = _record(0)
        finite["condV_minus"] = 1.0
        assert self._compare(oracle, tmp_path, [finite, _record(1)]) == 1
