import importlib.util
import json
from pathlib import Path

import pytest

BENCH_FOLD = Path(__file__).resolve().parents[1] / "tools" / "bench_fold.py"
METRICS = ("setup_s", "ms_per_record", "wall_s", "peak_rss_mb", "loc_err_p50", "wt_err_p50")


def _load():
    spec = importlib.util.spec_from_file_location("bench_fold", BENCH_FOLD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fake_result(path, seed, ms, mismatched=0):
    metrics = {
        name: {"value": 1.0, "unit": "1", "q1": 0.9, "q3": 1.1, "n": 10} for name in METRICS
    }
    metrics["ms_per_record"] = {"value": ms, "unit": "ms", "q1": ms - 0.01, "q3": ms + 0.02, "n": 10}
    metrics["trace.overhead_frac"] = {"value": 0.5, "unit": "frac"}  # per-layer, not folded
    check = {"attempted": 600, "failed": 0, "mismatched": mismatched,
             "self_test_caught_perturbation": True}
    result = {"workload": "sweep-paper", "seed": seed, "trace": 0, "check": check,
              "metrics": metrics}
    path.write_text(json.dumps(result))
    return path


def test_fold_appends_one_entry_per_run(tmp_path):
    bench_fold = _load()
    first = _fake_result(tmp_path / "a.json", 0, 1.27)
    second = _fake_result(tmp_path / "b.json", 7331, 1.06, mismatched=2)
    assert bench_fold.main(["--commit", "aaa", "--out-dir", str(tmp_path), str(first)]) == 0
    assert bench_fold.main(["--commit", "bbb", "--out-dir", str(tmp_path), str(second)]) == 0
    bench = json.loads((tmp_path / "BENCH_sweep-paper.json").read_text())
    assert bench["workload"] == "sweep-paper"
    runs = bench["runs"]
    assert [(r["commit"], r["seed"], r["correct"], r["failed"]) for r in runs] == [
        ("aaa", 0, True, 0), ("bbb", 7331, False, 0)
    ]
    assert sorted(runs[0]["metrics"]) == sorted(METRICS)
    assert runs[1]["metrics"]["ms_per_record"] == {"median": 1.06, "q1": 1.05, "q3": 1.08, "n": 10}


def test_traced_result_exits_one_and_writes_nothing(tmp_path, capsys):
    # a --trace 1 run carries per-layer metrics only
    bench_fold = _load()
    good = _fake_result(tmp_path / "a.json", 0, 1.27)
    traced = tmp_path / "b.json"
    result = json.loads(good.read_text())
    result["trace"] = 1
    result["metrics"] = {"trace.overhead_frac": {"value": 0.5, "unit": "frac"}}
    traced.write_text(json.dumps(result))
    argv = ["--commit", "aaa", "--out-dir", str(tmp_path), str(good), str(traced)]
    assert bench_fold.main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(traced) in err and "ms_per_record" in err
    assert not list(tmp_path.glob("BENCH_*.json"))


def _bad_missing(tmp_path):
    return tmp_path / "missing.json"


def _bad_not_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    return path


def _bad_no_field(field):
    def make(tmp_path):
        path = _fake_result(tmp_path / f"no-{field}.json", 0, 1.27)
        result = json.loads(path.read_text())
        del result[field]
        path.write_text(json.dumps(result))
        return path
    return make


@pytest.mark.parametrize(
    "make_bad",
    [_bad_missing, _bad_not_object, _bad_no_field("check"), _bad_no_field("workload"),
     _bad_no_field("metrics")],
    ids=["missing-file", "not-an-object", "no-check", "no-workload", "no-metrics"],
)
def test_bad_result_file_exits_one_and_writes_nothing(tmp_path, capsys, make_bad):
    bench_fold = _load()
    good = _fake_result(tmp_path / "a.json", 0, 1.27)
    bad = make_bad(tmp_path)
    argv = ["--commit", "aaa", "--out-dir", str(tmp_path), str(good), str(bad)]
    assert bench_fold.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(bad) in err
    assert not list(tmp_path.glob("BENCH_*.json"))
