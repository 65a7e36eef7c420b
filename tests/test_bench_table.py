import importlib.util
import json
from pathlib import Path

import pytest

BENCH_TABLE = Path(__file__).resolve().parents[1] / "tools" / "bench_table.py"
HEADER = "| workload | seed | pair | ms_per_record | wall_s | setup_s | peak_rss_mb |"


def _load():
    spec = importlib.util.spec_from_file_location("bench_table", BENCH_TABLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(commit, seed, ms, wall=1.0, setup=0.2, rss=50.0, loc=0.1, wt=0.2):
    values = {"ms_per_record": ms, "wall_s": wall, "setup_s": setup, "peak_rss_mb": rss,
              "loc_err_p50": loc, "wt_err_p50": wt}
    metrics = {k: {"median": v, "q1": v, "q3": v, "n": 3} for k, v in values.items()}
    return {"commit": commit, "seed": seed, "trace": 0, "metrics": metrics,
            "correct": True, "failed": 0}


def _write(directory, workload, runs):
    path = directory / f"BENCH_{workload}.json"
    path.write_text(json.dumps({"workload": workload, "runs": runs}))
    return path


@pytest.fixture
def trajectory(tmp_path):
    # runs of an unrelated commit sit between and around the pair's runs
    _write(tmp_path, "sweep-paper", [
        _run("0000000", 0, 9.0),
        _run("aaaaaaa", 0, 0.750, rss=50.0),
        _run("bbbbbbb", 0, 0.700, rss=53.0),  # -6.7%; peak RSS +6.0%, past its 5%
        _run("bbbbbbb", 0, 0.745, setup=0.23),  # setup +15%: marked, inside its 25%
        _run("aaaaaaa", 0, 0.748),
        _run("aaaaaaa", 7331, 0.760, wt=0.2),
        _run("bbbbbbb", 7331, 0.740, wt=0.2 * (1 + 1e-13)),
    ])
    _write(tmp_path, "cli-reports", [
        _run("aaaaaaa", 0, 12.5, wall=1.2), _run("bbbbbbb", 0, 15.25, wall=1.2),  # +22%
    ])
    return tmp_path


def test_fixture_table(trajectory, capsys):
    assert _load().main(["aaa", "bbbbbbb", "--dir", str(trajectory)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        HEADER,
        "|---|---|---|---|---|---|---|",
        "| sweep-paper | 0 | 1 | 0.750 → 0.700 (-6.7%) | 1.000 → 1.000 | 0.200 → 0.200 "
        "| 50.00 → 53.00 (+6.0%) |",
        "| sweep-paper | 0 | 2 | 0.748 → 0.745 | 1.000 → 1.000 | 0.200 → 0.230 (+15.0%) "
        "| 50.00 → 50.00 |",
        "| sweep-paper | 7331 | 1 | 0.760 → 0.740 | 1.000 → 1.000 | 0.200 → 0.200 "
        "| 50.00 → 50.00 |",
        "| cli-reports | 0 | 1 | 12.50 → 15.25 (+22.0%) | 1.200 → 1.200 | 0.200 → 0.200 "
        "| 50.00 → 50.00 |",
        "",
        "Worse than the BENCHMARK.json bound: sweep-paper seed 0 pair 1 peak_rss_mb +6.0% "
        "(bound 5%); cli-reports seed 0 pair 1 ms_per_record +22.0% (bound 20%).",
    ]


def test_fixture_within_bounds(trajectory, capsys):
    # the same runs the other way round: every move is an improvement or small
    assert _load().main(["bbbbbbb", "aaaaaaa", "--dir", str(trajectory)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "0.700 → 0.750 (+7.1%)" in out[2]
    assert out[-1] == "No pair median is worse than its BENCHMARK.json bound."


def test_committed_trajectory_reproduces_the_recorded_table(capsys):
    # the table written for the G-hat-in-the-prepared-system change
    assert _load().main(["6d0dcac", "d437e92"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [HEADER, "|---|---|---|---|---|---|---|"]
    assert out[2:18] == [
        "| sweep-paper | 0 | 1 | 0.750 → 0.754 | 0.717 → 0.724 | 0.197 → 0.207 | 55.05 → 54.35 |",
        "| sweep-paper | 0 | 2 | 0.752 → 0.749 | 0.711 → 0.708 | 0.176 → 0.186 (+5.4%) "
        "| 61.99 → 62.55 |",
        "| sweep-paper | 0 | 3 | 0.749 → 0.740 | 0.715 → 0.705 | 0.190 → 0.181 (-5.1%) "
        "| 60.54 → 66.03 (+9.1%) |",
        "| sweep-paper | 7331 | 1 | 0.762 → 0.747 | 0.716 → 0.709 | 0.175 → 0.181 "
        "| 59.32 → 59.89 |",
        "| pinv-fresh | 0 | 1 | 1.344 → 1.343 | 0.794 → 0.804 | 0.194 → 0.179 (-7.9%) "
        "| 46.67 → 41.84 (-10.3%) |",
        "| pinv-fresh | 0 | 2 | 1.354 → 1.352 | 0.793 → 0.783 | 0.180 → 0.187 | 45.73 → 47.70 |",
        "| pinv-fresh | 0 | 3 | 1.356 → 1.332 | 0.791 → 0.781 | 0.176 → 0.180 | 47.61 → 47.17 |",
        "| pinv-fresh | 7331 | 1 | 1.374 → 1.345 | 0.806 → 0.801 | 0.201 → 0.189 (-5.6%) "
        "| 43.93 → 45.78 |",
        "| cli-reports | 0 | 1 | 13.42 → 13.35 | 1.208 → 1.201 | 0.193 → 0.197 | 39.98 → 39.96 |",
        "| cli-reports | 0 | 2 | 12.88 → 13.08 | 1.159 → 1.177 | 0.178 → 0.195 (+9.5%) "
        "| 39.99 → 39.96 |",
        "| cli-reports | 0 | 3 | 12.58 → 12.72 | 1.132 → 1.144 | 0.162 → 0.183 (+13.3%) "
        "| 40.00 → 39.95 |",
        "| cli-reports | 0 | 4 | 13.07 → 13.23 | 1.176 → 1.191 | 0.178 → 0.189 (+6.3%) "
        "| 39.98 → 39.99 |",
        "| cli-reports | 0 | 5 | 13.11 → 13.22 | 1.180 → 1.190 | 0.175 → 0.190 (+8.1%) "
        "| 39.99 → 39.99 |",
        "| cli-reports | 0 | 6 | 13.15 → 13.06 | 1.184 → 1.175 | 0.184 → 0.183 | 39.99 → 40.02 |",
        "| cli-reports | 0 | 7 | 13.27 → 13.47 | 1.194 → 1.212 | 0.189 → 0.188 | 39.98 → 40.00 |",
        "| cli-reports | 7331 | 1 | 13.40 → 12.95 | 1.206 → 1.166 | 0.190 → 0.196 "
        "| 39.96 → 40.00 |",
    ]
    assert out[18:] == [
        "",
        "Worse than the BENCHMARK.json bound: sweep-paper seed 0 pair 3 peak_rss_mb +9.1% "
        "(bound 5%).",
    ]


@pytest.mark.parametrize(
    "argv, pinv_fresh, message",
    [
        (["ccc", "bbb"], None, "unknown commit prefix 'ccc'"),
        (["0000", "bbb"], None, "ambiguous (0000000, 0000111) commit prefix '0000'"),
        (["aaa", "ddd"], None, "sweep-paper seed 0: 1 runs of aaa but 2 of ddd"),
        (["aaa", "bbb"], "{not json", "BENCH_pinv-fresh.json: cannot read its runs"),
        (["aaa", "bbb"], '{"runs": [{"commit": "aaaaaaa"}]}', "malformed run"),
    ],
    ids=["unknown", "ambiguous", "unequal-runs", "unreadable-file", "malformed-run"],
)
def test_bad_input_exits_one_with_one_error_line(tmp_path, capsys, argv, pinv_fresh, message):
    _write(tmp_path, "sweep-paper", [
        _run("aaaaaaa", 0, 0.75), _run("bbbbbbb", 0, 0.70),
        _run("ddddddd", 0, 0.70), _run("ddddddd", 0, 0.71),
        _run("0000000", 0, 0.70), _run("0000111", 0, 0.70),
    ])
    if pinv_fresh is not None:
        (tmp_path / "BENCH_pinv-fresh.json").write_text(pinv_fresh)
    assert _load().main([*argv, "--dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
    assert message in captured.err
