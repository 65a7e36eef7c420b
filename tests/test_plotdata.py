"""tools/plotdata.py: the `.dat` plot files, written from a `records.json`
that `emit_report` wrote, and the tool's refusal of input that is not one.
TestEmitReport's test_plotdata_* tests check the files' names and truth."""

import json
import subprocess
import sys

import numpy as np
import pytest

from spikerec import emit_report, load_preset, make_method, run_sweep


@pytest.fixture(scope="module")
def records():
    return run_sweep(load_preset("fourier"), [make_method("lcurve")], seeds=[0, 1], sigmas=(1e-2,))


def test_data_lines_are_the_records(records, plot):
    # every recovered spike of every record, at full precision, in record order
    paths = plot(records)
    assert [p.name for p in paths] == ["fourier_truth.dat", "fourier_sigma0.01_lcurve.dat"]
    lines = paths[1].read_text().splitlines()
    assert lines[0] == "# seed loc_re loc_im weight_re weight_im"
    rows = [[float(x) for x in line.split()] for line in lines[1:]]
    assert rows == [[r.seed, *loc, *w] for r in records for loc, w in zip(r.locations, r.weights)]


def test_numpy_seeds_and_integer_sigma(plot, tmp_path):
    # the plot data leg of TestEmitReport's test of the same name: an integer
    # sigma keeps its %g name after the JSON has written it as 1.0
    recs = run_sweep(load_preset("fourier"), [make_method("pinv")], seeds=np.arange(2), sigmas=[1])
    paths = plot(recs)
    assert (tmp_path / "plots" / "fourier_sigma1_pinv.dat").exists()
    assert [p.name for p in paths] == ["fourier_truth.dat", "fourier_sigma1_pinv.dat"]
    seeds = [line.split()[0] for line in paths[1].read_text().splitlines()[1:]]
    assert seeds == ["0"] * 4 + ["1"] * 4


def test_runs_as_a_script(plotdata_tool, records, tmp_path):
    (source,) = emit_report(records, "json", tmp_path)
    done = subprocess.run(
        [sys.executable, plotdata_tool.__file__, str(source), str(tmp_path / "plots")],
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert len(done.stdout.splitlines()) == 2


GOOD = {"preset": "fourier", "method": "pinv", "sigma": 0.1, "seed": 0,
        "locations": [[0.5, 0.0]], "weights": [[1.0, 0.0]]}
BAD_INPUT = {
    "missing-file": None,
    "undecodable": b"\xff\xfe[]",
    "not-json": b"[{",
    "object": b"{}",
    "empty-list": b"[]",
    "list-of-numbers": b"[1, 2]",
    "unknown-preset": json.dumps([{**GOOD, "preset": "nope"}]).encode(),
    "method-outside-outdir": json.dumps([{**GOOD, "method": "../pinv"}]).encode(),
    "missing-field": json.dumps([{k: v for k, v in GOOD.items() if k != "seed"}]).encode(),
    "string-sigma": json.dumps([{**GOOD, "sigma": "0.1"}]).encode(),
    "bool-seed": json.dumps([{**GOOD, "seed": True}]).encode(),
    "location-not-a-pair": json.dumps([{**GOOD, "locations": [[0.5]]}]).encode(),
    "weight-not-a-number": json.dumps([{**GOOD, "weights": [["1", 0]]}]).encode(),
}


@pytest.mark.parametrize("data", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_exits_one(plotdata_tool, tmp_path, capsys, data):
    source = tmp_path / "records.json"
    if data is not None:
        source.write_bytes(data)
    assert plotdata_tool.main([str(source), str(tmp_path / "plots")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(source) in captured.err
    assert not (tmp_path / "plots").exists()


def test_the_bad_inputs_differ_from_a_good_record(plotdata_tool, tmp_path, capsys):
    # each case fails for its one change, not for the rest of GOOD
    source = tmp_path / "records.json"
    source.write_text(json.dumps([GOOD]))
    assert plotdata_tool.main([str(source), str(tmp_path / "plots")]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_unwritable_outdir_exits_one(plotdata_tool, records, tmp_path, capsys):
    (source,) = emit_report(records, "json", tmp_path)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    assert plotdata_tool.main([str(source), str(afile)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write plot data under {afile}: ")
    assert err.count("\n") == 1
    assert afile.read_text() == "kept\n"


@pytest.mark.parametrize("argv", [[], ["records.json"], ["a", "b", "c"]], ids=["0", "1", "3"])
def test_wrong_argument_count_exits_one(plotdata_tool, capsys, argv):
    assert plotdata_tool.main(argv) == 1
    assert capsys.readouterr().err == "usage: plotdata.py RECORDS_JSON OUTDIR\n"
