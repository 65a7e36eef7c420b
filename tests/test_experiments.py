import json

import numpy as np
import pytest

from spikerec import (
    add_noise,
    load_preset,
    make_method,
    run_one,
    run_sweep,
    synthesize,
)
from spikerec import eigenmatrix, experiments
from spikerec.cli import main as cli_main
from spikerec.errors import ConvergenceFailure, UnknownPreset
from spikerec.kernels import SampleSet
from spikerec.experiments import emit_report


class TestLoadPreset:
    @pytest.mark.parametrize("pid", ["rational", "spectral", "fourier", "laplace", "deconv"])
    def test_common_invariants(self, pid):
        p = load_preset(pid)
        assert p.n_a == 32
        assert p.truth.n_x == 4
        np.testing.assert_array_equal(p.truth.weights, 1.0)
        assert p.nodes().n_a == 32
        assert p.samples(0).n_s == p.n_s

    def test_rational_truth_on_inner_circle(self):
        p = load_preset("rational")
        np.testing.assert_allclose(np.abs(p.truth.locations), 0.9, rtol=1e-15)

    def test_laplace_sigma_list(self):
        assert load_preset("laplace").sigma_list == (5e-2, 5e-3, 5e-4)

    def test_default_sigma_list(self):
        assert load_preset("fourier").sigma_list == (1e-1, 1e-2, 1e-3)

    def test_overrides(self):
        p = load_preset("fourier", n_s=50, n_a=16, sigma_list=(0.2,))
        assert p.n_s == 50 and p.n_a == 16 and p.sigma_list == (0.2,)
        assert p.samples(3).n_s == 50

    def test_unknown(self):
        with pytest.raises(UnknownPreset):
            load_preset("bogus")


NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_method("pinv", tol_factor=NAN),
        lambda: make_method("lcurve", l=5.5),
        lambda: make_method("lcurve", grid_size=20.5),
        lambda: load_preset("fourier", n_s=2),
        lambda: load_preset("fourier", n_a=3),
        lambda: load_preset("fourier", sigma_list=(NAN,)),
        lambda: load_preset("fourier", beta=-1.0),
        lambda: load_preset("spectral", n_s=255),
    ],
    ids=[
        "nan-tol-factor", "float-l", "float-grid-size", "n_s-below-n_x", "n_a-below-n_x",
        "nan-sigma", "negative-beta", "odd-spectral-n_s",
    ],
)
def test_library_rejects_bad_setting(build):
    # rejected when the setting is taken, before any run can start
    with pytest.raises(ValueError):
        build()


class TestRunOne:
    def test_record_fields(self):
        p = load_preset("fourier")
        rec = run_one(p, make_method("lcurve"), 1e-2, 0)
        assert rec.preset == "fourier"
        assert rec.method == "lcurve"
        assert rec.failed_stage is None
        assert rec.location_error < 1.0
        assert rec.wall_time_ms > 0
        assert len(rec.locations) == 4

    def test_failure_is_recorded_not_raised(self):
        p = load_preset("rational")
        rec = run_one(p, make_method("pinv", tol_factor=10.0), 1e-2, 0)
        assert rec.failed_stage == "eigenmatrix"
        assert "AllTruncated" in rec.error
        assert np.isnan(rec.location_error)


class TestRunSweep:
    def test_cardinality_and_order(self):
        p = load_preset("fourier", sigma_list=(1e-1, 1e-2))
        methods = [make_method("lcurve"), make_method("pinv")]
        recs = run_sweep(p, methods, seeds=range(3))
        assert len(recs) == 2 * 3 * 2
        keys = [r.sort_key() for r in recs]
        assert keys == sorted(keys)

    def test_shared_noise_across_methods(self):
        # every method in a cell must see the identical noisy vector and the
        # sweep's shared system must give what a cell preparing its own
        # gives; check by reproducing each record from an explicit observation
        p = load_preset("deconv")
        methods = [
            make_method("lcurve"), make_method("pinv"), make_method("fixed-gamma", gamma=1e-3)
        ]
        sigmas = [1e-2, 1e-1]
        recs = run_sweep(p, methods, seeds=[7], sigmas=sigmas)
        assert len(recs) == len(methods) * len(sigmas)
        samples = p.samples(7)
        for sigma in sigmas:
            obs = add_noise(synthesize(p.kernel, p.truth, samples), sigma, 7)
            for m in methods:
                direct = run_one(p, m, sigma, 7, obs=obs)
                match = [r for r in recs if (r.method, r.sigma) == (direct.method, sigma)]
                assert len(match) == 1
                assert match[0].failed_stage is None
                assert match[0].location_error == direct.location_error
                assert match[0].weight_error == direct.weight_error
                assert match[0].gamma_or_tol == direct.gamma_or_tol
                assert match[0].locations == direct.locations
                assert match[0].weights == direct.weights

    @pytest.mark.parametrize("pid, seeds, builds", [("spectral", 3, 1), ("rational", 3, 3)])
    def test_one_factorisation_per_sample_set(self, monkeypatch, pid, seeds, builds):
        # spectral samples do not depend on the seed, rational ones do
        calls = {"build_collocation_system": 0, "compute_svd": 0}
        for name in calls:
            real = getattr(eigenmatrix, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(eigenmatrix, name, counted)
        p = load_preset(pid, sigma_list=(1e-2, 1e-1))
        recs = run_sweep(p, [make_method("lcurve"), make_method("pinv")], seeds=range(seeds))
        assert all(r.failed_stage is None for r in recs)
        assert calls["build_collocation_system"] == builds
        # one collocation SVD per build, one weight SVD per record
        assert calls["compute_svd"] == builds + len(recs)

    def test_programming_error_propagates(self, monkeypatch):
        # only numerical failures become failed records; a bug is raised
        def broken(config, prepared, obs):
            raise TypeError("bug")

        monkeypatch.setattr(experiments, "recover", broken)
        with pytest.raises(TypeError):
            run_sweep(load_preset("fourier"), [make_method("pinv")], seeds=[0])

    def test_empty_inputs_rejected(self):
        p = load_preset("fourier")
        with pytest.raises(ValueError):
            run_sweep(p, [], seeds=[0])
        with pytest.raises(ValueError):
            run_sweep(p, [make_method("lcurve")], seeds=[])


def _samples_on_node(monkeypatch, bad_seeds):
    """Put the first sample point of `bad_seeds` on the collocation node 1."""
    real = experiments.generate_samples

    def fake(preset, seed, **kw):
        samples = real(preset, seed, **kw)
        if seed not in bad_seeds:
            return samples
        points = samples.points.copy()
        points[0] = 1.0
        return SampleSet(points)

    monkeypatch.setattr(experiments, "generate_samples", fake)


class TestSharedStageFailure:
    METHODS = ("lcurve", "pinv")
    SIGMAS = (1e-2, 1e-1)

    def _sweep(self):
        p = load_preset("rational", sigma_list=self.SIGMAS)
        return run_sweep(p, [make_method(m) for m in self.METHODS], seeds=[0, 1, 2])

    def test_collocation_failure_fails_every_cell_of_the_seed(self, monkeypatch):
        _samples_on_node(monkeypatch, {1})
        recs = self._sweep()
        assert len(recs) == 3 * len(self.METHODS) * len(self.SIGMAS)
        failed = [r for r in recs if r.failed_stage is not None]
        assert {r.seed for r in failed} == {1}
        assert len(failed) == len(self.METHODS) * len(self.SIGMAS)
        assert all(r.failed_stage == "collocation" for r in failed)
        assert all(r.error.startswith("DomainError") for r in failed)
        assert all(np.isnan(r.location_error) for r in failed)

    def test_svd_failure_is_stage_svd(self, monkeypatch):
        def no_convergence(matrix):
            raise ConvergenceFailure("SVD failed to converge")

        monkeypatch.setattr(eigenmatrix, "compute_svd", no_convergence)
        recs = self._sweep()
        assert recs and all(r.failed_stage == "svd" for r in recs)
        assert all(r.error.startswith("ConvergenceFailure") for r in recs)

    def test_run_one_records_its_own_preparation_failure(self, monkeypatch):
        _samples_on_node(monkeypatch, {0})
        rec = run_one(load_preset("rational"), make_method("pinv"), 1e-2, 0)
        assert rec.failed_stage == "collocation"

    def test_cli_exit_two(self, monkeypatch, tmp_path):
        _samples_on_node(monkeypatch, {0})
        rc = cli_main(
            [
                "--preset", "rational", "--method", "lcurve", "--method", "pinv",
                "--sigma", "0.01", "--seeds", "2", "--out", str(tmp_path),
            ]
        )
        assert rc == 2


CSV_HEADER = (
    "preset,method,sigma,seed,location_error,weight_error,gamma_or_tol,"
    "condV_minus,svd_gap,wall_time_ms"
)
FAILED_PINV_JSON = """ },
 {
  "preset": "rational",
  "method": "pinv",
  "sigma": 0.01,
  "seed": 0,
  "location_error": NaN,
  "weight_error": NaN,
  "gamma_or_tol": NaN,
  "condV_minus": NaN,
  "svd_gap": NaN,
  "wall_time_ms": 0.0,
  "locations": [],
  "weights": [],
  "failed_stage": "eigenmatrix",
  "error": "AllTruncated: tolerance 56.5685 exceeds sigma_1 = 4.22443"
 }
]
"""


@pytest.fixture(scope="module")
def records():
    p = load_preset("fourier", sigma_list=(1e-2,))
    return run_sweep(p, [make_method("lcurve")], seeds=[0, 1])


class TestEmitReport:
    def test_csv_single_record(self, records, tmp_path):
        paths = emit_report(records[:1], "csv", tmp_path)
        lines = paths[0].read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("fourier,lcurve,")

    def test_json_key_order(self, records, tmp_path):
        paths = emit_report(records[:1], "json", tmp_path)
        objs = json.loads(paths[0].read_text())
        assert list(objs[0]) == CSV_HEADER.split(",") + [
            "locations", "weights", "failed_stage", "error"
        ]

    def test_failed_record_bytes_without_timing(self, tmp_path):
        # no benchmark or oracle record fails, so pin a failed record's bytes here
        argv = [
            "--preset", "rational", "--method", "pinv", "--method", "lcurve",
            "--tol-factor", "10", "--sigma", "0.01", "--seeds", "1", "--no-timing",
        ]
        for fmt in ("csv", "json"):
            assert cli_main(argv + ["--format", fmt, "--out", str(tmp_path)]) == 2
        lines = (tmp_path / "records.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("rational,lcurve,0.01,0,")
        assert lines[2:] == ["rational,pinv,0.01,0,nan,nan,nan,nan,nan,0"]
        assert (tmp_path / "records.json").read_text().endswith(FAILED_PINV_JSON)

    def test_json_round_trip(self, records, tmp_path):
        paths = emit_report(records, "json", tmp_path)
        objs = json.loads(paths[0].read_text())
        assert len(objs) == len(records)
        for obj, rec in zip(objs, records):
            assert obj["preset"] == rec.preset
            assert obj["seed"] == rec.seed
            assert obj["location_error"] == rec.location_error
            assert obj["weight_error"] == rec.weight_error
            assert obj["gamma_or_tol"] == rec.gamma_or_tol
            assert obj["locations"] == rec.locations

    def test_plotdata_truth_readback(self, records, tmp_path):
        paths = emit_report(records, "plotdata", tmp_path)
        truth_files = [p for p in paths if p.name.endswith("_truth.dat")]
        assert len(truth_files) == 1
        data = np.loadtxt(truth_files[0])
        truth = load_preset("fourier").truth
        np.testing.assert_allclose(data[:, 0] + 1j * data[:, 1], truth.locations)
        np.testing.assert_allclose(data[:, 2] + 1j * data[:, 3], truth.weights)

    def test_csv_byte_deterministic_without_timing(self, tmp_path):
        p = load_preset("rational", sigma_list=(1e-2,))
        methods = [make_method("lcurve"), make_method("pinv")]
        out = []
        for tag in ("a", "b"):
            recs = run_sweep(p, methods, seeds=range(3))
            path = emit_report(recs, "csv", tmp_path / tag, include_timing=False)[0]
            out.append(path.read_bytes())
        assert out[0] == out[1]

    def test_no_records(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], "csv", tmp_path)

    def test_unknown_format(self, records, tmp_path):
        with pytest.raises(ValueError):
            emit_report(records, "xml", tmp_path)


class TestCli:
    def test_success_exit_zero(self, tmp_path, capsys):
        rc = cli_main(
            [
                "--preset", "fourier", "--method", "lcurve",
                "--sigma", "0.01", "--seeds", "2",
                "--out", str(tmp_path), "--format", "csv",
            ]
        )
        assert rc == 0
        assert (tmp_path / "records.csv").exists()

    def test_usage_error_exit_one(self):
        with pytest.raises(SystemExit) as exc_info:
            cli_main(["--preset", "nonsense"])
        assert exc_info.value.code == 1

    def test_bad_config_exit_one(self, tmp_path):
        rc = cli_main(
            ["--preset", "fourier", "--config", str(tmp_path / "missing.json")]
        )
        assert rc == 1

    def test_failed_runs_exit_two(self, tmp_path):
        rc = cli_main(
            [
                "--preset", "rational", "--method", "pinv",
                "--tol-factor", "10.0", "--sigma", "0.01", "--seeds", "1",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 2

    def test_no_timing_reproducible(self, tmp_path):
        args = [
            "--preset", "deconv", "--method", "lcurve", "--method", "pinv",
            "--sigma", "0.1", "--seeds", "2", "--no-timing",
        ]
        rc1 = cli_main(args + ["--out", str(tmp_path / "r1")])
        rc2 = cli_main(args + ["--out", str(tmp_path / "r2")])
        assert rc1 == 0 and rc2 == 0
        b1 = (tmp_path / "r1" / "records.csv").read_bytes()
        b2 = (tmp_path / "r2" / "records.csv").read_bytes()
        assert b1 == b2

    @pytest.mark.parametrize(
        "extra, config",
        [
            (["--seeds", "0"], None),
            (["--seed-list", "3", "-1"], None),
            (["--sigma", "-1"], None),
            (["--sigma", "nan"], None),
            (["--grid-size", "5"], None),
            ([], {"bogus": 3}),
            ([], {"sigma_list": [0.1, -0.1]}),
            ([], [1, 2]),
            (["--preset", "spectral"], {"n_s": 3}),
            ([], {"n_s": "x"}),
            ([], {"n_a": 0}),
            ([], {"sigma_list": "ab"}),
            ([], {"sigma_list": []}),
            ([], {"tol_factor": "a"}),
            ([], {"l": "7"}),
            ([], {"grid_size": 20.5}),
            ([], {"n_s": True}),
            ([], {"beta": -1}),
            (["--beta", "-1"], None),
            (["--tol-factor", "nan"], None),
            (["--method", "fixed-gamma", "--gamma", "nan"], None),
            (["--method", "fixed-gamma", "--gamma", "inf"], None),
            ([], {"n_s": 3}),
            ([], {"n_a": 3}),
        ],
        ids=[
            "no-seeds", "negative-seed", "negative-sigma", "nan-sigma", "grid-size-5",
            "unknown-config-key", "negative-config-sigma", "config-not-object",
            "odd-spectral-n_s", "string-n_s", "zero-n_a", "string-sigma-list",
            "empty-sigma-list", "string-tol-factor", "string-l", "float-grid-size",
            "bool-n_s", "negative-config-beta", "negative-beta", "nan-tol-factor",
            "nan-gamma", "inf-gamma", "n_s-below-n_x", "n_a-below-n_x",
        ],
    )
    def test_bad_input_exit_one(self, tmp_path, capsys, extra, config):
        argv = ["--preset", "fourier", "--out", str(tmp_path / "out")] + extra
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["n_s", "n_a"])
    def test_sizes_at_model_order_run(self, tmp_path, key):
        # fourier has n_x = 4 spikes: 4 runs, 3 exits 1 (test_bad_input_exit_one)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 4}))
        argv = [
            "--preset", "fourier", "--method", "pinv", "--method", "lcurve",
            "--seeds", "1", "--sigma", "0.01", "--config", str(cfg),
            "--out", str(tmp_path / "out"),
        ]
        assert cli_main(argv) == 0

    @pytest.mark.parametrize(
        "flags, config, code",
        [
            # the flag's cutoff truncates every direction: all runs fail
            (["--method", "pinv", "--tol-factor", "10"], {"tol_factor": 1e-4}, 2),
            # the config's grid alone is below the L-curve minimum
            (["--method", "lcurve", "--grid-size", "200"], {"grid_size": 8}, 0),
        ],
        ids=["tol-factor", "grid-size"],
    )
    def test_flag_wins_over_config(self, tmp_path, flags, config, code):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [
            "--preset", "rational", "--seeds", "1", "--sigma", "0.01",
            "--config", str(cfg), "--out", str(tmp_path / "out"),
        ]
        assert cli_main(argv + flags) == code

    def test_config_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_s": 64, "sigma_list": [0.01]}))
        rc = cli_main(
            [
                "--preset", "fourier", "--method", "lcurve",
                "--seeds", "1", "--config", str(cfg),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "out" / "records.csv").read_text().splitlines()
        assert len(lines) == 2  # one sigma, one seed, one method
