import dataclasses
import hashlib
import io
import json
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikerec import (
    PreparedSystem,
    add_noise,
    check_sweep,
    compute_svd,
    load_preset,
    make_method,
    run_one,
    run_sweep,
    synthesize,
    tikhonov_solve,
)
from spikerec import (
    ExperimentPreset, MethodConfig, Variant, cli, eigenmatrix, experiments, generate_samples
)
from spikerec.cli import build_parser, main as cli_main
from spikerec.errors import ConvergenceFailure, FlatCurveWarning, UnknownPreset
from spikerec.kernels import PRESET_IDS, PRESETS, Observations, SampleSet
from spikerec.experiments import REPORT_FORMATS, emit_report

NAN = float("nan")


class TestLoadPreset:
    @pytest.mark.parametrize("pid, other", [("fourier", "laplace"), ("spectral", "rational")])
    def test_kernel_belongs_to_id(self, pid, other):
        # the row's kernel, truth and noise levels are not fields a caller
        # sets, so a preset relabelled to another id is that id's preset
        relabelled = dataclasses.replace(load_preset(pid), id=other)
        expected = load_preset(other)
        assert relabelled.kernel == expected.kernel
        np.testing.assert_array_equal(relabelled.truth.locations, expected.truth.locations)
        np.testing.assert_array_equal(relabelled.truth.weights, expected.truth.weights)
        assert relabelled.sigma_list == expected.sigma_list
        # n_s was resolved to pid's count, and sampling follows other's law
        assert relabelled.n_s == load_preset(pid).n_s
        np.testing.assert_array_equal(
            relabelled.samples(3).points,
            generate_samples(load_preset(other, n_s=relabelled.n_s), 3).points,
        )

    def test_caller_sets_four_fields(self):
        # the rest is the table row's, so it cannot disagree with the id
        names = [f.name for f in dataclasses.fields(ExperimentPreset) if f.init]
        assert names == ["id", "n_s", "n_a", "beta"]
        preset = ExperimentPreset("laplace", None, 32, 40.0)
        assert (preset.n_s, preset.kernel) == (100, load_preset("laplace").kernel)

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
        # noise levels are not a preset override: they go to the sweep
        p = load_preset("fourier", n_s=50, n_a=16)
        assert p.n_s == 50 and p.n_a == 16
        assert check_sweep(p, [make_method("pinv")], [0], sigmas=(0.2,))[2] == (0.2,)
        assert p.samples(3).n_s == 50

    def test_unknown(self):
        with pytest.raises(UnknownPreset):
            load_preset("bogus")

    def test_presets_equal_and_hash_by_their_settings(self):
        # kernel, truth and sigma_list follow from id, n_s, n_a and beta; the
        # truth's arrays have no single truth value under ==
        assert load_preset("fourier") == load_preset("fourier")
        assert hash(load_preset("fourier")) == hash(load_preset("fourier"))
        assert load_preset("fourier") != load_preset("fourier", n_a=16)
        assert len({load_preset(p) for p in PRESET_IDS * 2}) == len(PRESET_IDS)

    @pytest.mark.parametrize(
        "n_s, n_a, admitted",
        [(8192, 32, True), (8193, 32, False), (8192, 8192, True), (8192, 8193, False),
         (128, 2**19, True), (128, 2**19 + 1, False)],
    )
    def test_array_cap_is_16_n_s_max_n_s_n_a(self, n_s, n_a, admitted):
        # ExperimentPreset caps pinv's n_s x n_s M and the complex G, n_s x n_a, in one rule
        if admitted:
            assert load_preset("fourier", n_s=n_s, n_a=n_a).n_s == n_s
        else:
            with pytest.raises(ValueError, match=rf"^n_s = {n_s} .*exceeds? the array cap"):
                load_preset("fourier", n_s=n_s, n_a=n_a)

    @pytest.mark.parametrize("pid", PRESET_IDS)
    def test_default_n_s_has_one_owner(self, pid):
        # kernels.PRESETS: the row's count is the preset's and its samples'
        preset = load_preset(pid)
        samples = generate_samples(preset, 0)
        assert samples.n_s == preset.n_s == PRESETS[pid][2]
        np.testing.assert_array_equal(samples.points, preset.samples(0).points)

    @pytest.mark.parametrize(
        "pid, n_s, beta, bad",
        [
            ("bogus", None, 40.0, "bogus"),
            (["fourier"], None, 40.0, ["fourier"]),
            ("fourier", 3, 40.0, 3),
            ("fourier", 64.0, 40.0, 64.0),
            ("spectral", 7, 40.0, 7),
            ("spectral", None, 0.0, 0.0),
            ("laplace", None, NAN, NAN),
            # (n_s - 1) pi / beta overflows: the Matsubara grid would be infinite
            ("spectral", None, 1e-310, 1e-310),
            ("fourier", None, 1e-310, 1e-310),
            # pinv's M would take 16 n_s^2 = 16 TiB; the sampler alone 8 TiB
            ("fourier", 2**40, 40.0, 2**40),
        ],
        ids=[
            "unknown-id", "list-id", "n_s-below-n_x", "float-n_s", "odd-spectral-n_s",
            "zero-beta", "nan-beta", "spectral-frequency-overflows", "fourier-frequency-overflows",
            "n_s-over-array-cap",
        ],
    )
    def test_preset_rules_have_one_owner(self, pid, n_s, beta, bad):
        # load_preset and dataclasses.replace, the other way to build a preset,
        # both run ExperimentPreset's checks
        def replaced(pid, beta, n_s):
            return dataclasses.replace(load_preset("fourier"), id=pid, beta=beta, n_s=n_s)

        errors = []
        for build in (load_preset, replaced):
            with pytest.raises((UnknownPreset, ValueError)) as info:
                build(pid, beta, n_s)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        assert repr(bad) in errors[0][1]

    # sha256 of preset.samples(seed).points for seeds 0, 1 and 7331, then
    # preset.nodes().nodes and preset.truth.locations, taken before the
    # presets moved into one table (NumPy 2.4.6); fourier and deconv share
    # their law, domain and truth
    SAMPLE_DIGESTS = {
        "rational": "aebfd966732101d126a6f39e2fcb1891be0831fafca23be7c0a8631f1d52a461",
        "spectral": "dc5b4fc0e2e5fdebc6ac298897a4872a1d2e84cf4631010627b6e58d5a361d2f",
        "fourier": "9e165714c4487c49df931f40ff40d8f86529abf7fdbe33482474edba9ab451f0",
        "laplace": "1078e94876007058114144745804b47a3098f78bbadd0d38ac38450333998bef",
        "deconv": "9e165714c4487c49df931f40ff40d8f86529abf7fdbe33482474edba9ab451f0",
    }

    @pytest.mark.parametrize("pid", PRESET_IDS)
    def test_sample_sets_are_pinned(self, pid):
        p = load_preset(pid)
        digest = hashlib.sha256()
        for seed in (0, 1, 7331):
            digest.update(p.samples(seed).points.tobytes())
        digest.update(p.nodes().nodes.tobytes())
        digest.update(p.truth.locations.tobytes())
        assert digest.hexdigest() == self.SAMPLE_DIGESTS[pid]


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_method("pinv", tol_factor=NAN),
        lambda: make_method("lcurve", l=5.5),
        lambda: make_method("bogus"),
        lambda: load_preset("fourier", n_s=2),
        lambda: load_preset("fourier", n_a=3),
        lambda: check_sweep(load_preset("fourier"), [make_method("pinv")], [0], sigmas=(NAN,)),
        lambda: load_preset("fourier", beta=-1.0),
        lambda: load_preset("spectral", n_s=255),
        lambda: check_sweep(
            load_preset("fourier"), [make_method("pinv")], [0], sigmas=(0.1, 0.01, 0.1)
        ),
        lambda: check_sweep(load_preset("fourier"), [make_method("pinv")], [0], [0.0, -0.0]),
        # ints beyond the float range: Python compares them with inf exactly
        lambda: make_method("fixed-gamma", gamma=10**200),
        lambda: load_preset("spectral", beta=10**400),
        lambda: tikhonov_solve(compute_svd(np.eye(3)), np.ones(3), 1e200),
        lambda: tikhonov_solve(compute_svd(np.eye(3)), np.ones(3), 10**200),
        lambda: load_preset("fourier", n_s=2**70),
        lambda: load_preset("fourier", n_a=2**70),
        # a preset runs its rules however it is built
        lambda: dataclasses.replace(load_preset("fourier"), n_s=2**70),
        lambda: dataclasses.replace(load_preset("fourier"), n_a=2**70),
        lambda: dataclasses.replace(load_preset("fourier"), n_a=3),
        lambda: dataclasses.replace(load_preset("fourier"), sigma_list=(0.2,)),
        # types that no flag can pass: the library checks them all the same
        lambda: load_preset("fourier", n_s="x"),
        lambda: load_preset("fourier", n_s=True),
        lambda: make_method("lcurve", l="7"),
        lambda: make_method("pinv", tol_factor="a"),
        lambda: check_sweep(load_preset("fourier"), [make_method("pinv")], [0], sigmas="ab"),
    ],
    ids=[
        "nan-tol-factor", "float-l", "unknown-method", "n_s-below-n_x", "n_a-below-n_x",
        "nan-sigma", "negative-beta", "odd-spectral-n_s", "repeated-sigma",
        "signed-zero-sigmas", "int-gamma-square-overflows", "huge-int-beta",
        "tikhonov-gamma-square-overflows", "tikhonov-int-gamma-square-overflows",
        "huge-n_s", "huge-n_a", "replace-huge-n_s", "replace-huge-n_a", "replace-n_a-below-n_x",
        "replace-sigma-list", "string-n_s", "bool-n_s", "string-l", "string-tol-factor",
        "string-sigmas",
    ],
)
def test_library_rejects_bad_setting(build):
    # rejected when the setting is taken, before any run can start
    with pytest.raises(ValueError):
        build()


def _containers() -> dict:
    """One of each frozen container that holds arrays, by class name."""
    preset = load_preset("fourier")
    samples = preset.samples(0)
    prepared = PreparedSystem(preset.kernel, samples, preset.nodes())
    obs = add_noise(synthesize(preset.kernel, preset.truth, samples), 1e-2, 0)
    built = [preset.truth, samples, prepared.nodes, obs, prepared.system, prepared.factors,
             tikhonov_solve(prepared.factors, obs.noisy, 1e-3), prepared,
             eigenmatrix.recover(make_method("pinv"), prepared, obs)]
    return {type(c).__name__: c for c in built}


@pytest.mark.parametrize(
    "name",
    ["SpikeSignal", "SampleSet", "CollocationNodes", "Observations", "CollocationSystem",
     "SvdFactors", "TikhonovSolution", "PreparedSystem", "RecoveryResult"],
)
def test_array_containers_compare_by_identity(name):
    # field-wise == on arrays has no single truth value, so it would raise
    first, second = _containers()[name], _containers()[name]
    assert first == first and first != second
    assert len({first, second, first}) == 2


@pytest.mark.parametrize("name", ["pinv", "lcurve"])
def test_make_method_defaults_are_method_configs(name):
    assert make_method(name) == MethodConfig(Variant(name), 4)


def _run_alone(preset, config, sigma, seed):
    """One cell on a freshly prepared system and observation."""
    samples = preset.samples(seed)
    prepared = PreparedSystem(preset.kernel, samples, preset.nodes())
    obs = add_noise(synthesize(preset.kernel, preset.truth, samples), sigma, seed)
    return run_one(preset, config, prepared, obs)


class TestRunOne:
    def test_record_fields(self):
        p = load_preset("fourier")
        rec = _run_alone(p, make_method("lcurve"), 1e-2, 0)
        assert rec.preset == "fourier"
        assert rec.method == "lcurve"
        assert rec.failed_stage is None
        assert rec.location_error < 1.0
        assert rec.wall_time_ms > 0
        assert len(rec.locations) == 4

    @pytest.mark.parametrize(
        "method",
        [
            (make_method("lcurve"), "tikhonov", "rhs must be finite"),
            (make_method("fixed-gamma", gamma=0.1), "tikhonov", "rhs must be finite"),
            (make_method("pinv"), "krylov", "u must be finite"),
        ],
    )
    def test_nonfinite_observation_fails_at_tikhonov(self, method):
        # a NaN in u fails the record at the stage that first reads u (pinv's
        # Krylov builder), not with a NaN answer or a LinAlgError in ESPRIT
        config, stage, message = method
        p = load_preset("fourier")
        samples = p.samples(0)
        u = synthesize(p.kernel, p.truth, samples)
        u[3] = NAN
        prepared = PreparedSystem(p.kernel, samples, p.nodes())
        rec = run_one(p, config, prepared, Observations(u, 0.0, 0))
        assert rec.failed_stage == stage
        assert rec.error.startswith(f"NonFinite: {message}")

    @pytest.mark.parametrize("method", ["lcurve", "fixed-gamma", "pinv"])
    @pytest.mark.parametrize("shape", ["wrong-length", "2-D"])
    def test_misshapen_observation_raises(self, method, shape):
        # a caller's bug, not a failed record at the first stage that reads u
        p = load_preset("fourier")
        samples = p.samples(0)
        u = synthesize(p.kernel, p.truth, samples)
        u = u[:-1] if shape == "wrong-length" else np.column_stack((u, u))
        config = make_method(method, gamma=0.1 if method == "fixed-gamma" else None)
        prepared = PreparedSystem(p.kernel, samples, p.nodes())
        with pytest.raises(ValueError, match=r"^obs.noisy must have shape \(128,\), not "):
            run_one(p, config, prepared, Observations(u, 0.0, 0))

    @pytest.mark.parametrize("method", ["lcurve", "pinv"])
    def test_programming_error_in_a_stage_propagates(self, monkeypatch, method):
        # a bug inside recover is raised as it is: no record, no stage on it
        def broken(A, n_x):
            raise TypeError("not a numerical failure")

        monkeypatch.setattr(eigenmatrix, "esprit_extract", broken)
        with pytest.raises(TypeError, match="not a numerical failure") as info:
            _run_alone(load_preset("fourier"), make_method(method), 1e-2, 0)
        assert not hasattr(info.value, "stage")

    def test_failure_is_recorded_not_raised(self):
        p = load_preset("rational")
        rec = _run_alone(p, make_method("pinv", tol_factor=10.0), 1e-2, 0)
        assert rec.failed_stage == "eigenmatrix"
        assert "AllTruncated" in rec.error
        assert np.isnan(rec.location_error)


class TestRunSweep:
    def test_cardinality_and_order(self):
        p = load_preset("fourier")
        methods = [make_method("lcurve"), make_method("pinv")]
        recs = run_sweep(p, methods, seeds=range(3), sigmas=(1e-1, 1e-2))
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
                direct = run_one(p, m, PreparedSystem(p.kernel, samples, p.nodes()), obs)
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
        calls = {"build_collocation_system": 0, "compute_svd": 0, "build_eigenmatrix": 0}
        for name in calls:
            real = getattr(eigenmatrix, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(eigenmatrix, name, counted)
        p = load_preset(pid)
        recs = run_sweep(
            p, [make_method("lcurve"), make_method("pinv")], seeds=range(seeds),
            sigmas=(1e-2, 1e-1),
        )
        assert all(r.failed_stage is None for r in recs)
        assert calls["build_collocation_system"] == builds
        # one collocation SVD per build, one weight SVD per record
        assert calls["compute_svd"] == builds + len(recs)
        # pinv's M is built once per system, not once per pinv record
        assert calls["build_eigenmatrix"] == builds

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

    def test_empty_sigmas_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(load_preset("fourier"), [make_method("lcurve")], seeds=[0], sigmas=[])

    @pytest.mark.parametrize(
        "methods, seeds, sigmas",
        [
            (["pinv"], [0], [0.1, 0.1]),
            (["pinv"], [0], [0.0, -0.0]),
            (["pinv"], [0, 1, 0], None),
            (["lcurve", "pinv", "lcurve"], [0], None),
        ],
        ids=["sigma", "signed-zero-sigma", "seed", "method"],
    )
    def test_repeats_rejected(self, methods, seeds, sigmas):
        # each repeat would file a second record under the same key
        with pytest.raises(ValueError, match="none repeated"):
            run_sweep(load_preset("fourier"), [make_method(m) for m in methods], seeds, sigmas)

    @pytest.mark.parametrize("n_a, l", [(32, 33), (32, 2**70), (4, 7)])
    def test_krylov_l_bounded(self, n_a, l):
        # M has rank <= n_a, so Krylov columns past n_a + 1 add time, not
        # rank; the default l = n_x + 2 stays admitted at every n_a >= n_x
        preset = load_preset("fourier", n_a=n_a)
        bound = max(n_a, 6)
        check_sweep(preset, [make_method("pinv", l=bound), make_method("lcurve")], [0])
        with pytest.raises(ValueError, match=rf"l <= max\(n_a, n_x \+ 2\) = {bound}, .*l={l},"):
            check_sweep(preset, [make_method("pinv", l=l)], [0])

    @pytest.mark.parametrize(
        "seeds, sigmas",
        [
            (range(2**70), None),
            (range(experiments.MAX_SWEEP_ENTRIES + 1), None),
            ([0], [0.01] * (experiments.MAX_SWEEP_ENTRIES + 1)),
        ],
        ids=["2**70-seeds", "seeds-over-cap", "sigmas-over-cap"],
    )
    def test_sweep_arguments_capped_before_the_walk(self, seeds, sigmas):
        # len() is read before any entry: check_sweep would walk range(2**70)
        # for ever, and its len() overflows a C ssize_t, which counts as over
        name = "seeds" if sigmas is None else "sigmas"
        cap = experiments.MAX_SWEEP_ENTRIES
        with pytest.raises(ValueError, match=f"^{name} must number at most {cap}$"):
            check_sweep(load_preset("fourier"), [make_method("pinv")], seeds, sigmas)

    def test_sweep_cap_admits_the_benchmark_pool(self):
        # the benchmark draws from 200 seeds, the oracle runs 40
        seeds = check_sweep(load_preset("fourier"), [make_method("pinv")], range(200))[1]
        assert seeds == tuple(range(200))

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        # a usage error, not a failed record for every cell
        with pytest.raises(ValueError):
            run_sweep(load_preset("fourier"), [make_method("pinv")], seeds=[0], sigmas=[sigma])

    @pytest.mark.parametrize(
        "methods, seeds, sigmas",
        [
            ([make_method("pinv", n_x=3)], [0], [0.1]),
            ((make_method(m) for m in ["pinv"]), [0], [0.1]),
            ([make_method("pinv")], (s for s in [0]), [0.1]),
            ([make_method("pinv")], np.array(3), [0.1]),
            ([make_method("pinv")], [0.5], [0.1]),
            ([make_method("pinv")], ["1"], [0.1]),
            ([make_method("pinv")], [True], [0.1]),
            ([make_method("pinv")], [0], [0.1, "x"]),
            ([make_method("pinv")], [0], 0.1),
            ([make_method("pinv")], [0], [True]),
        ],
        ids=[
            "method-n_x", "method-generator", "seed-generator", "0-d-array-seeds", "float-seed",
            "string-seed",
            "bool-seed", "string-sigma", "scalar-sigmas", "bool-sigma",
        ],
    )
    def test_bad_sweep_input_rejected_before_any_run(self, monkeypatch, methods, seeds, sigmas):
        # each would run some cells, file a wrong record or none, or fail
        # with another error; check_sweep names it before the first cell
        calls = []
        real = experiments.recover

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(experiments, "recover", spy)
        with pytest.raises(ValueError):
            run_sweep(load_preset("fourier"), methods, seeds, sigmas)
        assert calls == []


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
        p = load_preset("rational")
        methods = [make_method(m) for m in self.METHODS]
        return run_sweep(p, methods, seeds=[0, 1, 2], sigmas=self.SIGMAS)

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

    def test_method_piece_failure_stays_in_its_cells(self):
        # a cutoff above sigma_1 fails building pinv's M; the failure is not
        # kept on the shared system, so every pinv cell fails as a cell on
        # its own system does, and the lcurve cells of the seed still run
        p = load_preset("rational")
        pinv = make_method("pinv", tol_factor=10.0)
        recs = run_sweep(p, [pinv, make_method("lcurve")], seeds=[0, 1, 2], sigmas=self.SIGMAS)
        assert len(recs) == 3 * 2 * len(self.SIGMAS)
        for r in recs:
            if r.method == "lcurve":
                assert r.failed_stage is None
                continue
            alone = _run_alone(p, pinv, r.sigma, r.seed)
            assert r.failed_stage == alone.failed_stage == "eigenmatrix"
            assert r.error == alone.error
            assert r.error.startswith("AllTruncated: tolerance")

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
    return run_sweep(load_preset("fourier"), [make_method("lcurve")], seeds=[0, 1], sigmas=(1e-2,))


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

    def test_numpy_seeds_and_integer_sigma(self, tmp_path):
        # records take the observation's int seed and float sigma, not the
        # caller's values: json cannot write a NumPy int64, and an integer
        # sigma is written as a float in JSON and as before in CSV (the plot
        # data leg is tests/test_plotdata.py's)
        p = load_preset("fourier")
        recs = run_sweep(p, [make_method("pinv")], seeds=np.arange(2), sigmas=[1])
        assert all(type(r.seed) is int and type(r.sigma) is float for r in recs)
        for fmt in ("csv", "json"):
            emit_report(recs, fmt, tmp_path / fmt, include_timing=False)
        objs = json.loads((tmp_path / "json" / "records.json").read_text())
        assert [o["seed"] for o in objs] == [0, 1]
        assert '"sigma": 1.0,' in (tmp_path / "json" / "records.json").read_text()
        rows = (tmp_path / "csv" / "records.csv").read_text().splitlines()[1:]
        assert [row[:16] for row in rows] == ["fourier,pinv,1,0", "fourier,pinv,1,1"]

    def test_observations_built_with_numpy_scalars(self, tmp_path):
        # an Observations built by hand, not by add_noise, still gives a
        # record that json can write
        p = load_preset("fourier")
        samples = p.samples(0)
        prepared = PreparedSystem(p.kernel, samples, p.nodes())
        obs = add_noise(synthesize(p.kernel, p.truth, samples), 0.01, 0)
        obs = Observations(obs.noisy, np.float64(0.01), np.int64(0))
        rec = run_one(p, make_method("pinv"), prepared, obs)
        assert type(rec.seed) is int and type(rec.sigma) is float
        emit_report([rec], "json", tmp_path, include_timing=False)
        (obj,) = json.loads((tmp_path / "records.json").read_text())
        assert (obj["sigma"], obj["seed"], obj["failed_stage"]) == (0.01, 0, None)

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

    def test_plotdata_truth_readback(self, records, plot):
        # the plot data is tools/plotdata.py's, written from records.json
        paths = plot(records)
        truth_files = [p for p in paths if p.name.endswith("_truth.dat")]
        assert len(truth_files) == 1
        data = np.loadtxt(truth_files[0])
        truth = load_preset("fourier").truth
        np.testing.assert_allclose(data[:, 0] + 1j * data[:, 1], truth.locations)
        np.testing.assert_allclose(data[:, 2] + 1j * data[:, 3], truth.weights)

    def test_csv_byte_deterministic_without_timing(self, tmp_path):
        p = load_preset("rational")
        methods = [make_method("lcurve"), make_method("pinv")]
        out = []
        for tag in ("a", "b"):
            recs = run_sweep(p, methods, seeds=range(3), sigmas=(1e-2,))
            path = emit_report(recs, "csv", tmp_path / tag, include_timing=False)[0]
            out.append(path.read_bytes())
        assert out[0] == out[1]

    def test_no_records(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], "csv", tmp_path)

    def test_no_records_from_a_generator(self, tmp_path):
        with pytest.raises(ValueError, match="no records to report"):
            emit_report((r for r in []), "csv", tmp_path / "d")
        assert not (tmp_path / "d").exists()

    def test_unknown_format(self, records, tmp_path):
        # rejected before anything is written, the directory included
        with pytest.raises(ValueError, match="unknown report format 'xml'"):
            emit_report(records, "xml", tmp_path / "d")
        assert not (tmp_path / "d").exists()

    def test_plotdata_names_keep_sigmas_apart(self, plotdata_tool, tmp_path, capsys):
        # %g prints both sigmas as 0.1; each group still gets its own file
        argv = [
            "--preset", "fourier", "--method", "pinv", "--seeds", "1",
            "--sigma", "0.1", "--sigma", "0.1000001", "--format", "json",
            "--out", str(tmp_path / "report"),
        ]
        assert cli_main(argv) == 0
        capsys.readouterr()
        argv = [str(tmp_path / "report" / "records.json"), str(tmp_path / "plots")]
        assert plotdata_tool.main(argv) == 0
        printed = capsys.readouterr().out.split()
        assert len(printed) == len(set(printed)) == 3
        assert sorted(p.name for p in (tmp_path / "plots").iterdir()) == [
            "fourier_sigma0.1000001_pinv.dat", "fourier_sigma0.1_pinv.dat", "fourier_truth.dat",
        ]

    @pytest.mark.parametrize("pid", PRESET_IDS)
    def test_plotdata_names_of_default_sigmas(self, pid, plot):
        # the default noise levels keep their %g names; a record without
        # spikes (as a failed one) leaves its group the header line only
        sigmas = load_preset(pid).sigma_list
        recs = [experiments.RunRecord(pid, "pinv", sigma, 0) for sigma in sigmas]
        paths = plot(recs)
        assert {p.name for p in paths} == (
            {f"{pid}_truth.dat"} | {f"{pid}_sigma{s:g}_pinv.dat" for s in sigmas})
        for p in paths:
            if not p.name.endswith("_truth.dat"):
                assert p.read_text() == "# seed loc_re loc_im weight_re weight_im\n"


# Values for every flag: ints beyond the float range (10**400) and far
# beyond any array (2**70), NaN, the infinities, zero, negatives and a
# string, beside valid settings.  Most texts parse, so that most draws
# reach the library's checks.  `--seeds` draws small counts and 2**70,
# which check_sweep's cap rejects before its walk; `--beta` also draws
# 1e-310, whose Matsubara grid would overflow.
_FUZZ_NUMBERS = (str(10**400), str(2**70), "1e400", "nan", "inf", "-inf", "0", "-1", "x")
_FUZZ_FLOATS = _FUZZ_NUMBERS + ("1e-3", "0.01", "5")
_FUZZ_INTS = _FUZZ_NUMBERS + ("3", "5", "32")
_FUZZ_FLAGS = {
    "--preset": PRESET_IDS + ("bogus",), "--method": tuple(v.value for v in Variant),
    "--sigma": _FUZZ_FLOATS, "--seeds": ("0", "1", "2", "-1", str(2**70)),
    "--seed-list": _FUZZ_INTS,
    "--l": _FUZZ_INTS, "--n-s": _FUZZ_INTS, "--n-a": _FUZZ_INTS,
    "--tol-factor": _FUZZ_FLOATS, "--gamma": _FUZZ_FLOATS,
    "--beta": _FUZZ_FLOATS + ("1e-310",), "--format": REPORT_FORMATS, "--no-timing": (None,),
}


class TestCli:
    def test_run_imports_no_numpy_module(self, tmp_path):
        # a fresh `recover` process pays for every module its run imports;
        # np.unique, for one, imports all of numpy.ma on its first call
        src = Path(cli.__file__).resolve().parents[1]
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); from spikerec.cli import main; "
            "before = set(sys.modules); "
            "rc = main(['--preset', 'rational', '--method', 'lcurve', '--method', 'pinv', "
            "'--seeds', '1', '--format', 'json', '--no-timing', '--out', sys.argv[2]]); "
            "print(rc, sorted(m for m in set(sys.modules) - before if m.startswith('numpy')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(src), str(tmp_path)],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.splitlines()[-1] == "0 []"

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

    def test_bad_config_exit_one(self, tmp_path, capsys):
        # settings come only from their flags: there is no config file to read
        with pytest.raises(SystemExit) as exc_info:
            cli_main(["--preset", "fourier", "--config", str(tmp_path / "cfg.json")])
        assert exc_info.value.code == 1
        assert "unrecognized arguments: --config" in capsys.readouterr().err

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
        "extra",
        [
            ["--seeds", "0"],
            ["--seed-list", "3", "-1"],
            ["--sigma", "-1"],
            ["--sigma", "nan"],
            ["--preset", "spectral", "--n-s", "3"],
            ["--n-a", "0"],
            ["--preset", "spectral", "--beta", "-1"],
            ["--beta", "-1"],
            ["--tol-factor", "nan"],
            ["--method", "fixed-gamma", "--gamma", "nan"],
            ["--method", "fixed-gamma", "--gamma", "inf"],
            ["--n-s", "3"],
            ["--n-a", "3"],
            ["--method", "lcurve", "--gamma", "nan", "--seeds", "1"],
            ["--method", "lcurve", "--tol-factor", "10"],
            ["--method", "pinv", "--tol-factor", "nan"],
            ["--sigma", "0.1", "--sigma", "0.1"],
            ["--sigma", "0.0", "--sigma", "-0.0"],
            ["--method", "pinv", "--method", "pinv"],
            ["--seed-list", "3", "3"],
            ["--preset", "rational", "--method", "fixed-gamma", "--gamma", "1e155"],
            ["--l", "33"],
            # texts of ints beyond the float range parse to inf
            ["--method", "pinv", "--tol-factor", str(10**400)],
            ["--preset", "spectral", "--beta", str(10**400)],
            ["--sigma", str(10**400)],
            ["--n-s", str(2**70)],
            ["--n-a", str(2**70)],
            ["--preset", "spectral", "--beta", "1e-310", "--seeds", "1", "--sigma", "0.01"],
            ["--seeds", str(2**70)],
        ],
        ids=[
            "no-seeds", "negative-seed", "negative-sigma", "nan-sigma",
            "odd-spectral-n_s", "zero-n_a", "negative-spectral-beta", "negative-beta",
            "nan-tol-factor", "nan-gamma", "inf-gamma", "n_s-below-n_x", "n_a-below-n_x",
            "gamma-without-fixed-gamma", "tol-factor-without-pinv",
            "nan-tol-factor-pinv", "repeated-sigma", "signed-zero-sigmas",
            "repeated-method", "repeated-seed", "gamma-square-overflows",
            "l-above-n_a", "huge-int-tol-factor", "huge-int-beta", "huge-int-sigma",
            "huge-n_s", "huge-n_a", "matsubara-frequency-overflows", "huge-seed-count",
        ],
    )
    def test_bad_input_exit_one(self, tmp_path, capsys, extra):
        argv = ["--preset", "fourier", "--out", str(tmp_path / "out")] + extra
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "extra, names, seeds, sigmas",
        [
            (["--seeds", "0"], ["lcurve"], range(0), None),
            (["--seed-list", "3", "-1"], ["lcurve"], [3, -1], None),
            (["--seed-list", "3", "3"], ["lcurve"], [3, 3], None),
            (["--method", "pinv", "--method", "pinv"], ["pinv", "pinv"], range(20), None),
            (["--sigma", "0.1", "--sigma", "0.1"], ["lcurve"], range(20), [0.1, 0.1]),
        ],
        ids=["no-seeds", "negative-seed", "repeated-seed", "repeated-method", "repeated-sigma"],
    )
    def test_sweep_rules_have_one_owner(self, tmp_path, capsys, extra, names, seeds, sigmas):
        # the command line reports check_sweep's message on the same input
        with pytest.raises(ValueError) as expected:
            check_sweep(load_preset("fourier"), [make_method(n) for n in names], seeds, sigmas)
        argv = ["--preset", "fourier", "--out", str(tmp_path / "out")] + extra
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == f"error: {expected.value}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("pid", ["rational", "fourier", "laplace"])
    def test_l_at_n_a_runs(self, tmp_path, pid):
        # the largest l that check_sweep admits at the default n_a = 32
        argv = [
            "--preset", pid, "--method", "lcurve", "--method", "pinv", "--seeds", "1",
            "--sigma", "0.01", "--l", "32", "--out", str(tmp_path / "out"),
        ]
        assert cli_main(argv) == 0

    def test_method_choices_are_the_variants(self):
        (action,) = [a for a in build_parser()._actions if "--method" in a.option_strings]
        assert action.choices == [v.value for v in Variant]

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--tol-factor", "nan"], "--tol-factor is used only by --method pinv"),
            (["--method", "pinv", "--tol-factor", "nan"], "tol_factor must be finite"),
        ],
        ids=["tol-factor-rule", "tol-factor-value"],
    )
    def test_method_only_flag_rule_then_value(self, tmp_path, capsys, extra, message):
        # a flag its methods do not read is rejected first; one they read is
        # checked by make_method
        assert cli_main(["--preset", "fourier", "--out", str(tmp_path)] + extra) == 1
        assert message in capsys.readouterr().err

    def test_out_naming_a_file_exits_one_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("the sweep ran before the output directory was made")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        argv = ["--preset", "rational", "--seeds", "1", "--out", str(afile)]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(afile) in err
        assert afile.read_text() == "kept\n"

    @pytest.mark.parametrize("fmt", REPORT_FORMATS)
    def test_unwritable_report_exits_one(self, tmp_path, capsys, fmt):
        # the sweep runs, then the report's path is a directory: one line, no traceback
        (tmp_path / f"records.{fmt}").mkdir()
        argv = ["--preset", "fourier", "--method", "pinv", "--seeds", "1", "--format", fmt]
        assert cli_main(argv + ["--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: failed writing report under {tmp_path}: ")
        assert captured.err.count("\n") == 1 and f"records.{fmt}" in captured.err

    def test_beta_flag_only_on_spectral(self, tmp_path, capsys):
        # only spectral's samples read beta, so elsewhere the flag would be
        # silently ignored
        runs = {
            "fourier-flag": (["--preset", "fourier", "--beta", "5"], 1),
            "spectral-negative": (["--preset", "spectral", "--beta", "-1"], 1),
            "spectral": (["--preset", "spectral"], 0),
            "spectral-flag": (["--preset", "spectral", "--beta", "5"], 0),
        }
        argv = ["--method", "pinv", "--seeds", "1", "--sigma", "0.01", "--no-timing"]
        for name, (extra, code) in runs.items():
            assert cli_main(argv + extra + ["--out", str(tmp_path / name)]) == code
        err = capsys.readouterr().err
        assert "error: --beta is used only by --preset spectral\n" in err
        assert "error: beta must be finite and > 0" in err
        assert not (tmp_path / "fourier-flag").exists()
        reports = [(tmp_path / n / "records.csv").read_text() for n in ("spectral", "spectral-flag")]
        assert reports[0] != reports[1]

    def test_grid_size_setting_is_gone(self, tmp_path, capsys):
        # the L-curve grid is the constant LCURVE_GRID: no flag sets it
        argv = ["--preset", "fourier", "--seeds", "1", "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc_info:
            cli_main(argv + ["--grid-size", "200"])
        assert exc_info.value.code == 1
        assert "unrecognized arguments: --grid-size 200" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_readme_names_every_option(self):
        # the README's "Command line" section documents exactly the parser's options
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
        options = {o for a in build_parser()._actions for o in a.option_strings}
        assert named == options - {"-h", "--help"}

    def test_gamma_goes_to_fixed_gamma_only(self, tmp_path):
        # with --gamma, lcurve runs beside fixed-gamma (gamma-without-fixed-gamma
        # in test_bad_input_exit_one exits 1)
        argv = [
            "--preset", "fourier", "--method", "lcurve", "--method", "fixed-gamma",
            "--gamma", "1e-3", "--seeds", "1", "--sigma", "0.01",
            "--out", str(tmp_path / "out"),
        ]
        assert cli_main(argv) == 0

    @pytest.mark.parametrize("key", ["n_s", "n_a"])
    def test_sizes_at_model_order_run(self, tmp_path, key):
        # fourier has n_x = 4 spikes: 4 runs, 3 exits 1 (test_bad_input_exit_one)
        argv = [
            "--preset", "fourier", "--method", "pinv", "--method", "lcurve",
            "--seeds", "1", "--sigma", "0.01", f"--{key.replace('_', '-')}", "4",
            "--out", str(tmp_path / "out"),
        ]
        # with n_s = 4 or n_a = 4 the L-curve has no interior corner
        with pytest.warns(FlatCurveWarning):
            assert cli_main(argv) == 0

    def test_config_overrides(self, tmp_path):
        # flags override the preset's configuration: its n_s and its noise levels
        argv = ["--preset", "fourier", "--method", "lcurve", "--seeds", "1", "--no-timing"]
        assert cli_main(argv + ["--sigma", "0.01", "--out", str(tmp_path / "default")]) == 0
        rc = cli_main(argv + ["--n-s", "64", "--sigma", "0.01", "--out", str(tmp_path / "out")])
        assert rc == 0
        lines = (tmp_path / "out" / "records.csv").read_text().splitlines()
        assert len(lines) == 2  # one sigma, one seed, one method
        assert lines[1].startswith("fourier,lcurve,0.01,0,")
        assert lines != (tmp_path / "default" / "records.csv").read_text().splitlines()

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        preset=st.sampled_from(PRESET_IDS),
        flags=st.lists(
            st.sampled_from(sorted(_FUZZ_FLAGS)).flatmap(
                lambda f: st.tuples(st.just(f), st.sampled_from(_FUZZ_FLAGS[f]))
            ),
            max_size=4,
        ),
    )
    def test_fuzzed_input_exits_cleanly(self, tmp_path_factory, preset, flags):
        # in-process: an uncaught traceback would also exit 1 from a subprocess
        base = tmp_path_factory.mktemp("fuzz")
        out = base / "out"
        argv = ["--preset", preset, "--out", str(out)]
        # `--l=-inf`: argparse would read a lone "-inf" as an option
        argv += [flag if value is None else f"{flag}={value}" for flag, value in flags]
        # keep every run to one seed and one sigma unless the draw names them
        if not {"--seeds", "--seed-list"} & {f for f, _ in flags}:
            argv += ["--seeds", "1"]
        if "--sigma" not in {f for f, _ in flags}:
            argv += ["--sigma", "0.01"]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                code = cli_main(argv)
            except SystemExit as exc:  # argparse's own usage errors
                code = exc.code
            else:
                if code == 1:
                    assert len(err.getvalue().splitlines()) == 1, err.getvalue()
                    assert err.getvalue().startswith("error: ")
                    assert not out.exists()
        assert code in (0, 1, 2), (argv, err.getvalue())
