import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikerec import (
    Domain,
    KernelDescriptor,
    Kind,
    SampleSet,
    SpikeSignal,
    UNIT_DISK,
    add_noise,
    build_collocation_system,
    eval_kernel,
    load_preset,
    synthesize,
)
from spikerec.errors import DegenerateColumn, DomainError
from spikerec import kernels
from spikerec.kernels import CollocationNodes, Observations

RATIONAL = KernelDescriptor(Kind.RATIONAL, UNIT_DISK)
FOURIER = KernelDescriptor(Kind.FOURIER, Domain("interval", -1, 1))
LAPLACE = KernelDescriptor(Kind.LAPLACE, Domain("interval", 0.1, 2.1))
CAUCHY = KernelDescriptor(Kind.CAUCHY_SQUARED, Domain("interval", -1, 1))


class TestEvalKernel:
    def test_rational(self):
        assert eval_kernel(RATIONAL, 2.0, 0.0) == pytest.approx(0.5)

    def test_fourier_at_zero(self):
        assert eval_kernel(FOURIER, 0.0, 0.5) == pytest.approx(1.0)

    def test_laplace_at_zero(self):
        assert eval_kernel(LAPLACE, 0.0, 2.0) == pytest.approx(2.0)

    def test_cauchy_squared_at_pole_free_center(self):
        assert eval_kernel(CAUCHY, 0.7, 0.7) == pytest.approx(1.0)

    def test_rational_pole_raises(self):
        with pytest.raises(DomainError):
            eval_kernel(RATIONAL, 0.5 + 0.5j, 0.5 + 0.5j)


class TestGrids:
    def test_circle_nodes_fourth_roots(self):
        nodes = UNIT_DISK.nodes(4).nodes
        np.testing.assert_allclose(nodes, [1, 1j, -1, -1j], atol=1e-15)

    def test_circle_single_node(self):
        np.testing.assert_allclose(UNIT_DISK.nodes(1).nodes, [1.0])

    def test_circle_32_unit_modulus_and_spacing(self):
        nodes = UNIT_DISK.nodes(32).nodes
        assert np.all(np.abs(np.abs(nodes) - 1) <= 1e-15)
        angles = np.sort(np.angle(nodes))
        np.testing.assert_allclose(np.diff(angles), np.pi / 16, atol=1e-12)

    def test_chebyshev_single(self):
        np.testing.assert_allclose(Domain("interval", -1, 1).nodes(1).nodes, [0.0], atol=1e-16)

    def test_chebyshev_two(self):
        nodes = np.sort(Domain("interval", -1, 1).nodes(2).nodes.real)
        np.testing.assert_allclose(nodes, [-np.sqrt(2) / 2, np.sqrt(2) / 2])

    def test_chebyshev_strictly_inside_shifted(self):
        nodes = Domain("interval", 0.1, 2.1).nodes(32).nodes.real
        assert nodes.size == 32
        assert np.all((nodes > 0.1) & (nodes < 2.1))

    @pytest.mark.parametrize(
        "domain", [UNIT_DISK, Domain("interval", 0.1, 2.1)], ids=["disk", "interval"]
    )
    @pytest.mark.parametrize("n_a", [2.5, True, 0], ids=["float", "bool", "zero"])
    def test_node_count_is_an_integer_of_at_least_one(self, domain, n_a):
        # np.arange(2.5) has 3 entries: a float count would pass silently
        with pytest.raises(ValueError, match=f"^n_a must be an integer >= 1, not {n_a!r}$"):
            domain.nodes(n_a)

    def test_interval_projection_clamps_real_parts(self):
        raw = np.array([-0.5 + 0.1j, 0.7 - 2.0j, 3.0 + 0.0j, 1.3 + 0.0j])
        located = Domain("interval", 0.1, 2.1).project(raw)
        assert located.dtype == np.float64
        np.testing.assert_array_equal(located, [0.1, 0.7, 2.1, 1.3])

    def test_disk_projection_keeps_raw(self):
        # a spike off the closed disk is reported where ESPRIT put it
        raw = np.array([1.5 + 0.5j, -0.2j])
        assert UNIT_DISK.project(raw) is raw


class TestGenerateSamples:
    def test_matsubara_first_pair(self):
        beta = 37.0
        pts = load_preset("spectral", beta=beta).samples(0).points
        assert np.min(np.abs(pts - 1j * np.pi / beta)) < 1e-15
        assert np.min(np.abs(pts + 1j * np.pi / beta)) < 1e-15
        assert pts.size == 256

    def test_rational_moduli(self):
        pts = load_preset("rational").samples(123).points
        assert pts.size == 40
        assert np.all((np.abs(pts) >= 1.2) & (np.abs(pts) <= 2.2))

    @pytest.mark.parametrize("preset", ["rational", "spectral", "fourier", "laplace", "deconv"])
    def test_determinism(self, preset):
        a = load_preset(preset).samples(42).points
        b = load_preset(preset).samples(42).points
        np.testing.assert_array_equal(a, b)

    def test_fourier_range_and_count(self):
        pts = load_preset("fourier").samples(7).points
        assert pts.size == 128
        assert np.all((pts.real >= -5) & (pts.real <= 5))
        assert np.all(pts.imag == 0)

    def test_laplace_range_and_count(self):
        pts = load_preset("laplace").samples(7).points
        assert pts.size == 100
        assert np.all((pts.real >= 0) & (pts.real <= 10))

    @pytest.mark.parametrize("preset", ["rational", "spectral", "fourier", "laplace", "deconv"])
    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan"), float("inf"), True])
    def test_bad_beta(self, preset, beta):
        # unchecked, beta = 0 gives nan+infj points with only a RuntimeWarning
        with pytest.raises(ValueError, match=f"^beta must be finite and > 0, not {beta!r}$"):
            load_preset(preset, beta=beta)

    def test_matsubara_overflow_boundary(self):
        # at n_s = 256 the top frequency 255 pi / beta passes the float64
        # maximum between these two betas; below it the grid would be infinite
        message = r"^beta = 4.4e-306 overflows \(n_s - 1\) \* pi / beta at n_s = 256$"
        with pytest.raises(ValueError, match=message):
            load_preset("spectral", beta=4.4e-306)
        top = np.abs(load_preset("spectral", beta=4.5e-306).samples(0).points).max()
        assert np.isfinite(top) and top == pytest.approx(1.78e308, rel=1e-3)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(half=st.integers(2, 4096), ulps=st.integers(-3, 3))
    def test_matsubara_rule_is_the_grid(self, half, ulps):
        # ExperimentPreset takes the top frequency as NumPy's complex division
        # does, so at every beta near the overflow it accepts exactly the finite grids
        n_s = 2 * half
        beta = (n_s - 1) * np.pi / np.finfo(np.float64).max
        for _ in range(abs(ulps)):
            beta = float(np.nextafter(beta, np.inf if ulps > 0 else 0.0))
        with np.errstate(over="ignore", invalid="ignore"):
            finite = bool(np.isfinite(kernels._matsubara(None, n_s, beta)).all())
        try:
            load_preset("spectral", beta=beta, n_s=n_s).samples(0)
        except ValueError as exc:
            assert not finite and "overflows" in str(exc)
        else:
            assert finite


class TestSynthesize:
    def test_single_spike(self):
        samples = SampleSet(np.array([2.0, 3.0, 1.5j]))
        signal = SpikeSignal([0.4], [1.0])
        u = synthesize(RATIONAL, signal, samples)
        np.testing.assert_allclose(u, 1.0 / (samples.points - 0.4))

    def test_zero_weights(self):
        samples = SampleSet(np.linspace(-4, 4, 9))
        signal = SpikeSignal([0.1, -0.3], [0.0, 0.0])
        np.testing.assert_array_equal(synthesize(FOURIER, signal, samples), 0)

    def test_two_spikes_against_loop(self):
        rng = np.random.default_rng(5)
        samples = SampleSet(rng.uniform(-5, 5, 20))
        signal = SpikeSignal([0.25, -0.6], [1.0 + 0.5j, -2.0])
        u = synthesize(CAUCHY, signal, samples)
        expected = np.array(
            [
                sum(
                    w * eval_kernel(CAUCHY, s, x)
                    for x, w in zip(signal.locations, signal.weights)
                )
                for s in samples.points
            ]
        )
        np.testing.assert_allclose(u, expected, rtol=1e-14)

    def test_linearity_in_weights(self):
        rng = np.random.default_rng(9)
        samples = SampleSet(rng.uniform(-5, 5, 30))
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        locs = np.array([-0.8, -0.1, 0.3, 0.9])
        u1 = synthesize(FOURIER, SpikeSignal(locs, w), samples)
        u2 = synthesize(FOURIER, SpikeSignal(locs, 2 * w), samples)
        np.testing.assert_allclose(u2, 2 * u1, rtol=1e-14)


class TestAddNoise:
    def test_sigma_zero_exact(self):
        u = np.array([1.0 + 2.0j, -0.5, 3.0j])
        obs = add_noise(u, 0.0, 11)
        assert np.array_equal(obs.noisy, u)

    def test_determinism(self):
        u = np.ones(64, dtype=complex)
        a = add_noise(u, 0.1, 99).noisy
        b = add_noise(u, 0.1, 99).noisy
        np.testing.assert_array_equal(a, b)

    def test_monte_carlo_moments(self):
        u = np.ones(100_000, dtype=complex)
        ratio = add_noise(u, 0.1, 1234).noisy / u
        assert abs(ratio.real.mean() - 1.0) < 0.002
        assert abs(ratio.real.std() - 0.1) < 0.002

    def test_scaling_shares_the_z_draw(self):
        u = (np.arange(10) + 1.0).astype(complex)
        d1 = (add_noise(u, 0.05, 3).noisy - u) / u
        d2 = (add_noise(u, 0.1, 3).noisy - u) / u
        # equality up to one rounding in the division by u
        np.testing.assert_allclose(d2, 2 * d1, rtol=1e-12)

    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
    def test_sigma_must_be_finite_and_nonnegative(self, sigma):
        with pytest.raises(ValueError):
            add_noise(np.ones(4), sigma, 0)

    def test_one_draw_per_seed(self, monkeypatch):
        # a seed's sigmas share one Z, drawn by one generator and bit for bit
        # the fresh draw of its noise substream
        drawn = []

        def counted(seed, stream, _real=kernels._rng):
            drawn.append((seed, stream))
            return _real(seed, stream)

        add_noise(np.ones(1), 0.1, 12345)  # a draw of another seed goes first
        monkeypatch.setattr(kernels, "_rng", counted)
        u = np.arange(1.0, 9.0) + 0.5j
        noisy = [add_noise(u, sigma, 5).noisy for sigma in (1e-3, 1e-2, 1e-1)]
        assert drawn == [(5, 1)]
        z = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(1,))).standard_normal(8)
        for sigma, got in zip((1e-3, 1e-2, 1e-1), noisy):
            assert np.array_equal(got, u * (1.0 + sigma * z))
        add_noise(u, 0.1, 6)
        add_noise(u[:4], 0.1, 6)
        assert drawn == [(5, 1), (6, 1), (6, 1)]  # a new seed or length draws anew

    def test_shared_draw_is_read_only(self):
        obs = add_noise(np.ones(3), 0.1, 0)
        with pytest.raises(ValueError):
            kernels._noise(0, 3)[0] = 0.0
        assert obs.noisy.flags.writeable  # the observation is the caller's own


class TestCollocationSystem:
    def test_unit_column_norms(self):
        samples = load_preset("fourier").samples(0)
        nodes = Domain("interval", -1, 1).nodes(32)
        normalized = build_collocation_system(FOURIER, samples, nodes)
        np.testing.assert_allclose(
            np.linalg.norm(normalized, axis=0), 1.0, atol=1e-14
        )

    def test_one_by_one(self):
        normalized = build_collocation_system(
            FOURIER, SampleSet([0.0]), CollocationNodes([0.3])
        )
        np.testing.assert_allclose(normalized, [[1.0]])

    def test_norms_reconstruct_matrix(self):
        samples = load_preset("rational").samples(17)
        nodes = UNIT_DISK.nodes(32)
        normalized = build_collocation_system(RATIONAL, samples, nodes)
        G = eval_kernel(RATIONAL, samples.points[:, None], nodes.nodes[None, :])
        np.testing.assert_allclose(
            normalized, G / np.linalg.norm(G, axis=0), rtol=1e-14
        )

    def test_zero_column_rejected(self):
        # Laplace kernel vanishes identically at x = 0
        with pytest.raises(DegenerateColumn):
            build_collocation_system(
                LAPLACE, SampleSet([1.0, 2.0]), CollocationNodes([0.0, 1.0])
            )

    def test_pole_hit_propagates(self):
        with pytest.raises(DomainError):
            build_collocation_system(
                RATIONAL, SampleSet([1.0, 2.0]), CollocationNodes([1.0, 1j])
            )


class TestSignalValidation:
    def test_duplicate_locations_rejected(self):
        with pytest.raises(ValueError):
            SpikeSignal([0.5, 0.5], [1.0, 1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SpikeSignal([0.5, 0.2], [1.0])

    NONFINITE = {"nan": np.nan, "inf": np.inf, "complex_nan": complex(0.5, np.nan)}
    BUILDS = {
        "SpikeSignal.locations": lambda bad: SpikeSignal([bad, 1.0], [1.0, 1.0]),
        "SpikeSignal.weights": lambda bad: SpikeSignal([0.5, 1.0], [bad, 1.0]),
        "CollocationNodes.nodes": lambda bad: CollocationNodes([bad, 0.5]),
        "SampleSet.points": lambda bad: SampleSet([bad, 0.5]),
    }

    @pytest.mark.parametrize("bad", NONFINITE.values(), ids=NONFINITE.keys())
    @pytest.mark.parametrize("field", BUILDS)
    def test_nonfinite_rejected(self, field, bad):
        with pytest.raises(ValueError, match=rf"^{field} must be finite$"):
            self.BUILDS[field](bad)

    def test_two_nan_locations_are_nonfinite_not_repeats(self):
        with pytest.raises(ValueError, match="^SpikeSignal.locations must be finite$"):
            SpikeSignal([np.nan, np.nan], [1.0, 1.0])

    def test_repeated_sample_points_allowed(self):
        assert SampleSet([0.5, 0.5, -0.0, 0.0]).n_s == 4


class TestDtypeRule:
    """Arrays keep the type of their data: real input is float64 and complex
    input complex128, with integer and float32 input promoted to float64."""

    CASES = {
        "float64": (np.array([1.0, 2.0]), np.float64),
        "complex128": (np.array([1.0, 2.0j]), np.complex128),
        "int": (np.array([1, 2]), np.float64),
        "float32": (np.array([1.0, 2.0], dtype=np.float32), np.float64),
        "complex64": (np.array([1.0, 2.0j], dtype=np.complex64), np.complex128),
        "list": ([1, 2], np.float64),
    }

    @pytest.mark.parametrize("values, dtype", CASES.values(), ids=CASES.keys())
    def test_containers(self, values, dtype):
        assert SampleSet(values).points.dtype == dtype
        assert CollocationNodes(values).nodes.dtype == dtype
        signal = SpikeSignal(values, values)
        assert signal.locations.dtype == signal.weights.dtype == dtype
        assert Observations(values, 0.01, 0).noisy.dtype == dtype

    def test_observation_settings_are_python_numbers(self):
        obs = Observations(np.ones(2), np.float64(0.5), np.int64(3))
        assert (type(obs.sigma), type(obs.seed)) == (float, int)
        assert (obs.sigma, obs.seed) == (0.5, 3)

    @pytest.mark.parametrize(
        "kernel", [RATIONAL, FOURIER, LAPLACE, CAUCHY], ids=lambda k: k.kind.value
    )
    def test_eval_kernel_scalar_in_scalar_out(self, kernel):
        assert np.isscalar(eval_kernel(kernel, 2.0, 0.5))
        assert np.isscalar(eval_kernel(kernel, np.float32(2.0), 1))

    @pytest.mark.parametrize(
        "kernel, dtype",
        [(RATIONAL, np.float64), (FOURIER, np.complex128), (LAPLACE, np.float64),
         (CAUCHY, np.float64)],
        ids=["rational", "fourier", "laplace", "cauchy_squared"],
    )
    def test_eval_kernel_on_real_points(self, kernel, dtype):
        s = np.array([2.0, 3.0], dtype=np.float32)
        assert eval_kernel(kernel, s[:, None], np.array([0, 1])[None, :]).dtype == dtype
        assert eval_kernel(kernel, s, 0.5j).dtype == np.complex128

    @pytest.mark.parametrize(
        "preset, dtype",
        [("rational", np.complex128), ("spectral", np.complex128), ("fourier", np.float64),
         ("laplace", np.float64), ("deconv", np.float64)],
    )
    def test_sample_points(self, preset, dtype):
        assert load_preset(preset).samples(0).points.dtype == dtype

    def test_nodes(self):
        assert Domain("interval", 0.1, 2.1).nodes(8).nodes.dtype == np.float64
        assert UNIT_DISK.nodes(8).nodes.dtype == np.complex128
