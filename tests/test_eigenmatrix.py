import warnings

import numpy as np
import pytest

from spikerec import (
    KernelDescriptor,
    Kind,
    MethodConfig,
    PreparedSystem,
    UNIT_DISK,
    Variant,
    add_noise,
    build_collocation_system,
    build_eigenmatrix,
    compute_svd,
    esprit_extract,
    krylov_original,
    krylov_regularized,
    recover,
    recover_weights,
    synthesize,
)
from spikerec import eigenmatrix, make_method
from spikerec.errors import (
    AllTruncated, DomainError, IllConditionedShiftWarning, NonFinite, RankDeficient,
)
from spikerec.kernels import Observations, SampleSet, SpikeSignal
from spikerec.experiments import load_preset


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def unitary_system(rng, n, nodes):
    """(G-hat, nodes) with G-hat exactly unitary."""
    q, _ = np.linalg.qr(random_complex(rng, (n, n)))
    return q, np.asarray(nodes, dtype=complex)


class TestBuildEigenmatrix:
    def test_unitary_eigenvalues_are_nodes(self):
        # with a unitary normalized matrix the pseudo-inverse is exact, so
        # the operator is similar to the node diagonal
        rng = np.random.default_rng(0)
        nodes = np.array([0.3, -0.7, 0.1 + 0.5j, 1.2, -0.4j])
        q, lam = unitary_system(rng, 5, nodes)
        M = build_eigenmatrix(q, lam, 1e-8, compute_svd(q))
        ev = np.sort_complex(np.linalg.eigvals(M))
        np.testing.assert_allclose(ev, np.sort_complex(nodes), atol=1e-12)

    def test_rank_one(self):
        q = np.array([[0.6], [0.8]], dtype=complex)
        M = build_eigenmatrix(q, np.array([2.0 + 0j]), 1e-8, compute_svd(q))
        np.testing.assert_allclose(M, 2.0 * q @ q.conj().T, atol=1e-14)

    def test_all_truncated(self):
        rng = np.random.default_rng(1)
        q, lam = unitary_system(rng, 3, [0.1, 0.2, 0.3])
        with pytest.raises(AllTruncated):
            build_eigenmatrix(q, lam, 10.0, compute_svd(q))

    def test_bad_tol(self):
        rng = np.random.default_rng(2)
        q, lam = unitary_system(rng, 3, [0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            build_eigenmatrix(q, lam, 0.0, compute_svd(q))

    def test_near_diagonalization_on_disk_benchmark(self):
        # the operator should nearly satisfy M G-hat = G-hat Lambda
        preset = load_preset("rational")
        nodes = preset.nodes()
        G = build_collocation_system(preset.kernel, preset.samples(0), nodes)
        for tol_factor, bound in ((1e-4, 1e-3), (1e-8, 1e-5)):
            tol = tol_factor * np.linalg.norm(G, "fro")
            M = build_eigenmatrix(G, nodes.nodes, tol, compute_svd(G))
            resid = np.linalg.norm(
                M @ G - G * nodes.nodes, "fro"
            ) / np.linalg.norm(G, "fro")
            assert resid <= bound


class TestKrylov:
    def test_original_trivial_l1(self):
        rng = np.random.default_rng(3)
        q, lam = unitary_system(rng, 4, [0.1, 0.2, 0.3, 0.4])
        M = build_eigenmatrix(q, lam, 1e-8, compute_svd(q))
        u = random_complex(rng, 4)
        A = krylov_original(M, u, 1)
        assert A.shape == (4, 2)
        np.testing.assert_array_equal(A[:, 0], u)
        np.testing.assert_allclose(A[:, 1], M @ u, rtol=1e-14)

    def test_original_identity_operator(self):
        u = np.arange(5.0) + 1j
        A = krylov_original(np.eye(5), u, 3)
        for k in range(4):
            np.testing.assert_array_equal(A[:, k], u)

    def test_original_recurrence(self):
        rng = np.random.default_rng(4)
        q, lam = unitary_system(rng, 6, rng.uniform(-1, 1, 6))
        M = build_eigenmatrix(q, lam, 1e-8, compute_svd(q))
        u = random_complex(rng, 6)
        A = krylov_original(M, u, 5)
        for k in range(1, 6):
            np.testing.assert_allclose(A[:, k], M @ A[:, k - 1], rtol=1e-13)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_original_nonfinite_u(self, bad):
        u = np.arange(1.0, 6.0)
        u[3] = bad
        with pytest.raises(NonFinite, match="u must be finite"):
            krylov_original(np.eye(5), u, 2)

    def test_regularized_zero_v(self):
        rng = np.random.default_rng(5)
        q, lam = unitary_system(rng, 4, [0.1, 0.2, 0.3, 0.4])
        u = random_complex(rng, 4)
        A = krylov_regularized(q, lam, np.zeros(4), u, 1)
        np.testing.assert_array_equal(A[:, 0], u)
        np.testing.assert_array_equal(A[:, 1], 0)

    def test_regularized_factorization(self):
        # columns 1..l must equal G-hat diag(v) [a, a^2, ..., a^l]
        rng = np.random.default_rng(6)
        preset = load_preset("fourier")
        nodes = preset.nodes()
        G = build_collocation_system(preset.kernel, preset.samples(1), nodes)
        nodes = nodes.nodes
        n_s, n_a = G.shape
        v = random_complex(rng, n_a)
        u = random_complex(rng, n_s)
        l = 7
        A = krylov_regularized(G, nodes, v, u, l)
        powers = nodes[:, None] ** np.arange(1, l + 1)
        expected = G @ (v[:, None] * powers)
        np.testing.assert_allclose(A[:, 1:], expected, rtol=1e-13)
        np.testing.assert_array_equal(A[:, 0], u)

    def test_length_mismatch(self):
        rng = np.random.default_rng(7)
        q, lam = unitary_system(rng, 4, [0.1, 0.2, 0.3, 0.4])
        with pytest.raises(ValueError, match="length n_a"):
            krylov_regularized(q, lam, np.zeros(3), np.zeros(4), 2)

    def test_equivalence_on_consistent_data(self):
        # for a full-column-rank system and u in its range, the two Krylov
        # constructions agree
        rng = np.random.default_rng(8)
        B = random_complex(rng, (20, 6))
        B /= np.linalg.norm(B, axis=0)
        nodes = rng.uniform(-1, 1, 6).astype(complex)
        v = random_complex(rng, 6)
        u = B @ v
        M = build_eigenmatrix(B, nodes, 1e-10, compute_svd(B))
        A1 = krylov_original(M, u, 5)
        A2 = krylov_regularized(B, nodes, v, u, 5)
        np.testing.assert_allclose(A1, A2, rtol=1e-9, atol=1e-12)


class TestEsprit:
    def test_structured_exact(self):
        rng = np.random.default_rng(9)
        z = np.array([0.9, -0.3 + 0.4j, 0.1 - 0.8j])
        C = random_complex(rng, (24, 3))
        V = z[:, None] ** np.arange(8)
        locs = esprit_extract(C @ V, 3)[0]
        np.testing.assert_allclose(np.sort_complex(locs), np.sort_complex(z), atol=1e-10)

    def test_single_spike(self):
        z = 0.42 - 0.1j
        col = np.array([1.0, 2.0, -1.5, 0.3], dtype=complex)
        A = col[:, None] * z ** np.arange(5)
        locs = esprit_extract(A, 1)[0]
        assert locs.size == 1
        assert abs(locs[0] - z) < 1e-12

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(10)
        z = np.array([0.5, -0.6j])
        A = random_complex(rng, (12, 2)) @ (z[:, None] ** np.arange(6))
        perm = rng.permutation(12)
        a = np.sort_complex(esprit_extract(A, 2)[0])
        b = np.sort_complex(esprit_extract(A[perm], 2)[0])
        np.testing.assert_allclose(a, b, atol=1e-11)

    def test_rank_deficient(self):
        col = np.ones(6, dtype=complex)
        A = np.tile(col[:, None], (1, 5))  # rank 1
        with pytest.raises(RankDeficient):
            esprit_extract(A, 3)

    def test_too_small(self):
        with pytest.raises(ValueError):
            esprit_extract(np.ones((2, 3)), 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_is_rank_deficient(self, bad):
        # a NaN stops LAPACK's SVD, an inf gives NaN singular values: both
        # are the RankDeficient of the docstring, not a LinAlgError
        rng = np.random.default_rng(13)
        A = random_complex(rng, (8, 4))
        A[2, 1] = bad
        with pytest.raises(RankDeficient):
            esprit_extract(A, 2)

    def test_diagnostics(self):
        rng = np.random.default_rng(11)
        z = np.array([0.7, -0.2])
        A = random_complex(rng, (10, 2)) @ (z[:, None] ** np.arange(6))
        _, cond_minus, gap = esprit_extract(A, 2)
        assert cond_minus >= 1.0
        assert 0.0 <= gap < 1e-10

    @pytest.mark.parametrize("n_x", [1, 2, 3])
    def test_cond_matches_np_cond(self, n_x):
        # cond(V_minus) comes from the least-squares solve's singular values
        rng = np.random.default_rng(12)
        A = random_complex(rng, (10, n_x + 3))
        vh = np.linalg.svd(A, full_matrices=False)[2]
        want = np.linalg.cond(vh[:n_x, :-1])
        assert esprit_extract(A, n_x)[1] == pytest.approx(want, rel=1e-13)

    def test_zero_v_minus_cond_is_inf(self):
        # V* = e_last makes V_minus zero: 0/0 reads inf, as np.linalg.cond has it
        A = np.zeros((6, 4))
        A[:, -1] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.warns(IllConditionedShiftWarning):
                _, cond_minus, _ = esprit_extract(A, 1)
        assert cond_minus == np.inf == np.linalg.cond(np.zeros((1, 3)))


class TestRecoverWeights:
    KERNEL = KernelDescriptor(Kind.RATIONAL, UNIT_DISK)

    def test_exact(self):
        samples = SampleSet(np.array([2.0, 3.0, 1.5j, -2.5, 4.0]))
        truth = SpikeSignal([0.3, -0.5j], [1.0 + 1.0j, -2.0])
        u = synthesize(self.KERNEL, truth, samples)
        w = recover_weights(self.KERNEL, samples, truth.locations, u)
        np.testing.assert_allclose(w, truth.weights, rtol=1e-12)

    def test_zero_observations(self):
        samples = SampleSet(np.array([2.0, 3.0, 4.0]))
        w = recover_weights(self.KERNEL, samples, np.array([0.5]), np.zeros(3))
        np.testing.assert_array_equal(w, 0)

    def test_scalar_case(self):
        samples = SampleSet(np.array([2.0]))
        w = recover_weights(self.KERNEL, samples, np.array([0.0]), np.array([3.0]))
        assert w[0] == pytest.approx(6.0)

    @pytest.mark.parametrize(
        "design",
        [
            (KERNEL, [np.nan, 0.5], NonFinite),  # a NaN column
            # x exp(-s x) is 0 at x = 0: rank zero, not a failed SVD
            (load_preset("laplace").kernel, [0.0], RankDeficient),
        ],
    )
    def test_unusable_design_is_degenerate(self, design):
        # truncated_pinv_apply's own failure, not re-wrapped: stage `weights` says where
        kernel, locations, error = design
        samples = SampleSet(np.array([1.5, 2.0, 3.0]))
        with pytest.raises(error):
            recover_weights(kernel, samples, np.array(locations), np.ones(3))

    def test_programming_error_propagates(self, monkeypatch):
        def broken(design, rtol, rhs):
            raise TypeError("not a numerical failure")

        monkeypatch.setattr(eigenmatrix, "truncated_pinv_apply", broken)
        samples = SampleSet(np.array([2.0, 3.0, 4.0]))
        with pytest.raises(TypeError, match="not a numerical failure"):
            recover_weights(self.KERNEL, samples, np.array([0.5]), np.ones(3))


class TestRecoverPipeline:
    def _setup(self, preset_id, sigma, seed):
        preset = load_preset(preset_id)
        samples = preset.samples(seed)
        u = synthesize(preset.kernel, preset.truth, samples)
        obs = add_noise(u, sigma, seed)
        return preset, samples, obs

    def test_deterministic_bitwise(self):
        preset, samples, obs = self._setup("rational", 1e-2, 5)
        cfg = MethodConfig(Variant.REGULARIZED_LCURVE, n_x=4)
        r1 = recover(cfg, PreparedSystem(preset.kernel, samples, preset.nodes()), obs)
        r2 = recover(cfg, PreparedSystem(preset.kernel, samples, preset.nodes()), obs)
        np.testing.assert_array_equal(r1.locations, r2.locations)
        np.testing.assert_array_equal(r1.weights, r2.weights)
        assert r1.gamma_or_tol == r2.gamma_or_tol

    @pytest.mark.parametrize("variant", [Variant.ORIGINAL_PINV, Variant.REGULARIZED_LCURVE])
    def test_scale_invariance_of_locations(self, variant):
        # multiplying the observations by a positive constant must not move
        # the recovered locations and must scale the weights
        preset, samples, obs = self._setup("rational", 1e-2, 3)
        cfg = MethodConfig(variant, n_x=4)
        r1 = recover(cfg, PreparedSystem(preset.kernel, samples, preset.nodes()), obs)
        c = 7.5
        obs2 = Observations(noisy=obs.noisy * c, sigma=obs.sigma, seed=obs.seed)
        r2 = recover(cfg, PreparedSystem(preset.kernel, samples, preset.nodes()), obs2)
        np.testing.assert_allclose(
            np.sort_complex(r1.locations), np.sort_complex(r2.locations), rtol=1e-6
        )
        np.testing.assert_allclose(
            np.sort_complex(r1.weights * c), np.sort_complex(r2.weights), rtol=1e-6
        )

    def test_interval_projection_clips_real_part(self):
        preset, samples, obs = self._setup("laplace", 5e-3, 2)
        cfg = MethodConfig(Variant.REGULARIZED_LCURVE, n_x=4)
        res = recover(cfg, PreparedSystem(preset.kernel, samples, preset.nodes()), obs)
        lo, hi = preset.kernel.domain.lo, preset.kernel.domain.hi
        assert np.all(res.locations.imag == 0)
        assert np.all((res.locations.real >= lo) & (res.locations.real <= hi))

    @pytest.mark.parametrize("variant", list(Variant))
    def test_zero_observation_is_rank_deficient(self, variant):
        # u = 0 gives A = 0, whose sigma_1 is 0 too: no spikes to locate
        preset = load_preset("fourier")
        samples = preset.samples(0)
        zero = np.zeros(samples.n_s, dtype=complex)
        obs = Observations(noisy=zero, sigma=0.0, seed=0)
        gamma = 1e-3 if variant is Variant.REGULARIZED_FIXED_GAMMA else None
        cfg = MethodConfig(variant, n_x=4, gamma=gamma)
        with pytest.raises(RankDeficient) as exc_info:
            recover(cfg, PreparedSystem(preset.kernel, samples, preset.nodes()), obs)
        assert exc_info.value.stage == "esprit"

    def test_failure_carries_stage(self):
        preset, samples, obs = self._setup("rational", 1e-2, 0)
        cfg = MethodConfig(Variant.ORIGINAL_PINV, n_x=4, tol_factor=10.0)
        with pytest.raises(AllTruncated) as exc_info:
            recover(cfg, PreparedSystem(preset.kernel, samples, preset.nodes()), obs)
        assert exc_info.value.stage == "eigenmatrix"


class TestPreparedSystem:
    """The shared pieces are built by the first `recover` that needs them."""

    def _count_builds(self, monkeypatch, n_a):
        # collocation systems built, and SVDs of an n_s x n_a collocation
        # matrix; the weight design's SVD has n_x columns and is not counted
        calls = {"build_collocation_system": 0, "compute_svd": 0}
        build, svd = eigenmatrix.build_collocation_system, eigenmatrix.compute_svd

        def counted_build(*args):
            calls["build_collocation_system"] += 1
            return build(*args)

        def counted_svd(matrix):
            calls["compute_svd"] += matrix.shape[1] == n_a
            return svd(matrix)

        monkeypatch.setattr(eigenmatrix, "build_collocation_system", counted_build)
        monkeypatch.setattr(eigenmatrix, "compute_svd", counted_svd)
        return calls

    def test_built_once_on_first_use(self, monkeypatch):
        preset = load_preset("fourier")
        samples = preset.samples(0)
        calls = self._count_builds(monkeypatch, preset.n_a)
        prepared = PreparedSystem(preset.kernel, samples, preset.nodes())
        assert calls == {"build_collocation_system": 0, "compute_svd": 0}
        u = synthesize(preset.kernel, preset.truth, samples)
        recover(make_method("lcurve"), prepared, add_noise(u, 1e-2, 0))
        assert calls == {"build_collocation_system": 1, "compute_svd": 1}
        recover(make_method("pinv"), prepared, add_noise(u, 1e-1, 0))
        assert calls == {"build_collocation_system": 1, "compute_svd": 1}

    def test_failed_build_is_not_cached(self):
        # a sample on the collocation node 1 of the unit circle
        preset = load_preset("rational")
        points = preset.samples(0).points.copy()
        points[0] = 1.0
        samples = SampleSet(points)
        prepared = PreparedSystem(preset.kernel, samples, preset.nodes())
        for _ in range(2):
            with pytest.raises(DomainError):
                prepared.normalized
        u = synthesize(preset.kernel, preset.truth, samples)
        errors = []
        for method in ("lcurve", "pinv"):
            with pytest.raises(DomainError) as exc_info:
                recover(make_method(method), prepared, add_noise(u, 1e-2, 0))
            assert exc_info.value.stage == "collocation"
            errors.append(str(exc_info.value))
        assert errors[0] == errors[1]


class TestMethodConfig:
    def test_default_l(self):
        cfg = MethodConfig(Variant.ORIGINAL_PINV, n_x=4)
        assert cfg.l == 6

    @pytest.mark.parametrize("n_x", [4.0, True, 0])
    def test_n_x_must_be_a_positive_integer(self, n_x):
        # checked before l = n_x + 2 is derived from it
        with pytest.raises(ValueError, match="n_x must be an integer"):
            MethodConfig(Variant.ORIGINAL_PINV, n_x=n_x)

    def test_l_must_exceed_model_order(self):
        with pytest.raises(ValueError):
            MethodConfig(Variant.ORIGINAL_PINV, n_x=4, l=4)

    def test_fixed_gamma_requires_gamma(self):
        with pytest.raises(ValueError):
            MethodConfig(Variant.REGULARIZED_FIXED_GAMMA, n_x=4)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf"), 1e155])
    def test_fixed_gamma_must_be_finite_and_positive(self, gamma):
        # 1e155 is finite, but the Tikhonov filter's gamma^2 is not
        with pytest.raises(ValueError) as info:
            MethodConfig(Variant.REGULARIZED_FIXED_GAMMA, n_x=4, gamma=gamma)
        assert str(info.value).endswith(f"not {gamma!r}")

    @pytest.mark.parametrize("variant", [Variant.ORIGINAL_PINV, Variant.REGULARIZED_LCURVE])
    def test_gamma_only_for_fixed_gamma(self, variant):
        with pytest.raises(ValueError):
            MethodConfig(variant, n_x=4, gamma=1e-3)

    def test_bad_tol_factor(self):
        with pytest.raises(ValueError):
            MethodConfig(Variant.ORIGINAL_PINV, n_x=4, tol_factor=-1.0)
