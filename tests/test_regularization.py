import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brent

import spikerec
import spikerec.eigenmatrix
from spikerec.errors import AllTruncated, FlatCurveWarning
from spikerec.experiments import load_preset, make_method, run_sweep
from spikerec.kernels import add_noise, build_collocation_system, synthesize
from spikerec.regularization import (
    SvdFactors,
    _brent,
    _neg_curvature,
    compute_svd,
    lcurve_gamma_grid,
    lcurve_select,
    tikhonov_solve,
    truncated_pinv_apply,
)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def matrix_with_spectrum(rng, n_s, n_a, sigmas):
    A = random_complex(rng, (n_s, n_a))
    u, _, vh = np.linalg.svd(A, full_matrices=False)
    return (u * np.asarray(sigmas)) @ vh


class TestComputeSvd:
    def test_identity(self):
        f = compute_svd(np.eye(3))
        np.testing.assert_allclose(f.singular_values, [1, 1, 1])

    def test_diagonal_order(self):
        f = compute_svd(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(f.singular_values, [3, 2, 1])

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        A = random_complex(rng, (6, 4))
        f = compute_svd(A)
        np.testing.assert_allclose((f.left * f.singular_values) @ f.right.conj().T, A, rtol=1e-12)

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(1)
        f = compute_svd(random_complex(rng, (12, 5)))
        np.testing.assert_allclose(f.left.conj().T @ f.left, np.eye(5), atol=1e-12)
        np.testing.assert_allclose(f.right.conj().T @ f.right, np.eye(5), atol=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            compute_svd(np.array([[np.inf, 1.0]]))


class TestTruncatedPinv:
    def test_identity(self):
        f = compute_svd(np.eye(4))
        b = np.arange(4.0)
        np.testing.assert_allclose(truncated_pinv_apply(f, 0.5, b), b)

    def test_small_direction_truncated(self):
        f = compute_svd(np.diag([1.0, 1e-6]))
        v = truncated_pinv_apply(f, 1e-3, np.array([1.0, 1.0]))
        np.testing.assert_allclose(v, [1.0, 0.0], atol=1e-15)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(2)
        A = matrix_with_spectrum(rng, 8, 4, np.geomspace(1, 0.1, 4))
        b = random_complex(rng, 8)
        f = compute_svd(A)
        v = truncated_pinv_apply(f, 1e-3, b)
        oracle = np.linalg.solve(A.conj().T @ A, A.conj().T @ b)
        np.testing.assert_allclose(v, oracle, rtol=1e-10)

    def test_all_truncated(self):
        f = compute_svd(np.diag([1.0, 0.5]))
        with pytest.raises(AllTruncated):
            truncated_pinv_apply(f, 10.0, np.ones(2))

    def test_pinv_left_inverse_on_full_rank(self):
        rng = np.random.default_rng(3)
        A = matrix_with_spectrum(rng, 20, 6, np.geomspace(1, 1e-2, 6))
        w = random_complex(rng, 6)
        f = compute_svd(A)
        v = truncated_pinv_apply(f, 1e-8, A @ w)
        np.testing.assert_allclose(v, w, rtol=1e-10)


class TestTikhonov:
    def test_identity_filter_factor(self):
        f = compute_svd(np.eye(3))
        b = np.array([1.0, -2.0, 0.5j])
        sol = tikhonov_solve(f, b, 0.7)
        np.testing.assert_allclose(sol.v, b / (1 + 0.49), rtol=1e-14)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf")])
    def test_gamma_must_be_finite_and_positive(self, gamma):
        with pytest.raises(ValueError):
            tikhonov_solve(compute_svd(np.eye(3)), np.ones(3), gamma)

    def test_matches_dense_normal_equation(self):
        rng = np.random.default_rng(4)
        # keep cond(A*A + gamma^2 I) modest so the dense oracle is trustworthy
        A = matrix_with_spectrum(rng, 10, 6, np.geomspace(1, 1e-3, 6))
        b = random_complex(rng, 10)
        for gamma in (1e-3, 1e-1, 1.0):
            sol = tikhonov_solve(compute_svd(A), b, gamma)
            oracle = np.linalg.solve(
                A.conj().T @ A + gamma**2 * np.eye(6), A.conj().T @ b
            )
            np.testing.assert_allclose(sol.v, oracle, rtol=1e-10)

    def test_norms_consistent_with_solution(self):
        rng = np.random.default_rng(5)
        A = matrix_with_spectrum(rng, 12, 5, np.geomspace(1, 1e-4, 5))
        b = random_complex(rng, 12)
        sol = tikhonov_solve(compute_svd(A), b, 1e-2)
        assert sol.residual_norm == pytest.approx(np.linalg.norm(A @ sol.v - b), rel=1e-12)
        assert sol.solution_norm == pytest.approx(np.linalg.norm(sol.v), rel=1e-12)

    def test_monotone_tradeoff_in_gamma(self):
        rng = np.random.default_rng(6)
        A = matrix_with_spectrum(rng, 16, 8, np.geomspace(1, 1e-6, 8))
        b = random_complex(rng, 16)
        f = compute_svd(A)
        gammas = np.geomspace(1e-8, 1.0, 40)
        sols = [tikhonov_solve(f, b, g) for g in gammas]
        res = np.array([s.residual_norm for s in sols])
        nrm = np.array([s.solution_norm for s in sols])
        assert np.all(np.diff(res) >= -1e-12)
        assert np.all(np.diff(nrm) <= 1e-12)

    def test_small_gamma_limit_is_least_squares(self):
        rng = np.random.default_rng(7)
        A = matrix_with_spectrum(rng, 20, 8, np.geomspace(1, 1e-3, 8))
        b = random_complex(rng, 20)
        ls = np.linalg.lstsq(A, b, rcond=None)[0]
        sol = tikhonov_solve(compute_svd(A), b, 1e-12)
        np.testing.assert_allclose(sol.v, ls, rtol=1e-6)

    def test_first_order_stationarity(self):
        rng = np.random.default_rng(8)
        A = matrix_with_spectrum(rng, 12, 6, np.geomspace(1, 1e-2, 6))
        b = random_complex(rng, 12)
        gamma = 0.1
        sol = tikhonov_solve(compute_svd(A), b, gamma)

        def objective(v):
            return np.linalg.norm(A @ v - b) ** 2 + gamma**2 * np.linalg.norm(v) ** 2

        base = objective(sol.v)
        h = 1e-6
        for _ in range(10):
            p = random_complex(rng, 6)
            p /= np.linalg.norm(p)
            assert objective(sol.v + h * p) > base


class TestLcurve:
    def test_gamma_within_grid_bounds(self):
        rng = np.random.default_rng(9)
        A = matrix_with_spectrum(rng, 30, 10, np.geomspace(1, 1e-9, 10))
        f = compute_svd(A)
        b = A @ random_complex(rng, 10)
        b *= 1 + 0.05 * rng.standard_normal(30)
        sol = lcurve_select(f, b)
        grid = lcurve_gamma_grid(f, 200)
        assert grid[0] <= sol.gamma <= grid[-1]

    def test_close_to_discrepancy_principle(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            A = matrix_with_spectrum(rng, 64, 32, np.geomspace(1, 1e-8, 32))
            u = A @ random_complex(rng, 32)
            delta = 1e-2
            noise = random_complex(rng, 64)
            noise *= delta * np.linalg.norm(u) / np.linalg.norm(noise)
            ut = u + noise
            f = compute_svd(A)
            sol = lcurve_select(f, ut)
            # discrepancy-principle gamma by bisection (residual is monotone)
            target = 1.01 * delta * np.linalg.norm(ut)
            lo, hi = 1e-14, float(f.singular_values[0])
            for _ in range(200):
                mid = np.sqrt(lo * hi)
                if tikhonov_solve(f, ut, mid).residual_norm < target:
                    lo = mid
                else:
                    hi = mid
            g_disc = np.sqrt(lo * hi)
            assert g_disc / 100 <= sol.gamma <= g_disc * 100

    def test_exact_data_residual_tiny(self):
        # numerically rank-deficient matrix whose retained head is
        # well-conditioned; consistent rhs puts the corner at the gap
        rng = np.random.default_rng(11)
        sigmas = np.concatenate([np.geomspace(1, 1e-2, 16), np.full(16, 1e-13)])
        for _ in range(5):
            A = matrix_with_spectrum(rng, 64, 32, sigmas)
            u = A @ random_complex(rng, 32)
            sol = lcurve_select(compute_svd(A), u)
            assert sol.residual_norm <= 1e-6 * np.linalg.norm(u)

    def test_flat_curve_flagged(self):
        rng = np.random.default_rng(12)
        f = compute_svd(random_complex(rng, (10, 4)))
        rhs = f.left[:, 0].copy()  # single singular direction: no corner
        with pytest.warns(FlatCurveWarning):
            sol = lcurve_select(f, rhs)
        assert sol.flagged

    def test_zero_rhs(self):
        rng = np.random.default_rng(13)
        f = compute_svd(random_complex(rng, (8, 4)))
        sol = lcurve_select(f, np.zeros(8))
        assert sol.flagged
        assert sol.gamma == pytest.approx(f.singular_values[0])
        np.testing.assert_array_equal(sol.v, 0)

    def test_grid_size_validation(self):
        rng = np.random.default_rng(14)
        f = compute_svd(random_complex(rng, (8, 4)))
        with pytest.raises(ValueError):
            lcurve_select(f, np.ones(8), grid_size=8)


def neg_curvature_loop(gamma, s, abs_beta_sq, abs_xi_sq, perp_sq):
    """The per-gamma loop that _neg_curvature replaced, kept as its reference."""
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    out = np.empty_like(gamma)
    for i, g in enumerate(gamma):
        f = s**2 / (s**2 + g**2)
        cf = 1.0 - f
        eta = np.sqrt(np.sum(f**2 * abs_xi_sq))
        rho = np.sqrt(np.sum(cf**2 * abs_beta_sq) + perp_sq)
        f1 = -2.0 * f * cf / g
        f2 = -f1 * (3.0 - 4.0 * f) / g
        phi = np.sum(f * f1 * abs_xi_sq)
        psi = np.sum(cf * f1 * abs_beta_sq)
        dphi = np.sum((f1**2 + f * f2) * abs_xi_sq)
        dpsi = np.sum((-(f1**2) + cf * f2) * abs_beta_sq)
        deta = phi / eta
        drho = -psi / rho
        ddeta = dphi / eta - deta * (deta / eta)
        ddrho = -dpsi / rho - drho * (drho / rho)
        dlogeta = deta / eta
        dlogrho = drho / rho
        ddlogeta = ddeta / eta - dlogeta**2
        ddlogrho = ddrho / rho - dlogrho**2
        out[i] = -(dlogrho * ddlogeta - ddlogrho * dlogeta) / (
            dlogrho**2 + dlogeta**2
        ) ** 1.5
    return out if out.size > 1 else float(out[0])


def curvature_args(factors, rhs):
    """The loop reference's arguments and _neg_curvature's, for one system."""
    s = factors.singular_values
    beta = factors.left.conj().T @ rhs
    perp_sq = max(float(np.linalg.norm(rhs) ** 2 - np.linalg.norm(beta) ** 2), 0.0)
    abs_beta_sq = np.abs(beta) ** 2
    abs_xi_sq = abs_beta_sq / s**2
    weights = np.array((abs_xi_sq, abs_beta_sq) * 3)
    return (s, abs_beta_sq, abs_xi_sq, perp_sq), (s * s, weights, perp_sq)


@pytest.fixture(scope="module")
def curvature_cases():
    """(factors, rhs) pairs: two random spectra and two benchmark presets."""
    rng = np.random.default_rng(15)
    cases = []
    for sigmas in (np.geomspace(1, 1e-9, 10), np.geomspace(1, 1e-14, 32)):
        A = matrix_with_spectrum(rng, 48, sigmas.size, sigmas)
        b = A @ random_complex(rng, sigmas.size)
        b *= 1 + 0.05 * rng.standard_normal(48)
        cases.append((compute_svd(A), b))
    for pid, sigma in (("spectral", 1e-2), ("laplace", 1e-3)):
        preset = load_preset(pid)
        samples = preset.samples(0)
        system = build_collocation_system(preset.kernel, samples, preset.nodes())
        u = synthesize(preset.kernel, preset.truth, samples)
        cases.append((compute_svd(system.normalized), add_noise(u, sigma, 0).noisy))
    return cases


class TestNegCurvature:
    RTOL = 1e-12  # summation order differs from the loop; gap <= 3.1e-14 on the benchmark cells

    @pytest.mark.parametrize("case", range(4))
    def test_grid_matches_loop(self, curvature_cases, case):
        factors, rhs = curvature_cases[case]
        ref_args, args = curvature_args(factors, rhs)
        grid = lcurve_gamma_grid(factors, 200)
        got = _neg_curvature(grid, *args)
        assert got.shape == grid.shape
        np.testing.assert_allclose(got, neg_curvature_loop(grid, *ref_args), rtol=self.RTOL)

    @pytest.mark.parametrize("case", range(4))
    def test_scalar_bitwise_equal_to_loop(self, curvature_cases, case):
        factors, rhs = curvature_cases[case]
        ref_args, args = curvature_args(factors, rhs)
        for g in lcurve_gamma_grid(factors, 37):
            got = _neg_curvature(g, *args)
            assert isinstance(got, float)
            assert got == neg_curvature_loop(g, *ref_args)
            assert _neg_curvature(float(g), *args) == got


def counted(func):
    """`func` wrapped to record its arguments, and the list they go to."""
    calls = []

    def wrapped(x):
        calls.append(x)
        return func(x)

    return wrapped, calls


class TestGolden:
    """`_brent`: golden-section steps accelerated by parabolic interpolation.

    The class keeps the name of the golden-section port `_brent` replaced,
    so the ids of these cases stay the same across that change.
    """

    @pytest.mark.parametrize(
        "func, brack",
        [
            (lambda x: (x - 1.0) ** 2, (-1.0, 0.5, 2.0)),
            (lambda x: np.cosh(x - 0.3) + 0.1 * x**3, (-2.0, 0.0, 1.5)),
            (lambda x: abs(x + 1e-3), (-0.5, 0.01, 0.2)),
        ],
    )
    def test_matches_scipy(self, func, brack):
        ours, our_calls = counted(func)
        theirs, their_calls = counted(func)
        bracket_values = [func(x) for x in brack]
        assert _brent(ours, *brack, *bracket_values) == brent(theirs, brack=brack)
        assert len(our_calls) == len(their_calls) - 3  # the bracket values are given

    @pytest.mark.parametrize("case", range(4))
    def test_matches_scipy_on_lcurve_objective(self, curvature_cases, case):
        factors, rhs = curvature_cases[case]
        _, args = curvature_args(factors, rhs)
        log_grid = np.log(lcurve_gamma_grid(factors, 200))
        neg = _neg_curvature(np.exp(log_grid), *args)
        idx = int(np.argmin(neg))
        assert 0 < idx < log_grid.size - 1
        brack = (log_grid[idx - 1], log_grid[idx], log_grid[idx + 1])

        def objective(lg):
            return _neg_curvature(np.exp(lg), *args)

        ours, our_calls = counted(objective)
        theirs, their_calls = counted(objective)
        bracket_values = [objective(x) for x in brack]
        assert _brent(ours, *brack, *bracket_values) == brent(theirs, brack=brack)
        assert len(our_calls) == len(their_calls) - 3

    @pytest.mark.parametrize("brack", [(0.0, 2.0, 1.0), (2.0, 0.5, -1.0), (0.0, 0.0, 1.0), (1.5, 2.0, 3.0)])
    def test_non_bracketing_triple_rejected(self, brack):
        values = [(x - 1.0) ** 2 for x in brack]
        with pytest.raises(ValueError):
            _brent(lambda x: (x - 1.0) ** 2, *brack, *values)


# Seed 0 of every preset at its default sigmas, smallest gamma first: the
# gamma lcurve_select returns and the negative curvature there, as
# float.hex().  The gamma moves when round-off flips a comparison inside
# Brent's method; the curvature shows any round-off change in the L-curve,
# and fails here, not only in the byte-compared oracle reports.
PINNED_CORNERS = {
    "rational": (
        ("0x1.56be084e2d162p-9", "-0x1.659e6bc9942c2p+3"),
        ("0x1.ed5e625b8af90p-6", "-0x1.6f1efd32bc20cp+3"),
        ("0x1.3a1ae5c0ee7c2p-2", "-0x1.2d74a8106d62bp+2"),
    ),
    "spectral": (
        ("0x1.8eacce4f0a3e4p-10", "-0x1.827dd21920cdap+3"),
        ("0x1.03f9345c65c27p-6", "-0x1.57435faa41ebap+2"),
        ("0x1.0051f4c7ff585p-2", "-0x1.9d225d4200117p+1"),
    ),
    "fourier": (
        ("0x1.bd86e6f083c0dp-10", "-0x1.bbad6172cc58bp+4"),
        ("0x1.73d2234aba49dp-7", "-0x1.1f22bf3034a90p+8"),
        ("0x1.b4e17115d2850p-4", "-0x1.389695db7a768p+4"),
    ),
    "laplace": (
        ("0x1.8500d7d91fa4dp-11", "-0x1.f90316e45a3cfp+7"),
        ("0x1.c18c96264472ep-8", "-0x1.4a198a0f2ba67p+5"),
        ("0x1.0e70b590c4db9p-3", "-0x1.e1e5b2cb61204p+2"),
    ),
    "deconv": (
        ("0x1.a7b5a4cc1d8adp-10", "-0x1.86acef877ae18p+2"),
        ("0x1.418856d631e17p-5", "-0x1.2fb6ab8921f1fp+2"),
        ("0x1.9fe43ae2a2b2cp-2", "-0x1.68d5608ba77e7p+3"),
    ),
}

# The same corners from golden-section refinement, pinned until Brent's
# method replaced it; the Brent corners agree with them within the stated
# numerical contract (tools/oracle.py --rtol).
PINNED_CORNERS_GOLDEN = {
    "rational": (
        ("0x1.56be07fcef835p-9", "-0x1.659e6bc9942c5p+3"),
        ("0x1.ed5e62c39c027p-6", "-0x1.6f1efd32bc214p+3"),
        ("0x1.3a1ae5825892bp-2", "-0x1.2d74a8106d62dp+2"),
    ),
    "spectral": (
        ("0x1.8eaccd7175608p-10", "-0x1.827dd21920ce1p+3"),
        ("0x1.03f93415ff0b5p-6", "-0x1.57435faa41ebdp+2"),
        ("0x1.0051f530af565p-2", "-0x1.9d225d420011cp+1"),
    ),
    "fourier": (
        ("0x1.bd86e6613274cp-10", "-0x1.bbad6172cc586p+4"),
        ("0x1.73d222bac391cp-7", "-0x1.1f22bf3034a82p+8"),
        ("0x1.b4e170edaf145p-4", "-0x1.389695db7a769p+4"),
    ),
    "laplace": (
        ("0x1.8500d7baa30a9p-11", "-0x1.f90316e45a3d2p+7"),
        ("0x1.c18c957133489p-8", "-0x1.4a198a0f2ba6dp+5"),
        ("0x1.0e70b578d934ep-3", "-0x1.e1e5b2cb6120ap+2"),
    ),
    "deconv": (
        ("0x1.a7b5a4d3ca2f7p-10", "-0x1.86acef877ae16p+2"),
        ("0x1.418856c33c398p-5", "-0x1.2fb6ab8921f20p+2"),
        ("0x1.9fe43b171850ap-2", "-0x1.68d5608ba77e8p+3"),
    ),
}
CONTRACT_RTOL = 1e-6


@pytest.mark.parametrize("preset_id", sorted(PINNED_CORNERS))
def test_lcurve_corner_bitwise_pinned(preset_id, monkeypatch):
    corners = []

    def spy(factors, rhs, **kwargs):
        sol = lcurve_select(factors, rhs, **kwargs)
        _, args = curvature_args(factors, rhs)
        corners.append((sol.gamma, _neg_curvature(sol.gamma, *args)))
        return sol

    monkeypatch.setattr(spikerec.eigenmatrix, "lcurve_select", spy)
    preset = load_preset(preset_id)
    records = run_sweep(preset, [make_method("lcurve", n_x=preset.truth.n_x)], [0])
    assert [r.failed_stage for r in records] == [None] * 3
    got = tuple((float(g).hex(), float(k).hex()) for g, k in sorted(corners))
    assert got == PINNED_CORNERS[preset_id]


@pytest.mark.parametrize("preset_id", sorted(PINNED_CORNERS))
def test_brent_corners_within_contract_of_golden(preset_id):
    for new, old in zip(PINNED_CORNERS[preset_id], PINNED_CORNERS_GOLDEN[preset_id]):
        got, want = [float.fromhex(x) for x in new], [float.fromhex(x) for x in old]
        np.testing.assert_allclose(got, want, rtol=CONTRACT_RTOL, atol=0)


def test_import_leaves_scipy_optimize_unloaded():
    src = Path(spikerec.__file__).resolve().parents[1]
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import spikerec, spikerec.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
