import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brent

import spikerec
import spikerec.eigenmatrix
import spikerec.regularization
from spikerec.errors import AllTruncated, FlatCurveWarning, NonFinite, RankDeficient
from spikerec.experiments import load_preset, make_method, run_sweep
from spikerec.kernels import PRESET_IDS, add_noise, build_collocation_system, synthesize
from spikerec.regularization import (
    LCURVE_FLOOR,
    LCURVE_GRID,
    SvdFactors,
    _filter_terms,
    _grid_curvature,
    _neg_curvature,
    _parabolic_min,
    compute_svd,
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
        with pytest.raises(NonFinite):
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("solve", [lambda f, b: tikhonov_solve(f, b, 0.1), lcurve_select])
    def test_nonfinite_rhs_rejected(self, solve, bad):
        # one non-finite entry would otherwise make every entry of v NaN
        rng = np.random.default_rng(14)
        f = compute_svd(random_complex(rng, (12, 5)))
        b = random_complex(rng, 12)
        b[3] = bad
        with pytest.raises(NonFinite, match="finite"):
            solve(f, b)

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


def documented_grid(factors):
    """lcurve_select's scan grid as its docstring states it."""
    s = factors.singular_values
    return np.geomspace(max(s[-1], LCURVE_FLOOR * s[0]), s[0], LCURVE_GRID)


class TestLcurve:
    def test_gamma_within_grid_bounds(self):
        rng = np.random.default_rng(9)
        A = matrix_with_spectrum(rng, 30, 10, np.geomspace(1, 1e-9, 10))
        f = compute_svd(A)
        b = A @ random_complex(rng, 10)
        b *= 1 + 0.05 * rng.standard_normal(30)
        sol = lcurve_select(f, b)
        grid = f.lcurve_table[0]
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
        assert sol.residual_norm == 0.0 and sol.solution_norm == 0.0

    def test_rank_one_raises_every_time(self):
        # a table build that fails is not cached: each access raises anew
        f = compute_svd(np.outer(np.arange(1.0, 6.0), np.ones(3)))
        assert f.rank == 1
        for _ in range(2):
            with pytest.raises(RankDeficient, match="at least two singular values"):
                f.lcurve_table
        assert "lcurve_table" not in vars(f)

    @pytest.mark.parametrize("case", range(4))
    def test_default_table_is_lcurve_grid(self, curvature_cases, case):
        # the grid size has one owner, LCURVE_GRID, and the table is read
        # only, built once per factors and the same bits on every later call
        factors, rhs = curvature_cases[case]
        fresh = SvdFactors(factors.left, factors.singular_values, factors.right)
        own = lcurve_select(fresh, rhs)
        grid, terms = factors.lcurve_table
        assert factors.lcurve_table is factors.lcurve_table
        assert not (grid.flags.writeable or terms.flags.writeable)
        assert terms.shape == (2, LCURVE_GRID, factors.rank)
        assert grid.tobytes() == documented_grid(factors).tobytes()
        s = factors.singular_values
        assert terms.tobytes() == _filter_terms(grid, s * s).tobytes()
        shared = lcurve_select(factors, rhs)
        assert own.gamma.hex() == shared.gamma.hex()
        assert own.v.tobytes() == shared.v.tobytes()
        assert own.residual_norm == shared.residual_norm
        assert own.solution_norm == shared.solution_norm
        # the corner's solution is the fixed-gamma solution at its gamma
        fixed = tikhonov_solve(factors, rhs, shared.gamma)
        assert fixed.v.tobytes() == shared.v.tobytes()
        assert fixed.residual_norm == shared.residual_norm
        assert fixed.solution_norm == shared.solution_norm


def test_one_table_build_per_factors(monkeypatch):
    # spectral's sample points do not depend on the seed, so its 120 lcurve
    # records of seeds 0-39 share one prepared system and one table
    grid_calls = []
    real = spikerec.regularization._filter_terms

    def spy(gamma, s_sq):
        if isinstance(gamma, np.ndarray):
            grid_calls.append(gamma.size)
        return real(gamma, s_sq)

    monkeypatch.setattr(spikerec.regularization, "_filter_terms", spy)
    records = run_sweep(load_preset("spectral"), [make_method("lcurve")], seeds=range(40))
    assert len(records) == 120
    assert all(r.failed_stage is None for r in records)
    assert grid_calls == [LCURVE_GRID]


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


def neg_curvature_six_row(grid, s, abs_beta_sq, abs_xi_sq, perp_sq):
    """The vectorised six-row form that the three-row basis replaced, kept as
    its reference: a (6, grid, r) stack of filter-factor products, weighted
    by (|xi|^2, |beta|^2) * 3 and summed over r.

    1 - f is formed as gamma^2 / (s^2 + gamma^2).  As 1.0 - f (the loop's
    form) it loses every digit where s >> gamma: over 400 random spectra
    drawn as in test_matches_six_row_reference, that moved the curvature by
    up to 3e-8 of its maximum, against 4.6e-15 for this form and 4.0e-15
    for the three-row basis, each measured against the loop in extended
    precision.
    """
    g = grid[:, None]
    f = s**2 / (s**2 + g * g)
    cf = g * g / (s**2 + g * g)
    f1 = -2.0 * f * cf / g
    f2 = -f1 * (3.0 - 4.0 * f) / g
    terms = np.array((f * f, cf * cf, f * f1, cf * f1, f1 * f1 + f * f2, cf * f2 - f1 * f1))
    weights = np.array((abs_xi_sq, abs_beta_sq) * 3)[:, None, :]
    eta_sq, rho_sq, phi, psi, dphi, dpsi = (terms * weights).sum(axis=-1)
    eta = np.sqrt(eta_sq)
    rho = np.sqrt(rho_sq + perp_sq)
    deta = phi / eta
    drho = -psi / rho
    ddeta = dphi / eta - deta * (deta / eta)
    ddrho = -dpsi / rho - drho * (drho / rho)
    dlogeta = deta / eta
    dlogrho = drho / rho
    ddlogeta = ddeta / eta - dlogeta * dlogeta
    ddlogrho = ddrho / rho - dlogrho * dlogrho
    return -(dlogrho * ddlogeta - ddlogrho * dlogeta) / (
        dlogrho * dlogrho + dlogeta * dlogeta
    ) ** 1.5


def neg_curvature_long_double(grid, s, abs_beta_sq, perp_sq):
    """The negative curvature in np.longdouble, rounded to double: the sums
    S(k, m) = sum s^2k d^m |beta|^2 and Hansen's form (Discrete Inverse
    Problems, SIAM 2010, ch. 5) with eta' kept as a factor."""
    ld = np.longdouble
    g = grid.astype(ld)
    s_sq, a = s.astype(ld) ** 2, abs_beta_sq.astype(ld)
    d = ld(1) / (s_sq + g[:, None] ** 2)
    eta = (d * d * s_sq * a).sum(axis=1)
    rho = g**4 * (d * d * a).sum(axis=1) + ld(perp_sq)
    deta = -4 * g * (d**3 * s_sq * a).sum(axis=1)
    kappa = (2 * eta * rho / deta) * (g**2 * deta * rho + 2 * g * eta * rho + g**4 * eta * deta)
    return (kappa / (g**4 * eta**2 + rho**2) ** ld(1.5)).astype(float)


def curvature_args(factors, rhs):
    """The loop reference's arguments and _neg_curvature's, for one system."""
    s = factors.singular_values
    beta = factors.left.conj().T @ rhs
    abs_beta_sq = np.abs(beta) ** 2
    perp_sq = max(float(np.linalg.norm(rhs) ** 2 - abs_beta_sq.sum()), 0.0)
    abs_xi_sq = abs_beta_sq / s**2
    s_sq = s * s
    weights = np.stack((abs_beta_sq, s_sq * abs_beta_sq), axis=1)
    return (s, abs_beta_sq, abs_xi_sq, perp_sq), (s_sq, weights, perp_sq)


def grid_curvature(grid, s_sq, weights, perp_sq):
    """_grid_curvature on a table built for this grid: the grid counterpart
    of _neg_curvature, taking the same arguments."""
    return _grid_curvature(grid, _filter_terms(grid, s_sq), weights, perp_sq)


# the random spectra and right-hand sides of the curvature and corner properties
SPECTRA = dict(
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(2, 40),
    log_floor=st.floats(-14.0, -1.0),
    noise=st.floats(1e-6, 0.5),
    real=st.booleans(),
)


def random_system(seed, rank, log_floor, noise, real):
    """(factors, rhs): rank singular values log-uniform in [10^log_floor, 1],
    and a consistent rhs with relative noise `noise`, real or complex."""
    rng = np.random.default_rng(seed)
    sigmas = np.sort(10.0 ** rng.uniform(log_floor, 0.0, rank))[::-1]
    A = matrix_with_spectrum(rng, rank + 8, rank, sigmas)
    b = A @ random_complex(rng, rank)
    b = b + noise * np.linalg.norm(b) / np.sqrt(b.size) * random_complex(rng, b.size)
    if real:
        A, b = A.real, b.real
    return compute_svd(A), b


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
    # The closed form sums s^2k d^m |beta|^2 and combines the sums, where the
    # loop sums filter-factor products, so the two differ in round-off.
    # Pointwise, where the curvature nears zero, the relative gap reaches
    # 2e-12 (9.8e-17 absolute at |kappa| = 4.7e-5), so every comparison is
    # scaled by max|kappa| over the grid.
    SCALED_TOL = 1e-12  # of max|kappa| over the LCURVE_GRID grid
    # ulps of max|kappa| against the long-double reference; the worst over
    # 2000 random spectra drawn as below is 14.5 for the closed form (grid
    # and scalar), 19.5 with eta' uncancelled and 27.6 for the three-row
    # derivative chain it replaced
    ULPS = 20

    @pytest.mark.parametrize("case", range(4))
    def test_grid_matches_loop(self, curvature_cases, case):
        factors, rhs = curvature_cases[case]
        ref_args, args = curvature_args(factors, rhs)
        grid = factors.lcurve_table[0]
        got = grid_curvature(grid, *args)
        want = neg_curvature_loop(grid, *ref_args)
        assert got.shape == grid.shape
        assert np.max(np.abs(got - want)) <= self.SCALED_TOL * np.max(np.abs(want))

    @pytest.mark.parametrize("case", range(4))
    def test_scalar_matches_loop(self, curvature_cases, case):
        # the corner refinement's scalar path, against the loop at 37 points
        factors, rhs = curvature_cases[case]
        ref_args, args = curvature_args(factors, rhs)
        grid = factors.lcurve_table[0]
        scale = np.max(np.abs(neg_curvature_loop(grid, *ref_args)))
        for g in np.geomspace(grid[0], grid[-1], 37):
            got = _neg_curvature(g, *args)
            assert isinstance(got, float)
            assert abs(got - neg_curvature_loop(g, *ref_args)) <= self.SCALED_TOL * scale
            assert _neg_curvature(float(g), *args) == got

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(**SPECTRA)
    def test_matches_six_row_reference(self, seed, rank, log_floor, noise, real):
        # over random spectra and right-hand sides, the grid and the scalar
        # path agree with the six-row filter-product form within SCALED_TOL
        factors, b = random_system(seed, rank, log_floor, noise, real)
        ref_args, args = curvature_args(factors, b)
        grid = factors.lcurve_table[0]
        want = neg_curvature_six_row(grid, *ref_args)
        tol = self.SCALED_TOL * np.max(np.abs(want))
        assert np.max(np.abs(grid_curvature(grid, *args) - want)) <= tol
        for g, k in zip(grid[::20], want[::20]):
            assert abs(_neg_curvature(float(g), *args) - k) <= tol

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(**SPECTRA)
    def test_closed_form_within_ulps_of_long_double(self, seed, rank, log_floor, noise, real):
        # the closed form in double lies within a few ulps of max|kappa| of
        # Hansen's form, eta' uncancelled, evaluated in extended precision
        factors, b = random_system(seed, rank, log_floor, noise, real)
        (s, a, _, perp_sq), args = curvature_args(factors, b)
        grid = factors.lcurve_table[0]
        want = neg_curvature_long_double(grid, s, a, perp_sq)
        tol = self.ULPS * np.finfo(float).eps * np.max(np.abs(want))
        assert np.max(np.abs(grid_curvature(grid, *args) - want)) <= tol
        for g, k in zip(grid[::10], want[::10]):
            assert abs(_neg_curvature(float(g), *args) - k) <= tol


@pytest.mark.parametrize("preset_id", PRESET_IDS)
def test_shared_table_curvature_bitwise(preset_id):
    # one table per system serves every rhs: the same bits as the grid
    # evaluation that builds the two-row table per rhs, table untouched
    preset = load_preset(preset_id)
    samples = preset.samples(0)
    factors = spikerec.eigenmatrix.PreparedSystem(preset.kernel, samples, preset.nodes()).factors
    grid, terms = factors.lcurve_table
    assert grid.tobytes() == documented_grid(factors).tobytes()
    before = terms.copy()
    u = synthesize(preset.kernel, preset.truth, samples)
    for sigma in preset.sigma_list:
        _, args = curvature_args(factors, add_noise(u, sigma, 0).noisy)
        got = _grid_curvature(grid, terms, *args[1:])
        assert got.tobytes() == grid_curvature(grid, *args).tobytes()
    assert terms.tobytes() == before.tobytes()


def counted(func):
    """`func` wrapped to record its arguments, and the list they go to."""
    calls = []

    def wrapped(x):
        calls.append(x)
        return func(x)

    return wrapped, calls


class TestParabolicMin:
    """`_parabolic_min`: successive parabolic interpolation in a bracket."""

    def test_quadratic_in_one_step(self):
        # the first vertex is the minimum; the second, on it, ends the loop
        func, calls = counted(lambda x: (x - 1.0) ** 2)
        brack = [-1.0, 0.5, 2.0]
        assert _parabolic_min(func, brack, [(x - 1.0) ** 2 for x in brack]) == 1.0
        assert calls == [1.0, 1.0]

    @pytest.mark.parametrize("values", [[1.0, 1.0, 1.0], [2.0, 1.0, np.nan], [np.inf, 1.0, 2.0]])
    def test_no_vertex_no_step(self, values):
        func, calls = counted(lambda x: (x - 1.0) ** 2)
        assert _parabolic_min(func, [0.0, 0.5, 2.0], values) == 0.5
        assert calls == []

    def test_cap_bounds_a_slow_bracket(self):
        # on a wide bracket an endpoint sticks and convergence is linear:
        # the loop stops at its 20-step cap, at the lowest point it evaluated
        def f(x):
            return np.exp(x) - 2.0 * x

        func, calls = counted(f)
        brack = [0.0, 0.5, 2.0]
        got = _parabolic_min(func, brack, [f(x) for x in brack])
        assert len(calls) == 20
        assert f(got) == min(map(f, calls)) and abs(got - np.log(2.0)) < 1e-5

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(**SPECTRA)
    # two corners that one tiny step does not settle: on the first the steps
    # only halve, for all 20 (an 8-step cap leaves gamma 2.3e-4 off); on the
    # second, stopping at the first vertex within tolerance of the middle
    # point leaves gamma 4.1e-5 off; on the third, a flat corner, the two
    # gammas differ by 1.7e-6 and their curvatures not at all
    @example(seed=687202018, rank=34, log_floor=-13.302399871238626, noise=0.40573142565652964, real=False)
    @example(seed=203959352, rank=20, log_floor=-4.491683501952783, noise=4.949193757853545e-06, real=False)
    @example(seed=1077527149, rank=2, log_floor=-12.622405918515122, noise=0.09655621254116521, real=False)
    def test_corner_within_contract_of_brent(self, seed, rank, log_floor, noise, real):
        # lcurve_select's corner against scipy.optimize.brent on the same
        # objective and grid bracket: gamma within CONTRACT_RTOL, or on a
        # corner too flat for that, the negative curvature within 4 eps; and
        # the negative curvature at or below the grid point's
        factors, b = random_system(seed, rank, log_floor, noise, real)
        _, args = curvature_args(factors, b)
        grid = factors.lcurve_table[0]
        neg = grid_curvature(grid, *args)
        idx = int(np.argmin(neg))
        if not 0 < idx < grid.size - 1:
            return  # a flagged corner is not refined

        def objective(lg):
            return _neg_curvature(float(np.exp(lg)), *args)

        want = np.exp(brent(objective, brack=tuple(np.log(grid[idx - 1 : idx + 2]))))
        got = lcurve_select(factors, b).gamma
        neg_got = _neg_curvature(got, *args)
        if abs(got - want) > CONTRACT_RTOL * want:
            neg_want = _neg_curvature(want, *args)
            assert abs(neg_got - neg_want) <= 4 * np.finfo(float).eps * abs(neg_want)
        assert neg_got <= neg[idx]


def lcurve_corners(preset_id):
    """Seed 0's L-curve corners at the preset's default sigmas, smallest gamma
    first: the gamma lcurve_select returns and the negative curvature there,
    as float.hex().  Patches spikerec.eigenmatrix, so it runs in a process
    of its own (see one_thread_corners)."""
    corners = []

    def spy(factors, rhs):
        sol = lcurve_select(factors, rhs)
        _, args = curvature_args(factors, rhs)
        corners.append((sol.gamma, _neg_curvature(sol.gamma, *args)))
        return sol

    spikerec.eigenmatrix.lcurve_select = spy
    preset = load_preset(preset_id)
    records = run_sweep(preset, [make_method("lcurve", n_x=preset.truth.n_x)], [0])
    assert [r.failed_stage for r in records] == [None] * 3
    return [[float(g).hex(), float(k).hex()] for g, k in sorted(corners)]


ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@pytest.fixture(scope="module")
def one_thread_corners():
    """lcurve_corners of every preset, from a fresh interpreter with BLAS on
    one thread: the split of spectral's 256-row products, and so the last
    bits of its corners, depends on the thread count."""
    src = str(Path(spikerec.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, **ONE_BLAS_THREAD, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    out = subprocess.run(
        [sys.executable, __file__, *PRESET_IDS], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


# lcurve_corners on one BLAS thread.  The gamma moves when round-off moves a
# parabola's vertex in the corner refinement; the curvature shows any
# round-off change in the L-curve, and fails here, not only in the
# byte-compared oracle reports.
PINNED_CORNERS = {
    "rational": (
        ("0x1.56be089d8cccdp-9", "-0x1.659e6bcaeaabdp+3"),
        ("0x1.ed5e62e04aadap-6", "-0x1.6f1efd32bf1bcp+3"),
        ("0x1.3a1ae5c3b69fdp-2", "-0x1.2d74a8106d62fp+2"),
    ),
    "spectral": (
        ("0x1.8eaccdc694664p-10", "-0x1.827dd21b0a647p+3"),
        ("0x1.03f9343cacf58p-6", "-0x1.57435faa40a67p+2"),
        ("0x1.0051f55caea93p-2", "-0x1.9d225d4200119p+1"),
    ),
    "fourier": (
        ("0x1.bd86e6e677817p-10", "-0x1.bbad6172cc58bp+4"),
        ("0x1.73d2234a3e8ccp-7", "-0x1.1f22bf3035553p+8"),
        ("0x1.b4e1710ec47fep-4", "-0x1.389695db7a780p+4"),
    ),
    "laplace": (
        ("0x1.8500d7afba34fp-11", "-0x1.f90316ef9e272p+7"),
        ("0x1.c18c9566da883p-8", "-0x1.4a198a0f82cefp+5"),
        ("0x1.0e70b5c775e49p-3", "-0x1.e1e5b2cb60decp+2"),
    ),
    "deconv": (
        ("0x1.a7b5a53d0d1eap-10", "-0x1.86acef870f279p+2"),
        ("0x1.418856d5d475cp-5", "-0x1.2fb6ab8925c4ep+2"),
        ("0x1.9fe43aa27d0dfp-2", "-0x1.68d5608ba7815p+3"),
    ),
}

# The same corners before successive parabolic interpolation replaced the
# port of scipy.optimize.Brent and perp_sq became ||rhs||^2 - sum(a) (it was
# ||rhs||^2 - ||U^H rhs||^2), on one BLAS thread; the parabolic corners agree
# with them within the numerical contract (tools/oracle.py --rtol).
PINNED_CORNERS_BRENT = {
    "rational": (
        ("0x1.56be084e2e774p-9", "-0x1.659e6bc9942c5p+3"),
        ("0x1.ed5e625b8c0ddp-6", "-0x1.6f1efd32bc209p+3"),
        ("0x1.3a1ae5c0ee7ddp-2", "-0x1.2d74a8106d62dp+2"),
    ),
    "spectral": (
        ("0x1.8eacce4f0a48cp-10", "-0x1.827dd21920d0dp+3"),
        ("0x1.03f9345c657e6p-6", "-0x1.57435faa41eacp+2"),
        ("0x1.0051f52031a8ep-2", "-0x1.9d225d4200117p+1"),
    ),
    "fourier": (
        ("0x1.bd86e6f0869d1p-10", "-0x1.bbad6172cc586p+4"),
        ("0x1.73d2234ab3674p-7", "-0x1.1f22bf3034a92p+8"),
        ("0x1.b4e17115ccecfp-4", "-0x1.389695db7a769p+4"),
    ),
    "laplace": (
        ("0x1.8500d7bcd6984p-11", "-0x1.f90316fa2f45cp+7"),
        ("0x1.c18c9625c3722p-8", "-0x1.4a198a0f82cedp+5"),
        ("0x1.0e70b590c41c6p-3", "-0x1.e1e5b2cb60deap+2"),
    ),
    "deconv": (
        ("0x1.a7b5a4cc10b57p-10", "-0x1.86acef8789b37p+2"),
        ("0x1.418856d624187p-5", "-0x1.2fb6ab89270a2p+2"),
        ("0x1.9fe43ae29c6a1p-2", "-0x1.68d5608ba781dp+3"),
    ),
}

# The same corners before the curvature moved to the closed form on the
# two-row (d^2, d^3) table (a (3, grid, r) table and the derivative chain of
# log eta and log rho), on one BLAS thread; the closed-form corners agree with
# them within the numerical contract (tools/oracle.py --rtol).
PINNED_CORNERS_THREE_ROW = {
    "rational": (
        ("0x1.56be084e307bbp-9", "-0x1.659e6bc9942c4p+3"),
        ("0x1.ed5e625b8c0c2p-6", "-0x1.6f1efd32bc207p+3"),
        ("0x1.3a1ae5c0d6af7p-2", "-0x1.2d74a8106d62dp+2"),
    ),
    "spectral": (
        ("0x1.8eacce4f0a62ep-10", "-0x1.827dd21920d0dp+3"),
        ("0x1.03f9345c67115p-6", "-0x1.57435faa41eaap+2"),
        ("0x1.0051f52029fc6p-2", "-0x1.9d225d4200119p+1"),
    ),
    "fourier": (
        ("0x1.bd86e6f085b1bp-10", "-0x1.bbad6172cc587p+4"),
        ("0x1.73d2234abdcc8p-7", "-0x1.1f22bf3034a8fp+8"),
        ("0x1.b4e17115d4686p-4", "-0x1.389695db7a766p+4"),
    ),
    "laplace": (
        ("0x1.8500d7bcb7c85p-11", "-0x1.f90316fa2f452p+7"),
        ("0x1.c18c9625c5164p-8", "-0x1.4a198a0f82ceep+5"),
        ("0x1.0e70b590c10b7p-3", "-0x1.e1e5b2cb60de9p+2"),
    ),
    "deconv": (
        ("0x1.a7b5a4cc14f12p-10", "-0x1.86acef8789b38p+2"),
        ("0x1.418856d617e7dp-5", "-0x1.2fb6ab89270a1p+2"),
        ("0x1.9fe43ae29da24p-2", "-0x1.68d5608ba7819p+3"),
    ),
}

# The same corners before the curvature moved to the three-row basis (a
# (6, grid, r) stack of filter-factor products), on one BLAS thread; the
# three-row corners agree with them within the numerical contract
# (tools/oracle.py --rtol).
PINNED_CORNERS_SIX_ROW = {
    "rational": (
        ("0x1.56be084e2d162p-9", "-0x1.659e6bc9942c2p+3"),
        ("0x1.ed5e625b8af90p-6", "-0x1.6f1efd32bc20cp+3"),
        ("0x1.3a1ae5c0ee7c2p-2", "-0x1.2d74a8106d62bp+2"),
    ),
    "spectral": (
        ("0x1.8eacce4f0a454p-10", "-0x1.827dd21920d13p+3"),
        ("0x1.03f9345c6580bp-6", "-0x1.57435faa41eafp+2"),
        ("0x1.0051f4c7ff585p-2", "-0x1.9d225d4200117p+1"),
    ),
    "fourier": (
        ("0x1.bd86e6f083c0dp-10", "-0x1.bbad6172cc58bp+4"),
        ("0x1.73d2234aba49dp-7", "-0x1.1f22bf3034a90p+8"),
        ("0x1.b4e17115d2850p-4", "-0x1.389695db7a768p+4"),
    ),
    "laplace": (
        ("0x1.8500d7bcc5c45p-11", "-0x1.f90316fa2f45ep+7"),
        ("0x1.c18c9625c3d6ap-8", "-0x1.4a198a0f82ceap+5"),
        ("0x1.0e70b590c39b3p-3", "-0x1.e1e5b2cb60de8p+2"),
    ),
    "deconv": (
        ("0x1.a7b5a4cc1400bp-10", "-0x1.86acef8789b39p+2"),
        ("0x1.418856d628209p-5", "-0x1.2fb6ab89270a1p+2"),
        ("0x1.9fe43ae29e93ep-2", "-0x1.68d5608ba781cp+3"),
    ),
}

# The same corners before laplace and deconv ran in real arithmetic (every
# preset was promoted to complex128), recorded with OpenBLAS on two threads;
# the real-arithmetic corners agree with them within the numerical contract
# (tools/oracle.py --rtol).
PINNED_CORNERS_COMPLEX = {
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
def test_lcurve_corner_bitwise_pinned(preset_id, one_thread_corners):
    got = tuple(tuple(corner) for corner in one_thread_corners[preset_id])
    assert got == PINNED_CORNERS[preset_id]


def _assert_corners_within_contract(corners, reference):
    for new, old in zip(corners, reference, strict=True):
        got, want = [float.fromhex(x) for x in new], [float.fromhex(x) for x in old]
        np.testing.assert_allclose(got, want, rtol=CONTRACT_RTOL, atol=0)


@pytest.mark.parametrize("preset_id", sorted(PINNED_CORNERS))
def test_parabolic_corners_within_contract_of_brent(preset_id):
    _assert_corners_within_contract(PINNED_CORNERS[preset_id], PINNED_CORNERS_BRENT[preset_id])


@pytest.mark.parametrize("preset_id", sorted(PINNED_CORNERS))
def test_brent_corners_within_contract_of_golden(preset_id):
    _assert_corners_within_contract(PINNED_CORNERS[preset_id], PINNED_CORNERS_GOLDEN[preset_id])


@pytest.mark.parametrize("preset_id", sorted(PINNED_CORNERS))
def test_real_corners_within_contract_of_complex(preset_id):
    _assert_corners_within_contract(PINNED_CORNERS[preset_id], PINNED_CORNERS_COMPLEX[preset_id])


@pytest.mark.parametrize("preset_id", sorted(PINNED_CORNERS))
def test_three_row_corners_within_contract_of_six_row(preset_id):
    _assert_corners_within_contract(PINNED_CORNERS[preset_id], PINNED_CORNERS_SIX_ROW[preset_id])


@pytest.mark.parametrize("preset_id", sorted(PINNED_CORNERS))
def test_closed_form_corners_within_contract_of_three_row(preset_id):
    _assert_corners_within_contract(PINNED_CORNERS[preset_id], PINNED_CORNERS_THREE_ROW[preset_id])


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


if __name__ == "__main__":
    print(json.dumps({preset_id: lcurve_corners(preset_id) for preset_id in sys.argv[1:]}))
