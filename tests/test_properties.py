"""Invariants the maths guarantees, checked over random cells."""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikerec import (
    PreparedSystem, add_noise, load_preset, make_method, recover, run_sweep, synthesize
)
from spikerec.kernels import (
    PRESET_IDS, CollocationNodes, Observations, SampleSet, SpikeSignal, _check_points
)
from spikerec.regularization import tikhonov_solve

RTOL = 1e-12  # round-off allowance on the monotone norms
PERM_RTOL = 1e-6  # round-off allowance on a recovery from reordered samples
REAL_RTOL = 1e-6  # real against complex arithmetic on the same real data


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    preset_id=st.sampled_from(PRESET_IDS),
    method=st.sampled_from(("lcurve", "pinv")),
    sigma_index=st.integers(0, 2),
    seed=st.integers(0, 39),
    k=st.integers(-30, 30),
)
def test_scaling_observations_scales_only_the_weights(preset_id, method, sigma_index, seed, k):
    # The recovery is linear in u and the L-curve corner is scale-invariant,
    # and a power of two scales every floating-point step exactly, so
    # scaling u by c = 2**k scales the weights by c and changes nothing else.
    preset = load_preset(preset_id)
    samples = preset.samples(seed)
    prepared = PreparedSystem(preset.kernel, samples, preset.nodes())
    u = synthesize(preset.kernel, preset.truth, samples)
    obs = add_noise(u, preset.sigma_list[sigma_index], seed)
    c = 2.0**k
    scaled = Observations(c * obs.noisy, obs.sigma, obs.seed)
    config = make_method(method)
    base = recover(config, prepared, obs)
    result = recover(config, prepared, scaled)
    assert result.gamma_or_tol == base.gamma_or_tol
    np.testing.assert_array_equal(result.locations, base.locations)
    np.testing.assert_array_equal(result.weights, c * base.weights)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    preset_id=st.sampled_from(PRESET_IDS),
    sigma_index=st.integers(0, 2),
    seed=st.integers(0, 4),
    log_gammas=st.lists(st.floats(-14.0, 1.0), min_size=2, max_size=20),
)
def test_tikhonov_norms_monotone_in_gamma(preset_id, sigma_index, seed, log_gammas):
    # Each filter factor s^2 / (s^2 + gamma^2) falls as gamma rises, so the
    # residual norm cannot fall and the solution norm cannot rise.
    preset = load_preset(preset_id)
    samples = preset.samples(seed)
    factors = PreparedSystem(preset.kernel, samples, preset.nodes()).factors
    u = synthesize(preset.kernel, preset.truth, samples)
    rhs = add_noise(u, preset.sigma_list[sigma_index], seed).noisy
    s1 = factors.singular_values[0]
    sols = [tikhonov_solve(factors, rhs, s1 * 10.0**t) for t in sorted(log_gammas)]
    for low, high in zip(sols, sols[1:]):
        assert high.residual_norm >= low.residual_norm * (1 - RTOL)
        assert high.solution_norm <= low.solution_norm * (1 + RTOL)


def _best_assignment(a, b):
    """The permutation p minimising max |a_k - b_p(k)|."""
    return list(min(permutations(range(b.size)), key=lambda p: np.abs(a - b[list(p)]).max()))


def _matched_gap(a, b, p=None):
    """Largest |a_k - b_p(k)| under the assignment p (by default the best one),
    relative to max |a|."""
    p = _best_assignment(a, b) if p is None else p
    return np.abs(a - b[p]).max() / np.abs(a).max()


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    preset_id=st.sampled_from(PRESET_IDS),
    method=st.sampled_from(("lcurve", "pinv")),
    sigma_index=st.integers(0, 2),
    seed=st.integers(0, 39),
    perm_seed=st.integers(0, 2**32 - 1),
)
def test_permuting_samples_keeps_the_recovery(preset_id, method, sigma_index, seed, perm_seed):
    # Reordering the samples, and u with them, permutes the rows of G-hat
    # and of A: the singular values, the spectral filters and the ESPRIT
    # shift operator are unchanged up to round-off.  Weights are not
    # compared, since high-noise pinv on spectral amplifies that round-off.
    preset = load_preset(preset_id)
    samples = preset.samples(seed)
    u = synthesize(preset.kernel, preset.truth, samples)
    obs = add_noise(u, preset.sigma_list[sigma_index], seed)
    perm = np.random.default_rng(perm_seed).permutation(samples.n_s)
    moved = SampleSet(samples.points[perm])
    moved_obs = Observations(obs.noisy[perm], obs.sigma, obs.seed)
    config = make_method(method)
    base = recover(config, PreparedSystem(preset.kernel, samples, preset.nodes()), obs)
    result = recover(config, PreparedSystem(preset.kernel, moved, preset.nodes()), moved_obs)
    np.testing.assert_allclose(result.gamma_or_tol, base.gamma_or_tol, rtol=PERM_RTOL)
    assert _matched_gap(base.locations, result.locations) <= PERM_RTOL


def _promoted(preset, seed, sigma, dtype):
    """The prepared system and the observation of one cell, with the samples, nodes,
    truth and u cast to `dtype`."""
    samples = SampleSet(preset.samples(seed).points.astype(dtype))
    nodes = CollocationNodes(preset.nodes().nodes.astype(dtype))
    truth = SpikeSignal(*(a.astype(dtype) for a in (preset.truth.locations, preset.truth.weights)))
    u = synthesize(preset.kernel, truth, samples).astype(dtype)
    return PreparedSystem(preset.kernel, samples, nodes), add_noise(u, sigma, seed)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    preset_id=st.sampled_from(("laplace", "deconv")),
    method=st.sampled_from(("lcurve", "pinv")),
    sigma_index=st.integers(0, 2),
    seed=st.integers(0, 39),
)
def test_real_arithmetic_is_the_same_maths(preset_id, method, sigma_index, seed):
    # Laplace and deconvolution data is real, so G-hat, its SVD, M, the
    # Krylov matrix and the weight solve are float64.  The same data promoted
    # to complex128 takes complex LAPACK instead; only round-off may differ.
    preset = load_preset(preset_id)
    sigma = preset.sigma_list[sigma_index]
    real, real_obs = _promoted(preset, seed, sigma, np.float64)
    cplx, cplx_obs = _promoted(preset, seed, sigma, np.complex128)
    for prepared, dtype in ((real, np.float64), (cplx, np.complex128)):
        factors = prepared.factors
        arrays = (prepared.system.normalized, factors.left, factors.right, factors.singular_values)
        assert [a.dtype for a in arrays] == [dtype, dtype, dtype, np.float64]
    config = make_method(method)
    got = recover(config, real, real_obs)
    want = recover(config, cplx, cplx_obs)
    assert got.locations.dtype == got.weights.dtype == np.float64
    np.testing.assert_allclose(got.gamma_or_tol, want.gamma_or_tol, rtol=REAL_RTOL)
    p = _best_assignment(want.locations, got.locations)
    assert _matched_gap(want.locations, got.locations, p) <= REAL_RTOL
    assert _matched_gap(want.weights, got.weights, p) <= REAL_RTOL


@pytest.mark.parametrize("preset_id", ("rational", "spectral", "fourier"))
def test_complex_kernels_stay_complex(preset_id):
    # complex samples (rational, spectral) or a complex kernel (fourier)
    preset = load_preset(preset_id)
    prepared = PreparedSystem(preset.kernel, preset.samples(0), preset.nodes())
    arrays = (prepared.system.normalized, prepared.factors.left, prepared.factors.right)
    assert [a.dtype for a in arrays] == [np.complex128] * 3


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    preset_id=st.sampled_from(PRESET_IDS),
    sigma_index=st.integers(0, 2),
    seed=st.integers(0, 39),
)
def test_first_user_of_a_shared_piece_changes_no_result(preset_id, sigma_index, seed):
    # The first cell on a sample set builds the collocation system, its SVD
    # and its method's shared piece; the others reuse them.  Running the
    # methods in reverse order changes which cell builds what, and must
    # change nothing in the records but their wall times.
    preset = load_preset(preset_id)
    methods = [make_method("lcurve"), make_method("pinv"), make_method("fixed-gamma", gamma=1e-3)]
    sigmas = [preset.sigma_list[sigma_index]]
    forward = run_sweep(preset, methods, [seed], sigmas)
    backward = run_sweep(preset, methods[::-1], [seed], sigmas)
    # repr writes every bit of a float, -0.0 and NaN included
    assert [repr({**vars(r), "wall_time_ms": 0.0}) for r in backward] == [
        repr({**vars(r), "wall_time_ms": 0.0}) for r in forward
    ]


def _point_sets():
    """Finite real or complex 1-D arrays, some with an exact repeat of an
    entry or a -0.0 beside a 0.0 (in either part of a complex value)."""
    part = st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 1e300)) | st.floats(
        -1e6, 1e6, allow_nan=False
    )
    real = st.lists(part, min_size=1, max_size=12).map(np.array)
    complex_ = st.lists(st.builds(complex, part, part), min_size=1, max_size=12).map(np.array)

    @st.composite
    def injected(draw):
        a = draw(real | complex_)
        i, j = draw(st.integers(0, a.size - 1)), draw(st.integers(0, a.size))
        return np.insert(a, j, a[i])

    signed_zero = st.sampled_from((
        np.array([0.0, -0.0]), np.array([1.0, -0.0, 2.0, 0.0]),
        np.array([1j, complex(-0.0, 1.0)]), np.array([complex(2.0, 0.0), complex(2.0, -0.0)]),
    ))
    return real | complex_ | injected() | signed_zero


@settings(derandomize=True, deadline=None, max_examples=300)
@given(points=_point_sets())
def test_point_check_rejects_what_unique_would(points):
    # the sort-based check replaces `len(np.unique(a)) != a.size`; on finite
    # input both must reject exactly the same arrays
    repeated = len(np.unique(points)) != points.size
    if repeated:
        with pytest.raises(ValueError, match="pairwise distinct"):
            _check_points(points, "points")
    else:
        _check_points(points, "points")
