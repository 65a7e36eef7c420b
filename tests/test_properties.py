"""Invariants the maths guarantees, checked over random cells."""

from itertools import permutations

import numpy as np
from hypothesis import given, settings, strategies as st

from spikerec import add_noise, load_preset, make_method, prepare, recover, synthesize
from spikerec.kernels import PRESET_IDS, Observations, SampleSet
from spikerec.regularization import tikhonov_solve

RTOL = 1e-12  # round-off allowance on the monotone norms
PERM_RTOL = 1e-6  # round-off allowance on a recovery from reordered samples


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
    prepared = prepare(preset.kernel, samples, preset.nodes())
    u = synthesize(preset.kernel, preset.truth, samples)
    obs = add_noise(u, preset.sigma_list[sigma_index], seed)
    c = 2.0**k
    scaled = Observations(c * obs.exact, c * obs.noisy, obs.sigma, obs.seed)
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
    factors = prepare(preset.kernel, samples, preset.nodes()).factors
    u = synthesize(preset.kernel, preset.truth, samples)
    rhs = add_noise(u, preset.sigma_list[sigma_index], seed).noisy
    s1 = factors.singular_values[0]
    sols = [tikhonov_solve(factors, rhs, s1 * 10.0**t) for t in sorted(log_gammas)]
    for low, high in zip(sols, sols[1:]):
        assert high.residual_norm >= low.residual_norm * (1 - RTOL)
        assert high.solution_norm <= low.solution_norm * (1 + RTOL)


def _matched_gap(a, b):
    """Largest |a_k - b_p(k)| under the best assignment p, relative to max |a|."""
    gap = min(np.abs(a - b[list(p)]).max() for p in permutations(range(b.size)))
    return gap / np.abs(a).max()


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
    moved_obs = Observations(obs.exact[perm], obs.noisy[perm], obs.sigma, obs.seed)
    config = make_method(method)
    base = recover(config, prepare(preset.kernel, samples, preset.nodes()), obs)
    result = recover(config, prepare(preset.kernel, moved, preset.nodes()), moved_obs)
    np.testing.assert_allclose(result.gamma_or_tol, base.gamma_or_tol, rtol=PERM_RTOL)
    assert _matched_gap(base.locations, result.locations) <= PERM_RTOL
