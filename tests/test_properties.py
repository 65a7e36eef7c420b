"""Invariants the maths guarantees, checked over random cells."""

import numpy as np
from hypothesis import given, settings, strategies as st

from spikerec import add_noise, load_preset, make_method, prepare, recover, synthesize
from spikerec.kernels import PRESET_IDS, Observations


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
