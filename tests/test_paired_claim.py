"""The source paper's claim, seed by seed: regularization helps "especially
when the noise levels are relatively high".  Criterion 5 compares one median
per preset on seeds 0-19; this counts, on the oracle pool (every preset,
seeds 0-39, lcurve and pinv at the preset's default noise levels), the seeds
on which lcurve's `location_error` is below pinv's on the same noise.

Counts out of 40, per sigma from the top down (one BLAS thread; two give the
same): rational 40/37/32, spectral 36/27/29, fourier 40/32/8, laplace
18/34/35, deconv 38/28/29.  At the top sigma lcurve wins on at least 36 seeds
of rational, spectral, fourier and deconv, and TOP_FLOOR pins 35.  Laplace's
18 is stated, not floored: at sigma = 0.05 neither method recovers the spikes
(median location errors about 0.58 and 0.53 on an interval of length 2), so
which method is nearer is a coin toss.
"""

import pytest

from spikerec import load_preset, make_method, run_sweep
from spikerec.kernels import PRESET_IDS

SEEDS = range(40)
TOP_FLOOR = 35  # measured minimum 36 (spectral)
LAPLACE_TOP = 18  # measured; no floor hides it


@pytest.fixture(scope="module")
def wins():
    """{(preset, sigma): seeds on which lcurve's location error is below pinv's}"""
    out = {}
    for pid in PRESET_IDS:
        preset = load_preset(pid)
        records = run_sweep(preset, [make_method("lcurve"), make_method("pinv")], SEEDS)
        assert len(records) == 2 * len(SEEDS) * len(preset.sigma_list)
        assert all(r.failed_stage is None for r in records)
        error = {(r.method, r.sigma, r.seed): r.location_error for r in records}
        for sigma in preset.sigma_list:
            out[pid, sigma] = sum(
                error["lcurve", sigma, seed] < error["pinv", sigma, seed] for seed in SEEDS
            )
    return out


@pytest.mark.parametrize("pid", ["rational", "spectral", "fourier", "deconv"])
def test_lcurve_wins_seed_by_seed_at_the_top_sigma(wins, pid):
    top = max(load_preset(pid).sigma_list)
    assert wins[pid, top] >= TOP_FLOOR, wins


def test_laplace_top_sigma_is_stated_not_floored(wins):
    assert wins["laplace", 0.05] == LAPLACE_TOP, wins
