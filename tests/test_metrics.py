from itertools import permutations

import numpy as np
import pytest

from spikerec import ErrorPair, SpikeSignal, load_preset, make_method, match_and_error, run_sweep
from spikerec.metrics import _best_permutation


class Recovered:
    def __init__(self, locations, weights):
        self.locations = np.asarray(locations, dtype=complex)
        self.weights = np.asarray(weights, dtype=complex)


def best_permutation_loop(truth_locs, rec_locs):
    """The per-permutation loop that _best_permutation replaced, kept as its reference."""
    n = truth_locs.size
    cost = np.abs(truth_locs[:, None] - rec_locs[None, :]) ** 2
    best, best_cost = None, np.inf
    for perm in permutations(range(n)):
        c = cost[np.arange(n), perm].sum()
        if c < best_cost:
            best, best_cost = perm, c
    return best


class TestBestPermutation:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_loop(self, n):
        rng = np.random.default_rng(n)
        for i in range(300):
            if i % 3:
                truth = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                rec = truth[rng.permutation(n)] + 0.5 * rng.standard_normal(n)
            else:  # integer points make equal-cost permutations common
                truth = rng.integers(0, 3, n) + 0j
                rec = rng.integers(0, 3, n) + 0j
            got = _best_permutation(truth, rec)
            assert got.shape == (n,) and got.dtype.kind == "i"  # an index array
            assert got.tolist() == list(best_permutation_loop(truth, rec))

    def test_tie_keeps_first_permutation(self):
        # both assignments cost 0.5; the identity comes first
        perm = _best_permutation(np.array([0, 1.0 + 0j]), np.array([0.5, 0.5 + 0j]))
        assert perm.tolist() == [0, 1]

    def test_result_is_the_callers(self):
        # the exhaustive search's permutations are cached; an edit to a
        # returned index array must not reach the next call
        truth = np.array([0, 1.0 + 0j])
        perm = _best_permutation(truth, truth[::-1])
        perm[:] = 0
        assert _best_permutation(truth, truth[::-1]).tolist() == [1, 0]


class TestMatchAndError:
    def test_exact_recovery(self):
        truth = SpikeSignal([0.2, -0.5, 0.9j], [1.0, 2.0, -1.0])
        errs = match_and_error(truth, Recovered(truth.locations, truth.weights))
        assert errs.location_error == 0.0
        assert errs.weight_error == 0.0
        assert _best_permutation(truth.locations, truth.locations).tolist() == [0, 1, 2]

    def test_cyclic_permutation(self):
        truth = SpikeSignal([0.1, 0.5, 0.9], [1.0, 2.0, 3.0])
        rec = Recovered([0.9, 0.1, 0.5], [3.0, 1.0, 2.0])
        errs = match_and_error(truth, rec)
        assert errs.location_error == pytest.approx(0.0, abs=1e-15)
        assert errs.weight_error == pytest.approx(0.0, abs=1e-15)
        assert _best_permutation(truth.locations, rec.locations).tolist() == [1, 2, 0]

    def test_hand_computed_offsets(self):
        # two spikes each off by 0.1 in location: error sqrt(0.01 + 0.01)
        truth = SpikeSignal([0.0, 1.0], [1.0, 1.0])
        rec = Recovered([0.1, 1.1], [1.0, 1.0])
        errs = match_and_error(truth, rec)
        assert errs.location_error == pytest.approx(np.sqrt(0.02))
        assert errs.weight_error == 0.0

    def test_weight_error_uses_location_matching(self):
        truth = SpikeSignal([0.0, 1.0], [1.0, 5.0])
        rec = Recovered([1.0, 0.0], [5.0, 1.0 + 1.0j])
        errs = match_and_error(truth, rec)
        assert _best_permutation(truth.locations, rec.locations).tolist() == [1, 0]
        assert errs.location_error == 0.0
        assert errs.weight_error == pytest.approx(1.0)

    def test_invariant_under_recovered_order(self):
        rng = np.random.default_rng(0)
        locs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        wts = rng.standard_normal(5) + 0j
        truth = SpikeSignal(locs, wts)
        noisy_locs = locs + 0.01 * rng.standard_normal(5)
        perm = rng.permutation(5)
        e1 = match_and_error(truth, Recovered(noisy_locs, wts))
        e2 = match_and_error(truth, Recovered(noisy_locs[perm], wts[perm]))
        assert e1.location_error == pytest.approx(e2.location_error, rel=1e-12)
        assert e1.weight_error == pytest.approx(e2.weight_error, rel=1e-12)

    def test_never_worse_than_identity_assignment(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            locs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            rec_locs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            truth = SpikeSignal(locs, np.ones(4))
            errs = match_and_error(truth, Recovered(rec_locs, np.ones(4)))
            identity = float(np.linalg.norm(locs - rec_locs))
            assert errs.location_error <= identity + 1e-12

    def test_large_problem_uses_assignment_solver(self):
        # above the exhaustive limit the Hungarian path must still find the
        # exact matching on a shuffled copy
        rng = np.random.default_rng(2)
        locs = np.linspace(-1, 1, 12) + 0j
        wts = rng.standard_normal(12) + 0j
        perm = rng.permutation(12)
        truth = SpikeSignal(locs, wts)
        errs = match_and_error(truth, Recovered(locs[perm], wts[perm]))
        assert errs.location_error == pytest.approx(0.0, abs=1e-15)
        assert errs.weight_error == pytest.approx(0.0, abs=1e-15)

    def test_size_mismatch(self):
        truth = SpikeSignal([0.0, 1.0], [1.0, 1.0])
        # a programming error, not a numerical failure: no SpikerecError
        with pytest.raises(ValueError, match="^truth has 2 spikes, recovery has 1$"):
            match_and_error(truth, Recovered([0.0], [1.0]))

    def test_returns_error_pair(self):
        truth = SpikeSignal([0.3], [2.0])
        errs = match_and_error(truth, Recovered([0.3], [2.0]))
        assert isinstance(errs, ErrorPair)

    @pytest.mark.filterwarnings("error")
    def test_finite_weights_whose_squares_overflow(self):
        # |w|^2 near 1e319 overflows float64; the error itself is finite
        truth = SpikeSignal([0.1, 0.5], [1.0, 2.0])
        errs = match_and_error(truth, Recovered([0.1, 0.5], [3e159 + 1.0, -4e159j + 2.0]))
        assert errs.weight_error == pytest.approx(5e159, rel=1e-15)
        assert errs.location_error == 0.0

    @pytest.mark.filterwarnings("error")
    def test_error_past_float_max_is_inf(self):
        # sqrt(2) * 1.5e308 does not fit a float64: inf, and still no warning
        truth = SpikeSignal([0.1, 0.5], [0.0, 0.0])
        errs = match_and_error(truth, Recovered([0.1, 0.5], [1.5e308, 1.5e308]))
        assert errs.weight_error == np.inf

    @pytest.mark.filterwarnings("error")
    def test_sweep_at_huge_noise_reports_finite_weight_error(self):
        # pinv solves this fourier record with finite weights near 1e159
        (rec,) = run_sweep(load_preset("fourier"), [make_method("pinv")], seeds=[0], sigmas=[1e160])
        assert rec.failed_stage is None
        assert max(abs(complex(*w)) for w in rec.weights) > 1e158
        assert 1e158 < rec.weight_error < np.inf
