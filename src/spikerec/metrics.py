"""Spike matching and the (location, weight) error pair."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import SizeMismatch
from .kernels import SpikeSignal

EXHAUSTIVE_LIMIT = 8


@dataclass(frozen=True)
class ErrorPair:
    location_error: float
    weight_error: float
    matching: tuple  # matching[k] = index of recovered spike paired with truth k


def _best_permutation(truth_locs: np.ndarray, rec_locs: np.ndarray) -> tuple:
    n = truth_locs.size
    cost = np.abs(truth_locs[:, None] - rec_locs[None, :]) ** 2
    if n <= EXHAUSTIVE_LIMIT:
        best, best_cost = None, np.inf
        for perm in permutations(range(n)):
            c = cost[np.arange(n), perm].sum()
            if c < best_cost:
                best, best_cost = perm, c
        return best
    # scipy.optimize is imported here, its only use, to keep it (and its
    # import time) off `import spikerec`
    from scipy.optimize import linear_sum_assignment

    _, cols = linear_sum_assignment(cost)
    return tuple(int(c) for c in cols)


def match_and_error(truth: SpikeSignal, recovered) -> ErrorPair:
    """Optimal-assignment errors between truth and a recovery.

    The permutation minimizing the squared location mismatch is found
    exhaustively for up to 8 spikes; the weight error uses the same
    permutation.  `recovered` is anything with .locations and .weights.
    """
    rec_locs = np.asarray(recovered.locations, dtype=complex)
    rec_wts = np.asarray(recovered.weights, dtype=complex)
    if rec_locs.size != truth.n_x or rec_wts.size != truth.n_x:
        raise SizeMismatch(
            f"truth has {truth.n_x} spikes, recovery has {rec_locs.size}"
        )
    perm = _best_permutation(truth.locations, rec_locs)
    idx = np.asarray(perm)
    loc_err = float(np.linalg.norm(truth.locations - rec_locs[idx]))
    wt_err = float(np.linalg.norm(truth.weights - rec_wts[idx]))
    return ErrorPair(location_error=loc_err, weight_error=wt_err, matching=perm)
