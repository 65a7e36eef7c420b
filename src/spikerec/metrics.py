"""Spike matching and the (location, weight) error pair."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations

import numpy as np

from .kernels import SpikeSignal, as_float

EXHAUSTIVE_LIMIT = 8


@dataclass(frozen=True)
class ErrorPair:
    location_error: float
    weight_error: float


@cache
def _permutations(n: int) -> np.ndarray:
    """Permutations of range(n), one per row in lexicographic order (shared: read only)."""
    return np.array(list(permutations(range(n))))


def _best_permutation(truth_locs: np.ndarray, rec_locs: np.ndarray) -> np.ndarray:
    """perm[k] = index of the recovered spike paired with truth k."""
    n = truth_locs.size
    cost = np.abs(truth_locs[:, None] - rec_locs[None, :]) ** 2
    if n <= EXHAUSTIVE_LIMIT:
        # all permutations in lexicographic order; argmin takes the first
        # minimum, so a tie keeps the earliest permutation
        perms = _permutations(n)
        return perms[np.argmin(cost[np.arange(n), perms].sum(axis=1))].copy()  # not the cache's row
    # scipy.optimize is imported here, its only use, to keep it (and its
    # import time) off `import spikerec`
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment(cost)[1]


def match_and_error(truth: SpikeSignal, recovered) -> ErrorPair:
    """Optimal-assignment errors between truth and a recovery.

    The permutation minimizing the squared location mismatch is found
    exhaustively for up to 8 spikes; the weight error uses the same
    permutation.  `recovered` is anything with .locations and .weights.
    """
    rec_locs = as_float(recovered.locations)
    rec_wts = as_float(recovered.weights)
    if rec_locs.size != truth.n_x or rec_wts.size != truth.n_x:
        raise ValueError(f"truth has {truth.n_x} spikes, recovery has {rec_locs.size}")
    perm = _best_permutation(truth.locations, rec_locs)
    loc_err = float(np.linalg.norm(truth.locations - rec_locs[perm]))
    wt_err = float(np.linalg.norm(truth.weights - rec_wts[perm]))
    return ErrorPair(location_error=loc_err, weight_error=wt_err)
