"""The source paper's premise, pinned on seeds 0-19: the original method's
pseudo-inverse threshold must be tuned to the problem, and the L-curve
method, which takes none, stays near the best tuned threshold.

Floors measured with tools/premise.py on these seeds (one BLAS thread, the
same digits on two): pinv's median location error spreads at least 1.8-fold
across tol_factor in {1e-8, 1e-6, 1e-4, 1e-2} in every (preset, sigma) cell
(laplace at sigma = 0.05), and lcurve's median is at most 1.47 times the
best pinv median (fourier at sigma = 0.001; 2.09 on seeds 0-39).
"""

import importlib.util
from pathlib import Path

import pytest

PREMISE = Path(__file__).resolve().parents[1] / "tools" / "premise.py"
SPREAD_FLOOR = 1.5  # measured minimum 1.8
LCURVE_CEILING = 2.0  # measured maximum 1.47


@pytest.fixture(scope="module")
def table():
    spec = importlib.util.spec_from_file_location("premise", PREMISE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.table(range(20))


def test_every_cell_of_the_five_presets(table):
    assert len(table) == 15


def test_pinv_threshold_matters_in_every_cell(table):
    for pid, sigma, pinv, _ in table:
        spread = max(pinv.values()) / min(pinv.values())
        assert spread >= SPREAD_FLOOR, (pid, sigma, pinv)


def test_no_one_threshold_is_best_everywhere(table):
    # measured: 1e-2 in 8 cells, the default 1e-4 in 7
    assert len({min(pinv, key=pinv.get) for _, _, pinv, _ in table}) >= 2


def test_lcurve_stays_near_the_best_threshold(table):
    for pid, sigma, pinv, lcurve in table:
        assert lcurve <= LCURVE_CEILING * min(pinv.values()), (pid, sigma, pinv, lcurve)
