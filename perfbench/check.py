"""Correctness check: compare the program's records with reference.json.gz."""

from __future__ import annotations

import copy
import gzip
import json
from itertools import permutations
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json.gz"
SCALARS = ("location_error", "weight_error", "gamma_or_tol")


def load_reference(path=REFERENCE) -> tuple:
    """(records by (preset, method, sigma, seed), tolerance, commit)."""
    doc = json.loads(gzip.decompress(Path(path).read_bytes()))
    records = {tuple(r[:4]): r for r in doc["records"]}
    return records, doc["tolerance"], doc["commit"]


def _close(got: complex, ref: complex, scale: float, tol: dict) -> bool:
    return abs(got - ref) <= tol["atol"] + tol["rtol"] * scale


def mismatch(record: dict, ref: list, tol: dict) -> str | None:
    """Name of the first field outside tolerance, or None if the record agrees.

    Locations are eigenvalues in no particular order, so they are compared
    under the assignment to the reference that minimises the squared
    distance, and the weights follow the same assignment.
    """
    for field, want in zip(SCALARS, ref[4:7]):
        if not _close(record[field], want, abs(want), tol):
            return field
    got_l = [complex(*z) for z in record["locations"]]
    got_w = [complex(*z) for z in record["weights"]]
    ref_l = [complex(*z) for z in ref[7]]
    ref_w = [complex(*z) for z in ref[8]]
    n = len(ref_l)
    if len(got_l) != n or len(got_w) != n:
        return "locations"
    perm = min(
        permutations(range(n)),
        key=lambda p: sum(abs(got_l[p[k]] - ref_l[k]) ** 2 for k in range(n)),
    )
    for field, got, want in (("locations", got_l, ref_l), ("weights", got_w, ref_w)):
        scale = max(abs(z) for z in want)
        if not all(_close(got[perm[k]], want[k], scale, tol) for k in range(n)):
            return field
    return None


def self_test(record: dict, ref: list, tol: dict) -> bool:
    """True if the check passes `record` and rejects a perturbed copy of it."""
    bad = copy.deepcopy(record)
    bad["location_error"] += 100.0 * (tol["atol"] + tol["rtol"] * abs(ref[4]))
    return mismatch(record, ref, tol) is None and mismatch(bad, ref, tol) is not None
