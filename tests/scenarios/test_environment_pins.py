"""Result pins for the built-in multi-body environments.

Each digest is the sha256 of the canonical JSON of every body's
simulation result, for a gallery environment built at seed 0 and run
on one kernel path.  The interference schedule, the per-epoch PER
re-derivations, the controllers' tx-offset actuation and the hybrid
driver all feed these numbers, so a rewrite of any of them that moves a
single float shows up here as a changed digest.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.runner.artifacts import canonical_json
from repro.scenarios import get_environment

ENVIRONMENT_SHA256 = {
    ("commuter_train", "exact"):
        "54ce3dc712fdbf032985e4ee794e76911dfb8a412e9c4085876a460c0c4110af",
    ("gym_floor", "exact"):
        "48aecb311e8861528e788192f40ca0e1d8f6b5cc341cb23bc49df1e544db8506",
    ("gym_floor", "hybrid"):
        "533b809314e62dd313612341b5e791afd20fe6fb38c2c0f98bf311e3abf6c74e",
    ("ward_shift", "exact"):
        "7fcb821bfabfcb2bfd323b5ca56a26393c86a8ce7dfdbd1063ca45cef6383c6a",
    ("ward_shift", "hybrid"):
        "0ec5ef144a594f7fd9060b6ec8a7d4e99b2e24444e80936c3a5c0def17ae0dc6",
}


def environment_sha256(name: str, fast_path: str) -> str:
    result = get_environment(name).build(seed=0).run(fast_path=fast_path)
    body_dicts = [body.to_dict() for body in result.body_results]
    return hashlib.sha256(
        canonical_json(body_dicts).encode("utf-8")).hexdigest()


@pytest.mark.parametrize(("name", "fast_path"), sorted(ENVIRONMENT_SHA256))
def test_environment_pinned(name, fast_path):
    assert environment_sha256(name, fast_path) \
        == ENVIRONMENT_SHA256[name, fast_path]


def test_commuter_train_hybrid_equals_exact():
    """Every commuter carries a 5 s cadence controller, shorter than
    the minimum leap, so the hybrid run is the exact run."""
    assert environment_sha256("commuter_train", "hybrid") \
        == ENVIRONMENT_SHA256["commuter_train", "exact"]
