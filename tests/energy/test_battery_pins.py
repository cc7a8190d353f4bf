"""Result pins for battery-backed simulation runs.

Each digest is the sha256 of the canonical JSON of a whole result: a
battery or harvester gallery scenario on both kernels, and a small
hybrid cohort whose scaled CR2032 cells brown out part-way.  The energy
runtime's drain/advance path, the battery's cell constants and the
ledger's posting order all feed these numbers, so a rewrite of any of
them that moves a single float shows up here as a changed digest.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cohort import Categorical, CohortSpec, run_cohort
from repro.runner.artifacts import canonical_json
from repro.scenarios import get_scenario

SCENARIO_SHA256 = {
    ("week_wear", "exact"):
        "bf111cb7e7ae7bdba2bf9cbcfb85d4a2e3fc0ff0cb204e2d4edca4f0603fd189",
    ("week_wear", "hybrid"):
        "acdad98aa6118d644de772457383d8feb6e4ff9df60c5c32bf74c711b7696b08",
    ("harvester_patch", "exact"):
        "57a7f089a37e20a14dbe5ef626082216f8579a61221b2a7ac7011141e6501fdb",
    ("harvester_patch", "hybrid"):
        "eb859476c737ec6489ca0fc8408333e4bce386578f10059ad81f3a326ff08349",
}

BATTERY_COHORT_SHA256 = (
    "1c44883ac70af77ea1660112b62bf16100c687f9eb81d0b75880a507fa17806d")


def sha256_of(value: object) -> str:
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


@pytest.mark.parametrize(("name", "fast_path"), sorted(SCENARIO_SHA256))
def test_battery_scenario_pinned(name, fast_path):
    spec = get_scenario(name)
    result = spec.build(seed=0).run(spec.duration_seconds,
                                    fast_path=fast_path)
    assert sha256_of(result.to_dict()) == SCENARIO_SHA256[name, fast_path]


def test_battery_mix_hybrid_cohort_pinned():
    spec = CohortSpec(population=40, seed=0, member_duration_seconds=60.0,
                      batteries=Categorical(choices=("cr2032", ""),
                                            weights=(0.5, 0.5)),
                      battery_scale=2e-6)
    accumulator = run_cohort(spec, fast_path="hybrid", shard_count=1,
                             parallel=1).accumulator
    # 12 of the 40 members brown out inside the minute.
    assert accumulator.overview()["dead_members"] == 12
    assert sha256_of({"overview": accumulator.overview(),
                      "summary": accumulator.summary_rows()}) \
        == BATTERY_COHORT_SHA256
