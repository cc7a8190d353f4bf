"""Format-stability pins for cohort member sampling and analytic rows.

Each digest is the sha256 of the canonical JSON of a fixed batch: the
expanded members of a cohort (every node, event and float of every
``ScenarioSpec``) or the analytic metrics of a default cohort.  A change
to the draw order, the seed derivation or the closed-form arithmetic
shows up here as a changed digest, so these pins guard any rewrite of
the sampler or the analytic kernel against silently altering results.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.cohort import Categorical, CohortSpec, evaluate_members, run_cohort
from repro.cohort.spec import MEMBER_BLOCK
from repro.runner.artifacts import canonical_json

DEFAULT_MEMBERS_SHA256 = (
    "488f7a2243b0f16eca235a9799742861997fa40e1ab0e5a9fa353b3075294966")
ENERGY_MEMBERS_SHA256 = (
    "7e7a917386f3a49b44da165589bf645480c4d95e6d7a3c2f54b1d7a3aad470d0")
DEFAULT_ROWS_SHA256 = (
    "9f3c1f1acfba9d7268314bdd26d0bb43c4464cf5e497b9538d5a1594016d7f96")
VALIDATED_RUN_VALIDATIONS_SHA256 = (
    "710f84d7b701b2e31a503d68a71ffb4d13bad1df577b2b56a4b6e067a265a2f2")
VALIDATED_RUN_SUMMARY_SHA256 = (
    "7d707d4bdf27d7becc3bcca9af08fb923ab9012ca52813493fefe5df4fe26a60")


def sha256_of(value: object) -> str:
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def energy_cohort(population: int) -> CohortSpec:
    """A cohort that samples batteries and harvesters per member."""
    return CohortSpec(
        population=population, seed=3,
        batteries=Categorical(choices=("cr2032", "lipo_watch", ""),
                              weights=(0.4, 0.3, 0.3)),
        harvesters=Categorical(choices=("indoor_pv", "teg", "")),
        battery_scale=1e-5)


def members_digest(spec: CohortSpec) -> str:
    return sha256_of([dataclasses.asdict(member)
                      for member in spec.members()])


def test_default_members_pinned():
    assert members_digest(CohortSpec(population=256, seed=3)) \
        == DEFAULT_MEMBERS_SHA256


def test_battery_harvester_members_pinned():
    assert members_digest(energy_cohort(256)) == ENERGY_MEMBERS_SHA256


def test_default_analytic_rows_pinned():
    members = list(CohortSpec(population=2000).members())
    rows = evaluate_members([member.scenario for member in members],
                            [member.index for member in members])
    assert sha256_of([dataclasses.asdict(row) for row in rows]) \
        == DEFAULT_ROWS_SHA256


@pytest.mark.parametrize("shard_count", [1, 3])
def test_validated_analytic_run_pinned(shard_count):
    """An analytic run over several member blocks, DES-validating members
    on block starts (8192, 16384) and inside blocks; three shards move
    the block starts without moving any result."""
    spec = CohortSpec(population=20_000, seed=3,
                      member_duration_seconds=30.0)
    assert spec.population > 2 * MEMBER_BLOCK
    result = run_cohort(spec, validate_stride=4096, shard_count=shard_count)
    assert [record.index for record in result.validations] \
        == [0, 4096, 8192, 12288, 16384]
    assert sha256_of([record.row() for record in result.validations]) \
        == VALIDATED_RUN_VALIDATIONS_SHA256
    assert sha256_of(result.rows()) == VALIDATED_RUN_SUMMARY_SHA256
