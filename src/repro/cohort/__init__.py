"""Population-scale cohort engine: a million wearers as one workload.

This package turns the single-body scenario machinery into a population
tool: a :class:`CohortSpec` declares statistical distributions (adoption
rates, link-technology and MAC mixes, body sizes, duty cycles), expands
deterministically into per-member
:class:`~repro.scenarios.spec.ScenarioSpec` workloads, and executes them
as sharded batches with streaming aggregation — cohort percentiles and
energy distributions come out, raw per-member results are never
materialised.  A vectorised analytic fast path evaluates 10k members in
seconds and is continuously cross-validated against the discrete-event
simulator on a sampled subset.

Shard workers communicate through the versioned binary columnar codec in
:mod:`repro.cohort.codec` (self-delimiting ``RSHD`` frames with a
summary footer for index-free skipping), and cross-member percentiles
ride on the mergeable quantile sketches in :mod:`repro.cohort.sketch`,
so memory stays flat from 10^2 to 10^6 members.

Backed by ``repro cohort run/summarize`` on the CLI and the
``cohort_study`` experiment (E14) in the registry; design notes live in
``docs/cohort-engine.md``.
"""

from .aggregate import (
    MEMBER_METRIC_FIELDS,
    CohortAccumulator,
    MemberColumns,
    MemberMetrics,
    ValidationRecord,
)
from .analytic import evaluate_member, evaluate_members
from .codec import (
    SHARD_CODEC_VERSION,
    MetricSummary,
    ShardFrame,
    ShardSummary,
    decode_shard,
    encode_shard,
    read_frames,
    read_summary,
    split_frames,
    write_frames,
)
from .distributions import Bernoulli, Categorical, Uniform
from .engine import (
    CohortResult,
    run_cohort,
    shard_bounds,
)
from .sketch import QuantileSketch
from .spec import DEFAULT_ADOPTION, CohortMember, CohortSpec, MemberDraws

__all__ = [
    "DEFAULT_ADOPTION",
    "MEMBER_METRIC_FIELDS",
    "SHARD_CODEC_VERSION",
    "Bernoulli",
    "Categorical",
    "CohortAccumulator",
    "CohortMember",
    "CohortResult",
    "CohortSpec",
    "MemberColumns",
    "MemberDraws",
    "MemberMetrics",
    "MetricSummary",
    "QuantileSketch",
    "ShardFrame",
    "ShardSummary",
    "Uniform",
    "ValidationRecord",
    "decode_shard",
    "encode_shard",
    "evaluate_member",
    "evaluate_members",
    "read_frames",
    "read_summary",
    "run_cohort",
    "shard_bounds",
    "split_frames",
    "write_frames",
]
