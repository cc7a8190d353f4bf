"""ISA pipeline: chaining data-reduction stages with an energy cost model.

A leaf node's in-sensor analytics block is modelled as an ordered list of
stages, each with a data-rate reduction factor and a compute cost in
joules per input bit (or per operation).  The pipeline reports the output
data rate and the ISA power for a given input rate, which is exactly what
the offload optimizer and the Fig. 1/Fig. 3 reproductions need: the paper
treats ISA power as "~100 uW class" and ISA compute as first-order
negligible relative to radio savings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from .. import units

#: Energy per primitive ISA operation (multiply-accumulate class) for a
#: microwatt-class always-on DSP in a mature low-power node.  1 pJ/op is a
#: representative value for near-threshold fixed-point MACs.
DEFAULT_ENERGY_PER_OP_JOULES = 1e-12


def isa_compute_energy_joules(operations: float,
                              energy_per_op_joules: float = DEFAULT_ENERGY_PER_OP_JOULES,
                              ) -> float:
    """Energy to execute *operations* primitive ops on the ISA block."""
    if operations < 0:
        raise ConfigurationError("operation count must be non-negative")
    if energy_per_op_joules < 0:
        raise ConfigurationError("energy per op must be non-negative")
    return operations * energy_per_op_joules


@dataclass(frozen=True)
class ISAStage:
    """One data-reduction stage in an ISA pipeline.

    Parameters
    ----------
    name:
        Stage identifier (e.g. ``"mjpeg"``, ``"log-mel"``).
    rate_reduction:
        Output data rate divided by input data rate (0 < value <= 1).
    ops_per_input_bit:
        Primitive operations executed per input bit.
    energy_per_op_joules:
        Energy of one primitive operation.
    """

    name: str
    rate_reduction: float
    ops_per_input_bit: float = 1.0
    energy_per_op_joules: float = DEFAULT_ENERGY_PER_OP_JOULES

    def __post_init__(self) -> None:
        if not 0.0 < self.rate_reduction <= 1.0:
            raise ConfigurationError("rate_reduction must be in (0, 1]")
        if self.ops_per_input_bit < 0:
            raise ConfigurationError("ops_per_input_bit must be non-negative")
        if self.energy_per_op_joules < 0:
            raise ConfigurationError("energy_per_op_joules must be non-negative")

    def output_rate_bps(self, input_rate_bps: float) -> float:
        """Output data rate for a given input rate."""
        if input_rate_bps < 0:
            raise ConfigurationError("input rate must be non-negative")
        return input_rate_bps * self.rate_reduction

    def compute_power_watts(self, input_rate_bps: float) -> float:
        """Average compute power for a given input rate."""
        if input_rate_bps < 0:
            raise ConfigurationError("input rate must be non-negative")
        return input_rate_bps * self.ops_per_input_bit * self.energy_per_op_joules


@dataclass
class ISAPipeline:
    """An ordered chain of :class:`ISAStage` objects."""

    stages: list[ISAStage] = field(default_factory=list)

    def output_rate_bps(self, input_rate_bps: float) -> float:
        """Data rate leaving the pipeline for a given input rate."""
        rate = input_rate_bps
        for stage in self.stages:
            rate = stage.output_rate_bps(rate)
        return rate

    def total_rate_reduction(self) -> float:
        """Combined output/input rate ratio of all stages."""
        ratio = 1.0
        for stage in self.stages:
            ratio *= stage.rate_reduction
        return ratio

    def compute_power_watts(self, input_rate_bps: float) -> float:
        """Total ISA compute power; each stage sees the previous stage's output."""
        power = 0.0
        rate = input_rate_bps
        for stage in self.stages:
            power += stage.compute_power_watts(rate)
            rate = stage.output_rate_bps(rate)
        return power

    def describe(self, input_rate_bps: float) -> dict[str, float]:
        """Summary used in reports."""
        return {
            "input_rate_bps": input_rate_bps,
            "output_rate_bps": self.output_rate_bps(input_rate_bps),
            "rate_reduction": self.total_rate_reduction(),
            "compute_power_uw": units.to_microwatt(self.compute_power_watts(input_rate_bps)),
            "stages": float(len(self.stages)),
        }


def mjpeg_video_pipeline(quality: int = 50) -> ISAPipeline:
    """The paper's video ISA example: MJPEG-class intra-frame compression.

    Compression ratio scales with quality; ~10:1 at the default quality.
    """
    if not 1 <= quality <= 100:
        raise ConfigurationError("quality must be in 1..100")
    ratio = 0.05 + 0.1 * (quality / 100.0)
    return ISAPipeline(stages=[
        ISAStage(name="mjpeg", rate_reduction=ratio, ops_per_input_bit=4.0),
    ])


def audio_feature_pipeline() -> ISAPipeline:
    """Keyword-spotting front end: log-mel features at ~1/8 the PCM rate."""
    return ISAPipeline(stages=[
        ISAStage(name="log-mel", rate_reduction=0.125, ops_per_input_bit=8.0),
    ])


def biopotential_delta_pipeline() -> ISAPipeline:
    """Delta coding plus beat/event extraction for biopotential streams."""
    return ISAPipeline(stages=[
        ISAStage(name="delta", rate_reduction=0.5, ops_per_input_bit=0.5),
        ISAStage(name="event-extraction", rate_reduction=0.2, ops_per_input_bit=2.0),
    ])
