"""E10 (ablation) — activation precision and the leaf/hub partition point.

The partitioner's transfer term depends on how intermediate activations
are serialised on the link.  This ablation sweeps the activation width
(4/8/16/32 bits per element) for each model-zoo workload over Wi-R and
BLE and reports how the optimal split point, the transferred volume and
the leaf energy move.  The expected shape: over Wi-R the optimum stays at
(or near) full offload at every precision — the transfer term scales with
the activation width but remains microjoule-class, far below any local
compute alternative — while over BLE the optimum is pushed to local
computation regardless of precision because even 4-bit activations are
too expensive to ship at nanojoules per bit.  In other words, the cheap
body link removes quantisation from the critical path, whereas the RF
link cannot be rescued by it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..comm.ble import ble_1m_phy
from ..comm.eqs_hbc import wir_commercial
from ..comm.link import CommTechnology
from ..core.compute import hub_soc, isa_accelerator
from ..core.partition import PartitionObjective, optimal_partition
from ..nn.profile import profile_model
from ..nn.zoo import build_model
from .. import units
from ..runner.registry import ExperimentSpec, register

#: Workloads included in the ablation (name, builder kwargs).
WORKLOADS: tuple[tuple[str, dict[str, object]], ...] = (
    ("keyword_spotting", {}),
    ("ecg_arrhythmia", {}),
    ("vision_tiny", {}),
)

#: Activation widths swept (bits per element).
ACTIVATION_BITS: tuple[int, ...] = (4, 8, 16, 32)


@dataclass(frozen=True)
class QuantizationPoint:
    """Partition outcome for one (workload, link, activation width)."""

    workload: str
    technology: str
    activation_bits: int
    best_split: int
    hub_mac_fraction: float
    transfer_bits: float
    leaf_energy_joules: float
    latency_seconds: float


@dataclass(frozen=True)
class QuantizationAblationResult:
    """All swept points."""

    points: tuple[QuantizationPoint, ...]

    def series(self, workload: str, technology: str) -> list[QuantizationPoint]:
        """Points for one workload/link, ordered by activation width."""
        matched = [
            point for point in self.points
            if point.workload == workload and point.technology == technology
        ]
        return sorted(matched, key=lambda point: point.activation_bits)

    def rows(self) -> list[dict[str, object]]:
        """Rows for the report table."""
        rows: list[dict[str, object]] = []
        for point in self.points:
            rows.append({
                "workload": point.workload,
                "link": point.technology,
                "activation_bits": point.activation_bits,
                "best_split": point.best_split,
                "hub_mac_fraction": point.hub_mac_fraction,
                "transfer_kbits": point.transfer_bits / 1000.0,
                "leaf_energy_uj": point.leaf_energy_joules / units.MICRO,
                "latency_ms": point.latency_seconds * 1000.0,
            })
        return rows


def run(objective: PartitionObjective = PartitionObjective.LEAF_ENERGY,
        ) -> QuantizationAblationResult:
    """Sweep activation precision for every workload and link."""
    leaf = isa_accelerator()
    hub = hub_soc()
    links: tuple[CommTechnology, ...] = (wir_commercial(), ble_1m_phy())

    points: list[QuantizationPoint] = []
    for workload, kwargs in WORKLOADS:
        model = build_model(workload, **kwargs)
        for bits in ACTIVATION_BITS:
            profile = profile_model(model, activation_bits_per_element=bits)
            for technology in links:
                decision = optimal_partition(profile, leaf, hub, technology,
                                             objective=objective)
                best = decision.best
                total_macs = best.leaf_macs + best.hub_macs
                points.append(QuantizationPoint(
                    workload=workload,
                    technology=technology.name,
                    activation_bits=bits,
                    best_split=best.split_index,
                    hub_mac_fraction=(best.hub_macs / total_macs) if total_macs else 0.0,
                    transfer_bits=best.transfer_bits,
                    leaf_energy_joules=best.leaf_energy_joules,
                    latency_seconds=best.latency_seconds,
                ))
    return QuantizationAblationResult(points=tuple(points))

register(ExperimentSpec(
    id="quantization",
    eid="E10",
    title="Activation-precision / partition ablation",
    module="quantization_ablation",
    run=run,
    sweep_defaults={"objective": tuple(PartitionObjective)},
))
