"""DNN partitioning between a leaf node and the on-body hub.

This is the computational heart of the "distributed wearable AI" vision:
given a profiled model (:class:`~repro.nn.profile.ModelProfile`), a leaf
compute device, a hub compute device and a link technology, decide after
which layer to cut the network so that the leaf runs the early layers,
ships the intermediate activation over the link, and the hub runs the
rest.  Split index 0 means "ship the raw input" (full offload); a split
index equal to the number of layers means "run everything locally and ship
only the result".

The optimizer enumerates every split point (the model graphs are chains,
so this is exact and cheap) under one of four objectives; a max-flow /
min-cut formulation over the same chain (built with networkx) is provided
as an independent cross-check of the leaf-energy objective.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import networkx as nx

from ..errors import PartitionError
from ..comm.link import CommTechnology, transfer_cost
from ..nn.profile import ModelProfile
from .compute import ComputeDevice


class PartitionObjective(enum.Enum):
    """What the partitioner minimises."""

    LEAF_ENERGY = "leaf_energy"
    TOTAL_ENERGY = "total_energy"
    LATENCY = "latency"
    ENERGY_DELAY_PRODUCT = "energy_delay_product"


@dataclass(frozen=True)
class PartitionPoint:
    """Costs of cutting the model before layer ``split_index``."""

    split_index: int
    boundary_layer: str
    leaf_macs: int
    hub_macs: int
    transfer_bits: float
    leaf_compute_energy_joules: float
    hub_compute_energy_joules: float
    link_tx_energy_joules: float
    link_rx_energy_joules: float
    leaf_latency_seconds: float
    transfer_latency_seconds: float
    hub_latency_seconds: float

    @property
    def leaf_energy_joules(self) -> float:
        """Energy billed to the leaf node (compute + transmit)."""
        return self.leaf_compute_energy_joules + self.link_tx_energy_joules

    @property
    def hub_energy_joules(self) -> float:
        """Energy billed to the hub (receive + compute)."""
        return self.hub_compute_energy_joules + self.link_rx_energy_joules

    @property
    def total_energy_joules(self) -> float:
        """System energy per inference."""
        return self.leaf_energy_joules + self.hub_energy_joules

    @property
    def latency_seconds(self) -> float:
        """End-to-end inference latency (leaf, link, hub in series)."""
        return (
            self.leaf_latency_seconds
            + self.transfer_latency_seconds
            + self.hub_latency_seconds
        )

    @property
    def energy_delay_product(self) -> float:
        """Leaf energy times end-to-end latency."""
        return self.leaf_energy_joules * self.latency_seconds

    def objective_value(self, objective: PartitionObjective) -> float:
        """Value of *objective* at this split."""
        if objective is PartitionObjective.LEAF_ENERGY:
            return self.leaf_energy_joules
        if objective is PartitionObjective.TOTAL_ENERGY:
            return self.total_energy_joules
        if objective is PartitionObjective.LATENCY:
            return self.latency_seconds
        if objective is PartitionObjective.ENERGY_DELAY_PRODUCT:
            return self.energy_delay_product
        raise PartitionError(f"unknown objective: {objective!r}")


@dataclass(frozen=True)
class PartitionDecision:
    """Result of optimising the split for one model/link/devices tuple."""

    model_name: str
    objective: PartitionObjective
    best: PartitionPoint
    points: tuple[PartitionPoint, ...]
    technology: str

    @property
    def runs_fully_on_hub(self) -> bool:
        """Whether the optimum ships the raw input to the hub."""
        return self.best.leaf_macs == 0

    def improvement_over(self, split_index: int) -> float:
        """Objective at *split_index* divided by the optimum (>= 1)."""
        for point in self.points:
            if point.split_index == split_index:
                reference = point.objective_value(self.objective)
                best_value = self.best.objective_value(self.objective)
                if best_value == 0.0:
                    return float("inf") if reference > 0 else 1.0
                return reference / best_value
        raise PartitionError(f"no evaluated split with index {split_index}")


def evaluate_split(
    profile: ModelProfile,
    split_index: int,
    leaf_device: ComputeDevice,
    hub_device: ComputeDevice,
    technology: CommTechnology,
    include_wakeup: bool = False,
) -> PartitionPoint:
    """Cost one candidate split of *profile* across leaf and hub."""
    if not 0 <= split_index <= len(profile.layers):
        raise PartitionError(
            f"split index {split_index} out of range for "
            f"{len(profile.layers)} layers"
        )
    leaf_macs = profile.macs_before(split_index)
    hub_macs = profile.macs_after(split_index)
    transfer_bits = profile.transfer_bits_at(split_index)
    if split_index == 0:
        boundary = "<input>"
    else:
        boundary = profile.layers[split_index - 1].name

    cost = transfer_cost(technology, transfer_bits, include_wakeup=include_wakeup)
    return PartitionPoint(
        split_index=split_index,
        boundary_layer=boundary,
        leaf_macs=leaf_macs,
        hub_macs=hub_macs,
        transfer_bits=transfer_bits,
        leaf_compute_energy_joules=leaf_device.compute_energy_joules(
            leaf_macs, include_wakeup=include_wakeup
        ),
        hub_compute_energy_joules=hub_device.compute_energy_joules(
            hub_macs, include_wakeup=include_wakeup
        ),
        link_tx_energy_joules=cost.tx_energy_joules,
        link_rx_energy_joules=cost.rx_energy_joules,
        leaf_latency_seconds=leaf_device.compute_latency_seconds(
            leaf_macs, include_wakeup=include_wakeup
        ),
        transfer_latency_seconds=cost.latency_seconds,
        hub_latency_seconds=hub_device.compute_latency_seconds(
            hub_macs, include_wakeup=include_wakeup
        ),
    )


def sweep_partitions(
    profile: ModelProfile,
    leaf_device: ComputeDevice,
    hub_device: ComputeDevice,
    technology: CommTechnology,
    include_wakeup: bool = False,
) -> tuple[PartitionPoint, ...]:
    """Evaluate every split point of *profile*."""
    return tuple(
        evaluate_split(
            profile, split, leaf_device, hub_device, technology,
            include_wakeup=include_wakeup,
        )
        for split in profile.split_points()
    )


def optimal_partition(
    profile: ModelProfile,
    leaf_device: ComputeDevice,
    hub_device: ComputeDevice,
    technology: CommTechnology,
    objective: PartitionObjective = PartitionObjective.LEAF_ENERGY,
    include_wakeup: bool = False,
) -> PartitionDecision:
    """Choose the split point that minimises *objective*."""
    points = sweep_partitions(
        profile, leaf_device, hub_device, technology, include_wakeup=include_wakeup,
    )
    if not points:
        raise PartitionError("model has no split points")
    best = min(points, key=lambda point: point.objective_value(objective))
    return PartitionDecision(
        model_name=profile.model_name,
        objective=objective,
        best=best,
        points=points,
        technology=technology.name,
    )


def min_cut_partition(
    profile: ModelProfile,
    leaf_device: ComputeDevice,
    hub_device: ComputeDevice,
    technology: CommTechnology,
) -> int:
    """Leaf-energy-optimal split via a max-flow / min-cut formulation.

    The chain is embedded in a flow network with a source (``"leaf"``) and
    sink (``"hub"``): layer *i* is a node; the edge cut between layer
    ``i-1`` and ``i`` carries the cost of splitting there (leaf compute of
    the prefix plus transmit energy of the activation).  Because the graph
    is a chain, the minimum s-t cut equals the minimum over split points —
    this function exists as an independent check of
    :func:`optimal_partition` and as the extension point for non-chain
    model graphs.

    Returns the optimal split index.
    """
    points = sweep_partitions(profile, leaf_device, hub_device, technology)
    graph = nx.DiGraph()
    infinite = float("inf")
    n_layers = len(profile.layers)
    # Source -> first position and chain positions; cutting the edge into
    # position i corresponds to split index i.
    for point in points:
        cut_cost = point.leaf_energy_joules
        upstream = "leaf" if point.split_index == 0 else f"pos{point.split_index - 1}"
        downstream = (
            "hub" if point.split_index == n_layers else f"pos{point.split_index}"
        )
        graph.add_edge(upstream, downstream, capacity=cut_cost)
        if downstream != "hub":
            # Chain continuity: not cutting here must be free in the cut
            # direction is already encoded by the single path structure.
            pass
    if "leaf" not in graph or "hub" not in graph:
        raise PartitionError("flow network construction failed")
    cut_value, (leaf_side, hub_side) = nx.minimum_cut(graph, "leaf", "hub")
    # Identify which chain edge was cut: the split index whose upstream node
    # is on the leaf side and downstream node on the hub side.
    for point in points:
        upstream = "leaf" if point.split_index == 0 else f"pos{point.split_index - 1}"
        downstream = (
            "hub" if point.split_index == n_layers else f"pos{point.split_index}"
        )
        if upstream in leaf_side and downstream in hub_side:
            return point.split_index
    raise PartitionError(f"min-cut of value {cut_value} did not map to a split point")
