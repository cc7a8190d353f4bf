"""Population cohort specifications: thousands of wearers from one spec.

A :class:`CohortSpec` declares a *population* of instrumented bodies by
distribution — per-modality adoption rates, a link-technology mix, a MAC
policy mix, body-size and duty-cycle spreads — and deterministically
expands any member index into a concrete
:class:`~repro.scenarios.spec.ScenarioSpec`.  Member ``index`` always
samples from ``derive_seed(cohort seed, member index)``, never from a
shared stream, so member 4711 is the same wearer whether it is expanded
serially, inside shard 3 of 8, or alone for debugging — the property the
shard-merge bit-identity guarantee of the cohort engine rests on.

Sampling is columnar: :meth:`CohortSpec.draw` draws a whole member range
into a :class:`MemberDraws` table of flat arrays (one row per concrete
leaf, plus per-member columns) by advancing every member's stream side
by side (see :mod:`repro.cohort.streams`).  The analytic fast path reads
those arrays directly; :meth:`CohortSpec.member` builds a
:class:`~repro.scenarios.spec.ScenarioSpec` from one member's rows for
the members that actually run on the simulator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Iterator, Mapping

import numpy as np

from ..errors import ScenarioError
from ..runner.sweep import derive_seed, derive_seeds
from ..scenarios.spec import (
    ScenarioEvent,
    ScenarioNodeSpec,
    ScenarioSpec,
    battery_for,
    harvester_for,
    technology_for,
)
from ..sensors.catalog import SensorModality, modality_spec
from .distributions import Bernoulli, Categorical, Uniform
from .streams import StreamBlock, StreamOverrun

#: Fraction of the population wearing each modality (the "adoption rate").
#: Video is deliberately absent: first-person video is a hub workload,
#: not a leaf stream, in the paper's architecture.
DEFAULT_ADOPTION: Mapping[str, float] = {
    "temperature": 0.60,
    "ppg": 0.85,
    "ecg": 0.35,
    "emg": 0.10,
    "eeg": 0.05,
    "imu": 0.90,
    "audio": 0.50,
}

#: Sensing AFE power per modality (same figures as the scenario gallery).
SENSING_POWER_WATTS: Mapping[str, float] = {
    "temperature": 2e-6,
    "ppg": 80e-6,
    "ecg": 30e-6,
    "emg": 60e-6,
    "eeg": 200e-6,
    "imu": 15e-6,
    "audio": 140e-6,
}

#: In-sensor-analytics power for modalities that run a local pipeline.
ISA_POWER_WATTS: Mapping[str, float] = {
    "eeg": 40e-6,
    "audio": 50e-6,
}

#: Modalities whose wearers duty-cycle them (motion and voice interfaces);
#: vitals stream continuously.
DUTY_CYCLED_MODALITIES = ("audio", "imu")


#: Members drawn together: the unit :meth:`CohortSpec.members` and the
#: engine's analytic path stream a range in, which bounds their memory.
MEMBER_BLOCK = 8192


@functools.lru_cache(maxsize=None)
def _technology_rate_bps(key: str) -> float:
    return technology_for(key).data_rate_bps()


@dataclass(frozen=True)
class CohortMember:
    """One expanded member: its index, seed and ready-to-run scenario."""

    index: int
    seed: int
    scenario: ScenarioSpec


@dataclass(frozen=True)
class LeafKind:
    """One leaf a member may wear, minus what is drawn per member."""

    name: str
    modality: SensorModality | None
    rate_bps: float | None
    traffic: str
    sensing_power_watts: float
    isa_power_watts: float = 0.0
    duty_cycled: bool = False

    def resolved_rate_bps(self) -> float:
        if self.rate_bps is not None:
            return self.rate_bps
        return modality_spec(self.modality).compressed_data_rate_bps


#: The MQS glucose implant a member carries with ``CohortSpec.implant``.
IMPLANT_KIND = LeafKind(name="glucose_implant", modality=None,
                        rate_bps=1000.0, traffic="poisson",
                        sensing_power_watts=8e-6)

#: What a member whose adoption draws all failed wears instead.
BASELINE_KIND = LeafKind(name="temperature",
                         modality=SensorModality.TEMPERATURE, rate_bps=None,
                         traffic="periodic",
                         sensing_power_watts=SENSING_POWER_WATTS["temperature"])

#: Implant packet size and technology.
IMPLANT_BITS = 1024.0
IMPLANT_TECHNOLOGY = "mqs_implant"

#: Link of the baseline node (the ``ScenarioNodeSpec`` default).
BASELINE_TECHNOLOGY = "wir"


@dataclass(frozen=True, eq=False)
class MemberDraws:
    """A contiguous member range drawn into flat arrays.

    Leaf rows (``member`` … ``count``) hold one entry per concrete leaf,
    contiguous per member and in node order; a node worn ``count`` times
    contributes rows with ``replica`` 0 … ``count - 1``.  Per-member
    columns are indexed by position in the range.  ``kind``,
    ``technology``, ``arbitration``, ``battery`` and ``harvester`` are
    indices into the matching key tables (``-1``: no battery/harvester).
    """

    cohort: "CohortSpec"
    start: int
    seeds: tuple[int, ...]
    kinds: tuple[LeafKind, ...]
    technologies: tuple[str, ...]
    batteries: tuple[str, ...]
    harvesters: tuple[str, ...]
    # -- per member
    arbitration: np.ndarray
    overhead_seconds: np.ndarray
    battery: np.ndarray
    harvester: np.ndarray
    # -- per leaf row
    member: np.ndarray
    kind: np.ndarray
    technology: np.ndarray
    bits_per_packet: np.ndarray
    #: Fraction of the run the leaf is awake (its sleep event's time).
    awake: np.ndarray
    replica: np.ndarray
    count: np.ndarray

    def __len__(self) -> int:
        return len(self.seeds)

    @property
    def stop(self) -> int:
        return self.start + len(self.seeds)

    def member_names(self) -> list[str]:
        """Scenario names of the drawn members, in range order."""
        name = self.cohort.name
        return [f"{name}-{index:06d}" for index in range(self.start,
                                                          self.stop)]

    def member_at(self, position: int) -> CohortMember:
        """Build the :class:`ScenarioSpec` of the member at *position*."""
        cohort = self.cohort
        index = self.start + position
        first, last = np.searchsorted(self.member, [position, position + 1])
        battery = int(self.battery[position])
        harvester = int(self.harvester[position])
        energy = {}
        if battery >= 0:
            energy.update(battery=self.batteries[battery],
                          battery_scale=cohort.battery_scale)
        if harvester >= 0:
            energy.update(harvester=self.harvesters[harvester])
        nodes: list[ScenarioNodeSpec] = []
        events: list[ScenarioEvent] = []
        for row in range(first, last):
            if self.replica[row]:
                continue
            kind = self.kinds[self.kind[row]]
            nodes.append(ScenarioNodeSpec(
                name=kind.name,
                modality=kind.modality,
                rate_bps=kind.rate_bps,
                bits_per_packet=float(self.bits_per_packet[row]),
                technology=self.technologies[self.technology[row]],
                traffic=kind.traffic,
                count=int(self.count[row]),
                sensing_power_watts=kind.sensing_power_watts,
                isa_power_watts=kind.isa_power_watts,
                **energy,
            ))
            awake = float(self.awake[row])
            if kind.duty_cycled and awake < 1.0:
                events.append(ScenarioEvent(
                    at_fraction=awake, action="sleep",
                    node_prefixes=(kind.name,)))
        scenario = ScenarioSpec(
            name=f"{cohort.name}-{index:06d}",
            description=f"sampled member {index} of cohort {cohort.name!r}",
            duration_seconds=cohort.member_duration_seconds,
            nodes=tuple(nodes),
            arbitration=cohort.mac_policies.choices[self.arbitration[position]],
            hub_technology=cohort.hub_technology,
            events=tuple(events),
            per_packet_overhead_seconds=float(
                self.overhead_seconds[position]),
        )
        return CohortMember(index=index, seed=self.seeds[position],
                            scenario=scenario)


@dataclass(frozen=True)
class CohortSpec:
    """A population of wearers described by distributions.

    Parameters
    ----------
    population:
        Number of members the cohort expands to.
    seed:
        Root of the deterministic per-member seed derivation.
    member_duration_seconds:
        Simulated duration of each member's workload.
    adoption:
        Mapping of modality name to the probability a member wears it.
    technologies:
        Link-technology mix sampled per leaf node.  A sampled technology
        whose link rate cannot carry the modality's stream falls back to
        the hub technology (you cannot ship EEG over a sub-µW link).
    mac_policies:
        Arbitration-policy mix sampled per member.
    body_scale:
        Body-size factor; scales the per-packet MAC guard time (a longer
        body channel needs more turnaround margin).
    duty_cycle:
        Active fraction of duty-cycled modalities (motion, voice); the
        member sleeps those nodes for the rest of the run.
    motion_count:
        Number of IMU pods a motion-instrumented member wears.
    bits_per_packet:
        Packet-size mix; clamped per node so even the slowest stream
        produces several packets within the member duration.
    implant:
        Probability a member carries an MQS glucose implant.
    batteries:
        Optional battery mix sampled once per member and applied to all
        of that member's leaf nodes.  Choices are
        :data:`repro.scenarios.spec.BATTERY_FACTORIES` keys; an empty
        string means "no battery" (mains/hub-powered).  ``None`` (the
        default) disables battery sampling entirely — no extra RNG
        draws, so default cohorts expand bit-identically to before the
        energy runtime existed.
    battery_scale:
        Capacity multiplier applied to every sampled cell (compresses
        long lifetimes into short member runs).
    harvesters:
        Optional harvester mix, sampled like ``batteries`` (an empty
        string means "no harvester").
    """

    population: int = 1000
    name: str = "cohort"
    seed: int = 0
    member_duration_seconds: float = 60.0
    adoption: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_ADOPTION))
    technologies: Categorical = Categorical(
        choices=("wir", "wir_leaf", "ble"), weights=(0.60, 0.25, 0.15))
    mac_policies: Categorical = Categorical(
        choices=("fifo", "tdma", "polling"), weights=(0.40, 0.35, 0.25))
    body_scale: Uniform = Uniform(0.85, 1.20)
    duty_cycle: Uniform = Uniform(0.35, 1.0)
    motion_count: Categorical = Categorical(choices=(1, 2, 3))
    bits_per_packet: Categorical = Categorical(
        choices=(2048.0, 4096.0, 8192.0))
    implant: Bernoulli = Bernoulli(0.08)
    hub_technology: str = "wir"
    batteries: Categorical | None = None
    battery_scale: float = 1.0
    harvesters: Categorical | None = None

    def __post_init__(self) -> None:
        if self.population < 1:
            raise ScenarioError("cohort population must be >= 1")
        if not self.name:
            raise ScenarioError("cohort name must be non-empty")
        if self.member_duration_seconds <= 0:
            raise ScenarioError("member duration must be positive")
        if not self.adoption:
            raise ScenarioError("cohort adoption table must not be empty")
        for modality_name, probability in self.adoption.items():
            try:
                SensorModality(modality_name)
            except ValueError:
                known = ", ".join(sorted(m.value for m in SensorModality))
                raise ScenarioError(
                    f"unknown modality {modality_name!r} "
                    f"(known: {known})") from None
            if not 0.0 <= probability <= 1.0:
                raise ScenarioError(
                    f"adoption rate for {modality_name!r} must be in [0, 1]: "
                    f"{probability}")
        for policy in self.mac_policies.choices:
            if policy not in ("fifo", "tdma", "polling"):
                raise ScenarioError(f"unknown MAC policy {policy!r}")
        hub_rate = _technology_rate_bps(self.hub_technology)
        for modality_name, probability in self.adoption.items():
            rate = modality_spec(
                SensorModality(modality_name)).compressed_data_rate_bps
            if probability > 0.0 and rate > hub_rate:
                raise ScenarioError(
                    f"modality {modality_name!r} offers {rate:.3g} bit/s, "
                    f"more than the {self.hub_technology!r} hub link's "
                    f"{hub_rate:.3g} bit/s")
        for count in self.motion_count.choices:
            if (isinstance(count, bool) or not isinstance(count, Integral)
                    or count < 1):
                raise ScenarioError(
                    f"motion count choices must be ints >= 1: {count!r}")
        for bits in self.bits_per_packet.choices:
            if isinstance(bits, bool) or not math.isfinite(float(bits)):
                raise ScenarioError(
                    f"packet size choices must be finite numbers: {bits!r}")
        for key in self.technologies.choices:
            technology_for(key)
        if self.body_scale.low <= 0:
            raise ScenarioError("body scale must be positive")
        if not 0.0 < self.duty_cycle.low <= self.duty_cycle.high <= 1.0:
            raise ScenarioError("duty cycle must lie in (0, 1]")
        if self.battery_scale <= 0:
            raise ScenarioError("battery scale must be positive")
        if self.batteries is not None:
            for key in self.batteries.choices:
                if key:
                    battery_for(str(key))  # raises with the known list
        if self.harvesters is not None:
            for key in self.harvesters.choices:
                if key:
                    harvester_for(str(key))  # raises with the known list

    # -- member expansion --------------------------------------------------

    def member_seed(self, index: int) -> int:
        """Deterministic seed of one member, independent of shard layout."""
        if not 0 <= index < self.population:
            raise ScenarioError(
                f"member index {index} outside population "
                f"[0, {self.population})")
        return derive_seed(self.seed, f"cohort:{self.name}",
                           {"member": index})

    def leaf_kinds(self) -> tuple[LeafKind, ...]:
        """Every leaf a member may wear: the adoption table's modalities
        in sorted order, then the implant, then the baseline node."""
        kinds = [LeafKind(name=name, modality=SensorModality(name),
                          rate_bps=None, traffic="periodic",
                          sensing_power_watts=SENSING_POWER_WATTS[name],
                          isa_power_watts=ISA_POWER_WATTS.get(name, 0.0),
                          duty_cycled=name in DUTY_CYCLED_MODALITIES)
                 for name in sorted(self.adoption)]
        return (*kinds, IMPLANT_KIND, BASELINE_KIND)

    def draw(self, start: int, stop: int) -> MemberDraws:
        """Draw members ``[start, stop)`` into one columnar table.

        Each member consumes its own ``default_rng(member_seed(index))``
        stream in the historical draw order: per sorted modality the
        adoption coin, then — if adopted — technology, motion-pod count
        (IMU), packet size and duty cycle (motion/voice); then the
        implant coin, the battery and harvester keys (when those mixes
        are set), the MAC policy and the body scale.
        """
        if not 0 <= start <= stop <= self.population:
            raise ScenarioError(
                f"member range [{start}, {stop}) outside population "
                f"[0, {self.population})")
        seeds = derive_seeds(self.seed, f"cohort:{self.name}", "member",
                             range(start, stop))
        kinds = self.leaf_kinds()
        # Upper bound on 64-bit words one member consumes (an integer
        # draw takes at most one); a rejection-sampling redraw can exceed
        # it, in which case the block is simply re-read wider.
        width = 5 * (len(kinds) - 2) + 8
        while True:
            try:
                stream = StreamBlock(np.asarray(seeds, dtype=np.uint32),
                                     width)
                return self._draw_block(start, tuple(seeds), kinds, stream)
            except StreamOverrun:
                width *= 2

    def _draw_block(self, start: int, seeds: tuple[int, ...],
                    kinds: tuple[LeafKind, ...],
                    stream: StreamBlock) -> MemberDraws:
        size = len(seeds)
        everyone = np.ones(size, dtype=bool)
        technologies = tuple(dict.fromkeys(
            (*map(str, self.technologies.choices), self.hub_technology,
             IMPLANT_TECHNOLOGY, BASELINE_TECHNOLOGY)))
        hub = technologies.index(self.hub_technology)
        choice_keys = np.array([technologies.index(str(choice))
                                for choice in self.technologies.choices])
        hub_rate = _technology_rate_bps(self.hub_technology)
        motion_counts = np.array([int(count)
                                  for count in self.motion_count.choices])
        packet_sizes = np.array([float(bits)
                                 for bits in self.bits_per_packet.choices])

        slots = len(kinds)
        count = np.zeros((size, slots), dtype=np.int64)
        technology = np.zeros((size, slots), dtype=np.int64)
        bits = np.zeros((size, slots))
        awake = np.ones((size, slots))
        for slot, kind in enumerate(kinds[:-2]):
            adopted = stream.random(everyone) < self.adoption[kind.name]
            rate = kind.resolved_rate_bps()
            # A technology too slow for the stream falls back to the hub's.
            too_slow = np.array([rate > _technology_rate_bps(str(choice))
                                 or rate > hub_rate
                                 for choice in self.technologies.choices])
            choice = self.technologies.draw(stream, adopted)
            technology[adopted, slot] = np.where(too_slow[choice], hub,
                                                 choice_keys[choice])
            count[adopted, slot] = (
                motion_counts[self.motion_count.draw(stream, adopted)]
                if kind.modality is SensorModality.IMU else 1)
            # Clamp the packet size so every stream emits at least a
            # handful of packets inside the member duration; without this
            # a 16 bit/s temperature stream would never fill one packet.
            drawn = packet_sizes[self.bits_per_packet.draw(stream, adopted)]
            bits[adopted, slot] = np.maximum(64.0, np.minimum(
                drawn, rate * self.member_duration_seconds / 4.0))
            if kind.duty_cycled:
                awake[adopted, slot] = self.duty_cycle.draw(stream, adopted)

        implant = self.implant.draw(stream, everyone)
        count[:, -2] = implant
        technology[:, -2] = technologies.index(IMPLANT_TECHNOLOGY)
        bits[:, -2] = IMPLANT_BITS
        # Everyone wears *something*: an unlucky adoption draw still
        # yields a valid (minimal) body network.
        count[:, -1] = count.sum(axis=1) == 0
        technology[:, -1] = technologies.index(BASELINE_TECHNOLOGY)
        bits[:, -1] = max(64.0, BASELINE_KIND.resolved_rate_bps()
                          * self.member_duration_seconds / 4.0)

        # Energy sampling happens after the node draws so that disabling
        # it (the default) leaves the member's RNG stream — and therefore
        # every historical cohort — bit-identical.
        battery, batteries = self._draw_keys(self.batteries, stream, everyone)
        harvester, harvesters = self._draw_keys(self.harvesters, stream,
                                                everyone)
        arbitration = self.mac_policies.draw(stream, everyone)
        overhead = 100e-6 * self.body_scale.draw(stream, everyone)

        flat_count = count.ravel()
        node = np.repeat(np.arange(size * slots), flat_count)
        first_row = np.cumsum(flat_count) - flat_count
        return MemberDraws(
            cohort=self,
            start=start,
            seeds=seeds,
            kinds=kinds,
            technologies=technologies,
            batteries=batteries,
            harvesters=harvesters,
            arbitration=arbitration,
            overhead_seconds=overhead,
            battery=battery,
            harvester=harvester,
            member=node // slots,
            kind=node % slots,
            technology=technology.ravel()[node],
            bits_per_packet=bits.ravel()[node],
            awake=awake.ravel()[node],
            replica=np.arange(len(node)) - first_row[node],
            count=flat_count[node],
        )

    @staticmethod
    def _draw_keys(mix: Categorical | None, stream: StreamBlock,
                   everyone: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
        """Per-member index into the mix's non-empty keys (-1: none)."""
        if mix is None:
            return np.full(len(everyone), -1, dtype=np.int64), ()
        keys = tuple(dict.fromkeys(str(choice) for choice in mix.choices
                                   if str(choice)))
        lookup = np.array([keys.index(str(choice)) if str(choice) else -1
                           for choice in mix.choices])
        return lookup[mix.draw(stream, everyone)], keys

    def member(self, index: int) -> CohortMember:
        """Expand member *index* into its concrete scenario."""
        self.member_seed(index)  # bounds check
        return self.draw(index, index + 1).member_at(0)

    def members(self, start: int = 0,
                stop: int | None = None) -> Iterator[CohortMember]:
        """Expand a contiguous member range (the unit a shard works on)."""
        stop = self.population if stop is None else stop
        if not 0 <= start <= stop <= self.population:
            raise ScenarioError(
                f"member range [{start}, {stop}) outside population "
                f"[0, {self.population})")
        for block in range(start, stop, MEMBER_BLOCK):
            draws = self.draw(block, min(block + MEMBER_BLOCK, stop))
            for position in range(len(draws)):
                yield draws.member_at(position)

    def describe(self) -> dict[str, object]:
        """Summary row for reports."""
        return {
            "cohort": self.name,
            "population": self.population,
            "member_seconds": self.member_duration_seconds,
            "modalities": ",".join(sorted(self.adoption)),
            "technologies": ",".join(str(c) for c in self.technologies.choices),
            "mac_policies": ",".join(str(c) for c in self.mac_policies.choices),
            "seed": self.seed,
        }
