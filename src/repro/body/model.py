"""Body graph model: on-body distances and node placement.

The body is modelled as an undirected graph whose nodes are
:class:`~repro.body.landmarks.BodyLandmark` values and whose edges are
anatomical segments with lengths in metres (scaled from a configurable
body height).  The shortest path between two landmarks along the body
surface is the *channel length* that the EQS-HBC and RF channel models
consume.  The paper's claim that body channels are 1--2 m long while RF
radiates 5--10 m is checked against this model in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import PlacementError
from .landmarks import BodyLandmark

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

#: Anatomical segments (landmark pairs) with lengths expressed as a
#: fraction of body height.  Derived from standard anthropometric segment
#: ratios (Drillis & Contini); absolute accuracy is not needed, only that
#: wrist-to-pocket style paths land in the 0.5--2 m range for an adult.
_SEGMENT_FRACTIONS: list[tuple[BodyLandmark, BodyLandmark, float]] = [
    (BodyLandmark.HEAD_CROWN, BodyLandmark.FOREHEAD, 0.06),
    (BodyLandmark.FOREHEAD, BodyLandmark.LEFT_EYE, 0.03),
    (BodyLandmark.FOREHEAD, BodyLandmark.RIGHT_EYE, 0.03),
    (BodyLandmark.LEFT_EYE, BodyLandmark.LEFT_EAR, 0.05),
    (BodyLandmark.RIGHT_EYE, BodyLandmark.RIGHT_EAR, 0.05),
    (BodyLandmark.LEFT_EAR, BodyLandmark.NECK, 0.09),
    (BodyLandmark.RIGHT_EAR, BodyLandmark.NECK, 0.09),
    (BodyLandmark.FOREHEAD, BodyLandmark.NECK, 0.11),
    (BodyLandmark.NECK, BodyLandmark.CHEST, 0.09),
    (BodyLandmark.CHEST, BodyLandmark.STERNUM, 0.03),
    (BodyLandmark.CHEST, BodyLandmark.WAIST, 0.17),
    (BodyLandmark.NECK, BodyLandmark.LEFT_SHOULDER, 0.10),
    (BodyLandmark.NECK, BodyLandmark.RIGHT_SHOULDER, 0.10),
    (BodyLandmark.LEFT_SHOULDER, BodyLandmark.LEFT_UPPER_ARM, 0.09),
    (BodyLandmark.RIGHT_SHOULDER, BodyLandmark.RIGHT_UPPER_ARM, 0.09),
    (BodyLandmark.LEFT_UPPER_ARM, BodyLandmark.LEFT_ELBOW, 0.09),
    (BodyLandmark.RIGHT_UPPER_ARM, BodyLandmark.RIGHT_ELBOW, 0.09),
    (BodyLandmark.LEFT_ELBOW, BodyLandmark.LEFT_FOREARM, 0.07),
    (BodyLandmark.RIGHT_ELBOW, BodyLandmark.RIGHT_FOREARM, 0.07),
    (BodyLandmark.LEFT_FOREARM, BodyLandmark.LEFT_WRIST, 0.07),
    (BodyLandmark.RIGHT_FOREARM, BodyLandmark.RIGHT_WRIST, 0.07),
    (BodyLandmark.LEFT_WRIST, BodyLandmark.LEFT_HAND, 0.05),
    (BodyLandmark.RIGHT_WRIST, BodyLandmark.RIGHT_HAND, 0.05),
    (BodyLandmark.LEFT_HAND, BodyLandmark.LEFT_INDEX_FINGER, 0.05),
    (BodyLandmark.RIGHT_HAND, BodyLandmark.RIGHT_INDEX_FINGER, 0.05),
    (BodyLandmark.WAIST, BodyLandmark.LEFT_POCKET, 0.07),
    (BodyLandmark.WAIST, BodyLandmark.RIGHT_POCKET, 0.07),
    (BodyLandmark.WAIST, BodyLandmark.LEFT_THIGH, 0.12),
    (BodyLandmark.WAIST, BodyLandmark.RIGHT_THIGH, 0.12),
    (BodyLandmark.LEFT_POCKET, BodyLandmark.LEFT_THIGH, 0.06),
    (BodyLandmark.RIGHT_POCKET, BodyLandmark.RIGHT_THIGH, 0.06),
    (BodyLandmark.LEFT_THIGH, BodyLandmark.LEFT_KNEE, 0.12),
    (BodyLandmark.RIGHT_THIGH, BodyLandmark.RIGHT_KNEE, 0.12),
    (BodyLandmark.LEFT_KNEE, BodyLandmark.LEFT_SHANK, 0.12),
    (BodyLandmark.RIGHT_KNEE, BodyLandmark.RIGHT_SHANK, 0.12),
    (BodyLandmark.LEFT_SHANK, BodyLandmark.LEFT_ANKLE, 0.12),
    (BodyLandmark.RIGHT_SHANK, BodyLandmark.RIGHT_ANKLE, 0.12),
    (BodyLandmark.LEFT_ANKLE, BodyLandmark.LEFT_FOOT, 0.04),
    (BodyLandmark.RIGHT_ANKLE, BodyLandmark.RIGHT_FOOT, 0.04),
]


@dataclass(frozen=True)
class Placement:
    """A named device placed at a body landmark."""

    device_name: str
    landmark: BodyLandmark


@dataclass
class BodyModel:
    """Graph model of the body surface.

    Parameters
    ----------
    height_metres:
        Standing height of the subject; all segment lengths scale with it.
    """

    height_metres: float = 1.75
    _graph: nx.Graph = field(init=False, repr=False)
    _placements: dict[str, Placement] = field(init=False, default_factory=dict,
                                              repr=False)

    def __post_init__(self) -> None:
        if self.height_metres <= 0:
            raise PlacementError(
                f"body height must be positive, got {self.height_metres}"
            )
        # networkx is imported where it is used, so importing the body
        # package (every scenario does) does not load it.
        import networkx as nx

        graph = nx.Graph()
        for left, right, fraction in _SEGMENT_FRACTIONS:
            graph.add_edge(left, right, length=fraction * self.height_metres)
        self._graph = graph

    @property
    def graph(self) -> nx.Graph:
        """The underlying networkx graph (landmarks as nodes)."""
        return self._graph

    def landmarks(self) -> list[BodyLandmark]:
        """All landmarks known to this body model."""
        return list(self._graph.nodes)

    def segment_length(self, a: BodyLandmark, b: BodyLandmark) -> float:
        """Length of the direct anatomical segment between *a* and *b*."""
        if not self._graph.has_edge(a, b):
            raise PlacementError(f"no direct segment between {a} and {b}")
        return self._graph.edges[a, b]["length"]

    def channel_length(self, a: BodyLandmark, b: BodyLandmark) -> float:
        """Shortest on-body path length between two landmarks in metres."""
        self._require_landmark(a)
        self._require_landmark(b)
        if a == b:
            return 0.0
        import networkx as nx

        return nx.shortest_path_length(self._graph, a, b, weight="length")

    def channel_path(self, a: BodyLandmark, b: BodyLandmark) -> list[BodyLandmark]:
        """Sequence of landmarks along the shortest on-body path."""
        self._require_landmark(a)
        self._require_landmark(b)
        import networkx as nx

        return nx.shortest_path(self._graph, a, b, weight="length")

    def place(self, device_name: str, landmark: BodyLandmark) -> Placement:
        """Register a device at a landmark (replacing any previous placement)."""
        self._require_landmark(landmark)
        placement = Placement(device_name=device_name, landmark=landmark)
        self._placements[device_name] = placement
        return placement

    def placement(self, device_name: str) -> Placement:
        """Look up where a device was placed."""
        try:
            return self._placements[device_name]
        except KeyError as exc:
            raise PlacementError(f"device {device_name!r} has not been placed") from exc

    def placements(self) -> list[Placement]:
        """All registered placements in insertion order."""
        return list(self._placements.values())

    def device_distance(self, device_a: str, device_b: str) -> float:
        """On-body channel length between two placed devices."""
        a = self.placement(device_a).landmark
        b = self.placement(device_b).landmark
        return self.channel_length(a, b)

    def max_channel_length(self) -> float:
        """Longest on-body path (e.g. finger to opposite foot).

        The paper quotes typical IoB channel lengths of 1--2 m; this is
        the upper end for an adult body.
        """
        import networkx as nx

        lengths = dict(nx.all_pairs_dijkstra_path_length(self._graph, weight="length"))
        return max(max(row.values()) for row in lengths.values())

    def _require_landmark(self, landmark: BodyLandmark) -> None:
        if landmark not in self._graph:
            raise PlacementError(f"unknown landmark: {landmark!r}")


def default_adult_body() -> BodyModel:
    """A 1.75 m adult body model (the default subject in experiments)."""
    return BodyModel(height_metres=1.75)
