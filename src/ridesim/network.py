"""Directed highway network: file ingestion and the flow-dependent travel time.

The network file is YAML with a ``nodes`` list and a ``links`` array; see
``data/la_testbed.yaml`` for the bundled four-link testbed. Unknown keys are
rejected so typos fail loudly.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import yaml

MAX_FREE_FLOW_SPEED_MPH = 100.0


class LaneClass(str, Enum):
    GENERAL = "general"
    CARPOOL = "carpool"


class NetworkFormatError(ValueError):
    """Raised when the network file cannot be parsed into the schema."""


class NetworkValidationError(ValueError):
    """Raised when a parsed network violates a structural invariant."""


@dataclass(frozen=True)
class Node:
    id: int


@dataclass(frozen=True)
class Link:
    id: int
    from_node: int
    to_node: int
    length: float               # miles
    free_flow_time: float       # hours
    has_carpool_lane: bool
    general_lanes: int = 4
    lane_capacity: float = 2000.0   # vehicles/hour per lane
    toll: float = 0.0
    observed_daily_flow: float = 0.0

    def validate(self) -> None:
        if self.length <= 0:
            raise NetworkValidationError(f"link {self.id}: length must be > 0")
        if self.free_flow_time <= 0:
            raise NetworkValidationError(f"link {self.id}: free_flow_time must be > 0")
        speed = self.length / self.free_flow_time
        if speed > MAX_FREE_FLOW_SPEED_MPH:
            raise NetworkValidationError(
                f"link {self.id}: implied free-flow speed {speed:.1f} mph is not plausible"
            )
        if self.from_node == self.to_node:
            raise NetworkValidationError(f"link {self.id}: self-loop")
        if self.general_lanes < 1:
            raise NetworkValidationError(f"link {self.id}: general_lanes must be >= 1")
        if self.lane_capacity <= 0:
            raise NetworkValidationError(f"link {self.id}: lane_capacity must be > 0")
        if self.toll < 0:
            raise NetworkValidationError(f"link {self.id}: negative toll")
        if self.observed_daily_flow < 0:
            raise NetworkValidationError(f"link {self.id}: negative observed_daily_flow")

    def lanes(self, lane_class: LaneClass) -> int:
        return 1 if lane_class is LaneClass.CARPOOL else self.general_lanes


@dataclass(frozen=True)
class Network:
    nodes: tuple[Node, ...]
    links: tuple[Link, ...]

    def __post_init__(self) -> None:
        node_ids = [n.id for n in self.nodes]
        if len(set(node_ids)) != len(node_ids):
            raise NetworkValidationError("duplicate node ids")
        known = set(node_ids)
        link_ids = [l.id for l in self.links]
        if len(set(link_ids)) != len(link_ids):
            raise NetworkValidationError("duplicate link ids")
        for link in self.links:
            link.validate()
            for end in (link.from_node, link.to_node):
                if end not in known:
                    raise NetworkValidationError(
                        f"link {link.id}: endpoint node {end} not declared"
                    )
        adjacency: dict[int, list[int]] = {n: [] for n in node_ids}
        for link in sorted(self.links, key=lambda l: l.id):
            adjacency[link.from_node].append(link.id)
        object.__setattr__(self, "_adjacency", adjacency)
        object.__setattr__(self, "_by_id", {l.id: l for l in self.links})
        object.__setattr__(self, "_node_ids", tuple(sorted(node_ids)))
        object.__setattr__(self, "_next_hops", {})

    @property
    def adjacency(self) -> dict[int, list[int]]:
        """Outgoing link ids per node, ordered by link id."""
        return self._adjacency  # type: ignore[attr-defined]

    def next_hops(self, node: int, dest: int) -> tuple[int, ...]:
        """Outgoing link ids of ``node``, in adjacency order, whose head
        reaches ``dest`` (the head may be ``dest`` itself).

        Empty exactly when no path leads from ``node`` to ``dest``. The
        table for a destination is built lazily, by one reverse search from
        ``dest`` on its first lookup, and memoised on the network, so every
        caller sharing the network reuses it; a later lookup for the same
        pair returns the same tuple object.
        """
        table = self._next_hops.get(dest)  # type: ignore[attr-defined]
        if table is None:
            table = self._build_next_hops(dest)
        return table[node]

    def _build_next_hops(self, dest: int) -> dict[int, tuple[int, ...]]:
        if dest not in self._adjacency:  # type: ignore[attr-defined]
            raise ValueError(f"destination {dest} not in network")
        tails: dict[int, list[int]] = {}
        for link in self.links:
            tails.setdefault(link.to_node, []).append(link.from_node)
        reaches = {dest}
        stack = [dest]
        while stack:
            for tail in tails.get(stack.pop(), ()):
                if tail not in reaches:
                    reaches.add(tail)
                    stack.append(tail)
        table = {
            node: tuple(lid for lid in out if self.link(lid).to_node in reaches)
            for node, out in self.adjacency.items()
        }
        self._next_hops[dest] = table  # type: ignore[attr-defined]
        return table

    def link(self, link_id: int) -> Link:
        return self._by_id[link_id]  # type: ignore[attr-defined]

    def node_ids(self) -> tuple[int, ...]:
        """Every node id, ascending."""
        return self._node_ids  # type: ignore[attr-defined]

    def carpool_links(self) -> list[Link]:
        return [l for l in self.links if l.has_carpool_lane]


_LINK_REQUIRED = {"id", "from", "to", "length", "free_flow_time", "has_carpool_lane"}
_LINK_OPTIONAL = {"general_lanes", "lane_capacity", "toll", "observed_daily_flow"}


def _parse_link(entry: dict, index: int) -> Link:
    if not isinstance(entry, dict):
        raise NetworkFormatError(f"links[{index}]: expected a mapping")
    keys = set(entry)
    missing = _LINK_REQUIRED - keys
    if missing:
        raise NetworkFormatError(f"links[{index}]: missing field(s) {sorted(missing)}")
    unknown = keys - _LINK_REQUIRED - _LINK_OPTIONAL
    if unknown:
        raise NetworkFormatError(f"links[{index}]: unknown field(s) {sorted(unknown)}")
    try:
        return Link(
            id=int(entry["id"]),
            from_node=int(entry["from"]),
            to_node=int(entry["to"]),
            length=float(entry["length"]),
            free_flow_time=float(entry["free_flow_time"]),
            has_carpool_lane=bool(entry["has_carpool_lane"]),
            general_lanes=int(entry.get("general_lanes", 4)),
            lane_capacity=float(entry.get("lane_capacity", 2000.0)),
            toll=float(entry.get("toll", 0.0)),
            observed_daily_flow=float(entry.get("observed_daily_flow", 0.0)),
        )
    except (TypeError, ValueError) as exc:
        raise NetworkFormatError(f"links[{index}]: {exc}") from exc


# libyaml's parser where PyYAML was built with it; the resolver and the
# constructor are PyYAML's either way, so the values equal ``yaml.safe_load``'s
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def read_yaml(path: Path) -> object:
    """Parse one YAML file as ``yaml.safe_load`` would; raises ``yaml.YAMLError``."""
    return yaml.load(path.read_text(), Loader=_YAML_LOADER)


def load_network(path: str | Path) -> Network:
    """Load and validate a network file.

    Raises NetworkFormatError on malformed files (naming the offending
    field) and NetworkValidationError on invariant violations (naming the
    link id).
    """
    path = Path(path)
    try:
        raw = read_yaml(path)
    except yaml.YAMLError as exc:
        raise NetworkFormatError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise NetworkFormatError(f"{path}: top level must be a mapping")
    unknown = set(raw) - {"nodes", "links"}
    if unknown:
        raise NetworkFormatError(f"{path}: unknown top-level key(s) {sorted(unknown)}")
    if "nodes" not in raw or "links" not in raw:
        raise NetworkFormatError(f"{path}: 'nodes' and 'links' are required")
    if not isinstance(raw["nodes"], list):
        raise NetworkFormatError(f"{path}: 'nodes' must be a list of node ids")
    if not isinstance(raw["links"], list):
        raise NetworkFormatError(f"{path}: 'links' must be an array")
    nodes = tuple(Node(int(n)) for n in raw["nodes"])
    links = tuple(_parse_link(entry, i) for i, entry in enumerate(raw["links"]))
    return Network(nodes=nodes, links=links)


def flow_distribution(counts: dict[int, float]) -> dict[int, float]:
    """Normalize per-link vehicle counts into proportions summing to 1."""
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("flow distribution undefined for all-zero counts")
    return {link_id: count / total for link_id, count in counts.items()}


def volume_delay(link: Link, lane_class: LaneClass, flow: float,
                 alpha: float, beta: float) -> float:
    """Congested travel time (hours) for ``flow`` vehicles/hour on one lane class.

    BPR form: free_flow_time * (1 + alpha * (flow / capacity) ** beta) with
    capacity = lanes * lane_capacity; the carpool class is a single lane.
    Monotone non-decreasing in flow and equal to free_flow_time at zero flow.
    """
    if flow < 0:
        raise ValueError("negative flow")
    capacity = link.lanes(lane_class) * link.lane_capacity
    return link.free_flow_time * (1.0 + alpha * (flow / capacity) ** beta)
