"""Directed highway network: file ingestion and the flow-dependent travel time.

The network file is YAML with a ``nodes`` list and a ``links`` array; see
``data/la_testbed.yaml`` for the bundled four-link testbed. Unknown keys are
rejected so typos fail loudly. Values are read by ``whole_number`` and
``number``, the rules scenario files are read by too, and each error names
``nodes[j]`` or ``links[i].<field>``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import yaml

MAX_FREE_FLOW_SPEED_MPH = 100.0


class LaneClass(str, Enum):
    GENERAL = "general"
    CARPOOL = "carpool"


class ConfigError(ValueError):
    """Bad input: a scenario file, a network file or a flag. The message
    names the offending field; the CLI reports it with exit code 2."""


def whole_number(value: object, name: str) -> int:
    """``value`` as an int; a bool, a string or a number with a fraction
    raises ConfigError naming ``name``."""
    if (isinstance(value, (bool, str))
            or (isinstance(value, float) and not value.is_integer())):
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a whole number, got {value!r}") from exc


def number(value: object, name: str) -> float:
    """``value`` as a float; a bool or a string raises ConfigError naming
    ``name``, rather than reading as 0 or 1 or as the number it spells."""
    if isinstance(value, (bool, str)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a number, got {value!r}") from exc


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

    def validate(self, index: int) -> None:
        """Raise ConfigError naming ``links[index].<field>`` and
        the link id; ``index`` is the link's place in ``Network.links``,
        which is its place in the network file."""
        def fail(field: str, problem: str) -> None:
            raise ConfigError(
                f"links[{index}].{field} (link {self.id}): {problem}")

        for field in ("length", "free_flow_time", "lane_capacity", "toll",
                      "observed_daily_flow"):
            value = getattr(self, field)
            if not math.isfinite(value):
                fail(field, f"must be finite, got {value}")
        if self.length <= 0:
            fail("length", "must be > 0")
        if self.free_flow_time <= 0:
            fail("free_flow_time", "must be > 0")
        speed = self.length / self.free_flow_time
        if speed > MAX_FREE_FLOW_SPEED_MPH:
            fail("free_flow_time",
                 f"implied free-flow speed {speed:.1f} mph is not plausible")
        if self.from_node == self.to_node:
            fail("to", "self-loop")
        if self.general_lanes < 1:
            fail("general_lanes", "must be >= 1")
        if self.lane_capacity <= 0:
            fail("lane_capacity", "must be > 0")
        if self.toll < 0:
            fail("toll", "must not be negative")
        if self.observed_daily_flow < 0:
            fail("observed_daily_flow", "must not be negative")

    def lanes(self, lane_class: LaneClass) -> int:
        return 1 if lane_class is LaneClass.CARPOOL else self.general_lanes


@dataclass(frozen=True)
class Network:
    nodes: tuple[Node, ...]
    links: tuple[Link, ...]

    def __post_init__(self) -> None:
        node_ids = [n.id for n in self.nodes]
        if len(set(node_ids)) != len(node_ids):
            raise ConfigError("duplicate node ids")
        known = set(node_ids)
        link_ids = [l.id for l in self.links]
        if len(set(link_ids)) != len(link_ids):
            raise ConfigError("duplicate link ids")
        for index, link in enumerate(self.links):
            link.validate(index)
            for end in (link.from_node, link.to_node):
                if end not in known:
                    raise ConfigError(
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
# the reader of each optional field; an absent one takes ``Link``'s default
_LINK_OPTIONAL = {"general_lanes": whole_number, "lane_capacity": number,
                  "toll": number, "observed_daily_flow": number}


def _parse_link(entry: dict, index: int) -> Link:
    if not isinstance(entry, dict):
        raise ConfigError(f"links[{index}]: expected a mapping")
    keys = set(entry)
    missing = _LINK_REQUIRED - keys
    if missing:
        raise ConfigError(f"links[{index}]: missing field(s) {sorted(missing)}")
    unknown = keys - _LINK_REQUIRED - _LINK_OPTIONAL.keys()
    if unknown:
        raise ConfigError(f"links[{index}]: unknown field(s) {sorted(unknown)}")
    where = f"links[{index}]"
    carpool = entry["has_carpool_lane"]
    if not isinstance(carpool, bool):
        raise ConfigError(f"{where}.has_carpool_lane must be true or false, "
                                 f"got {carpool!r}")
    return Link(
        id=whole_number(entry["id"], f"{where}.id"),
        from_node=whole_number(entry["from"], f"{where}.from"),
        to_node=whole_number(entry["to"], f"{where}.to"),
        length=number(entry["length"], f"{where}.length"),
        free_flow_time=number(entry["free_flow_time"], f"{where}.free_flow_time"),
        has_carpool_lane=carpool,
        **{name: read(entry[name], f"{where}.{name}")
           for name, read in _LINK_OPTIONAL.items() if name in entry},
    )


# libyaml's parser where PyYAML was built with it; the resolver and the
# constructor are PyYAML's either way, so the values equal ``yaml.safe_load``'s
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def read_yaml(path: Path) -> object:
    """Parse one YAML file as ``yaml.safe_load`` would; raises ``yaml.YAMLError``."""
    return yaml.load(path.read_text(), Loader=_YAML_LOADER)


def load_network(path: str | Path) -> Network:
    """Load and validate a network file.

    Raises ConfigError on a malformed file or a broken invariant, naming
    the offending field (and, for a link, its id).
    """
    path = Path(path)
    try:
        raw = read_yaml(path)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    unknown = set(raw) - {"nodes", "links"}
    if unknown:
        raise ConfigError(f"{path}: unknown top-level key(s) {sorted(unknown)}")
    if "nodes" not in raw or "links" not in raw:
        raise ConfigError(f"{path}: 'nodes' and 'links' are required")
    if not isinstance(raw["nodes"], list):
        raise ConfigError(f"{path}: 'nodes' must be a list of node ids")
    if not isinstance(raw["links"], list):
        raise ConfigError(f"{path}: 'links' must be an array")
    nodes = tuple(Node(whole_number(n, f"nodes[{j}]")) for j, n in enumerate(raw["nodes"]))
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
