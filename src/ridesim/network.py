"""Directed highway network, the reader of every input file, and the
flow-dependent travel time.

Both input files, the scenario and the network, are read by ``read_section``
from schema dataclasses. The network file is YAML with a ``nodes`` list and
a ``links`` list (the schema is ``Network`` and ``Link``); see
``data/la_testbed.yaml`` for the bundled four-link testbed.

A number's range is declared once, at its schema field (``bounded``), and
checked by ``check_bounds`` alone, which a section's ``__post_init__`` calls
(a link's by ``Network.__post_init__``), so a section built in code is
checked as a file's is. Every range error reads ``<name> <value> outside
<interval>``; a ``__post_init__`` adds only the rules that relate values.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import typing
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Optional

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
    except OverflowError as exc:  # an int beyond the largest float
        raise ConfigError(f"{name} is too large for a float") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a number, got {value!r}") from exc


def _truth(value: object, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _path(value: object, key: str) -> Path:
    if not isinstance(value, (str, Path)):
        raise ConfigError(f"{key} must be a path, got {value!r}")
    return Path(value)


def _optional_number(value: object, key: str) -> Optional[float]:
    return None if value is None else number(value, key)


def _items(read_item, value: object, key: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list")
    return tuple(read_item(item, f"{key}[{i}]") for i, item in enumerate(value))


# the reader of each field type without a ``read`` of its own; a dataclass
# type is a nested section and ``tuple[X, ...]`` a list of X
_READERS = MappingProxyType({float: number, int: whole_number, bool: _truth,
                             Optional[float]: _optional_number, Path: _path})


def _reader(kind):
    if dataclasses.is_dataclass(kind):
        return functools.partial(read_section, kind)
    if typing.get_origin(kind) is tuple:
        return functools.partial(_items, _reader(typing.get_args(kind)[0]))
    return _READERS[kind]


@functools.cache
def _schema(cls: type) -> dict[str, tuple[str, object, bool]]:
    """(field name, reader, required) of each field of ``cls`` by its file
    key; built once per class, as ``get_type_hints`` is slow."""
    types = typing.get_type_hints(cls)
    return {f.metadata.get("key", f.name):
            (f.name, f.metadata.get("read") or _reader(types[f.name]),
             f.default is f.default_factory is dataclasses.MISSING)
            for f in dataclasses.fields(cls)}


def read_section(cls: type, mapping: object, where: str):
    """The schema dataclass ``cls`` read from one section of an input file.

    A key is its field's ``key`` metadata, else its name. A field with no
    default must be given; an absent key takes the field's default. A value
    is read by the field's ``read`` metadata if it has one, else by the
    reader of its type; a dataclass type is a nested section, read by this
    same rule, and ``tuple[X, ...]`` a list whose items are read as X.
    ``where`` names the section ("" at the top level), and every error names
    ``where.key``, or ``where.key[i]`` for a list item.
    """
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a mapping")
    prefix = f"{where}." if where else ""
    schema = _schema(cls)
    unknown = sorted(f"{prefix}{key}" for key in mapping if key not in schema)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown}")
    missing = sorted(f"{prefix}{key}" for key, (_, _, required) in schema.items()
                     if required and key not in mapping)
    if missing:
        raise ConfigError(f"missing key(s) {missing}")
    values = {}
    for key, value in mapping.items():
        name, read, _ = schema[key]
        values[name] = read(value, f"{prefix}{key}")
    return cls(**values)


@dataclass(frozen=True)
class Interval:
    """The numbers from ``low`` to ``high``, each end in it where it is
    closed; NaN lies in none. Written as in math: ``(0, inf)``, ``[0, 1]``."""

    low: float
    high: float
    low_closed: bool = True
    high_closed: bool = False

    def __contains__(self, value: float) -> bool:
        return ((self.low <= value if self.low_closed else self.low < value)
                and (value <= self.high if self.high_closed else value < self.high))

    def __str__(self) -> str:
        return (f"{'[' if self.low_closed else '('}{self.low:g}, "
                f"{self.high:g}{']' if self.high_closed else ')'}")


POSITIVE = Interval(0, math.inf, low_closed=False)
NON_NEGATIVE = Interval(0, math.inf)
AT_LEAST_ONE = Interval(1, math.inf)
UNIT = Interval(0, 1, high_closed=True)


def bounded(interval: Interval, default=dataclasses.MISSING, **metadata):
    """A schema field whose value ``check_bounds`` keeps in ``interval``:
    a number, each item of a tuple or each value of a mapping; None, the
    value of an absent optional number, is not checked."""
    return field(default=default, metadata={"bound": interval, **metadata})


def check_bounds(section: object, where: str, label: str = "") -> None:
    """Raise ConfigError at the first bounded field of the schema dataclass
    ``section`` that lies outside its interval: ``<name> <value> outside
    <interval>``, where the name is ``where.key`` (``key`` where ``where``
    is ""), then ``[i]`` for a tuple's item or ``.o-d`` for an O-D map's
    value, then ``label``."""
    prefix = f"{where}." if where else ""
    for f in dataclasses.fields(section):
        interval, value = f.metadata.get("bound"), getattr(section, f.name)
        if interval is None or value is None:
            continue
        if isinstance(value, tuple):
            items = {f"[{i}]": item for i, item in enumerate(value)}
        elif isinstance(value, dict):
            items = {f".{origin}-{dest}": item for (origin, dest), item in value.items()}
        else:
            items = {"": value}
        for suffix, item in items.items():
            if item not in interval:
                name = f"{prefix}{f.metadata.get('key', f.name)}{suffix}{label}"
                raise ConfigError(f"{name} {item} outside {interval}")


@dataclass(frozen=True)
class Link:
    id: int
    from_node: int = field(metadata={"key": "from"})
    to_node: int = field(metadata={"key": "to"})
    length: float = bounded(POSITIVE)           # miles
    free_flow_time: float = bounded(POSITIVE)   # hours
    has_carpool_lane: bool
    general_lanes: int = bounded(AT_LEAST_ONE, 4)
    lane_capacity: float = bounded(POSITIVE, 2000.0)   # vehicles/hour per lane
    toll: float = bounded(NON_NEGATIVE, 0.0)
    observed_daily_flow: float = bounded(NON_NEGATIVE, 0.0)

    def lanes(self, lane_class: LaneClass) -> int:
        return 1 if lane_class is LaneClass.CARPOOL else self.general_lanes


def _unique(ids: typing.Iterable[int], where: str) -> dict[int, int]:
    """The position of each id; a repeated id raises ConfigError naming
    both its places."""
    first: dict[int, int] = {}
    for position, id_ in enumerate(ids):
        if id_ in first:
            raise ConfigError(f"duplicate id {id_} at {where}[{first[id_]}] "
                              f"and {where}[{position}]")
        first[id_] = position
    return first


@dataclass(frozen=True)
class Network:
    nodes: tuple[int, ...]
    links: tuple[Link, ...]

    def __post_init__(self) -> None:
        if not self.links:
            raise ConfigError("links must name at least one link")
        known = _unique(self.nodes, "nodes")
        _unique((l.id for l in self.links), "links")
        for index, link in enumerate(self.links):
            # a link is named by its place in the file and by its id
            where, label = f"links[{index}]", f" (link {link.id})"
            check_bounds(link, where, label)
            number(link.general_lanes, f"{where}.general_lanes{label}")  # capacity is a float
            if (speed := link.length / link.free_flow_time) > MAX_FREE_FLOW_SPEED_MPH:
                raise ConfigError(f"{where}.free_flow_time{label}: implied free-flow "
                                  f"speed {speed:.1f} mph is not plausible")
            if link.from_node == link.to_node:
                raise ConfigError(f"{where}.to{label}: self-loop")
            for key, end in (("from", link.from_node), ("to", link.to_node)):
                if end not in known:
                    raise ConfigError(f"{where}.{key}{label}: node {end} not declared")
        adjacency: dict[int, list[int]] = {n: [] for n in self.nodes}
        for link in sorted(self.links, key=lambda l: l.id):
            adjacency[link.from_node].append(link.id)
        object.__setattr__(self, "_adjacency", adjacency)
        object.__setattr__(self, "_by_id", {l.id: l for l in self.links})
        object.__setattr__(self, "_node_ids", tuple(sorted(self.nodes)))
        object.__setattr__(self, "_next_hops", {})
        object.__setattr__(self, "_route_choices", {})
        # the matcher's step matrices, kept by ``ten.step_matrix`` alone
        object.__setattr__(self, "_step_matrices", {})

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

    def route_choices(self, origin: int, dest: int) -> Optional[tuple[tuple[int, ...], ...]]:
        """The origin->dest routes, as link-id tuples, when each next hop
        of ``origin`` (``next_hops``) leads on by a forced walk, one that
        takes at every later node its one next hop towards ``dest``: one
        branch per next hop, in their order. ``((),)`` where ``origin`` is
        ``dest`` and ``()`` where no path leads. None, where a search must
        choose, when a node on a branch has more than one next hop or two
        branches share a node other than the two ends. Memoised per pair on
        the network, like ``next_hops``; a later lookup returns the same
        object.

        Every link of an origin->dest path is a next hop of its tail, so the
        branches are then every loop-free path, among which
        ``routing.dijkstra_route`` picks the search's route without a
        search. A walk cannot cycle: a node on a cycle that reaches
        ``dest`` would need a second link to leave it. None does not prove a
        second path: a next hop may reach ``dest`` only through a node
        already passed.
        """
        key = origin, dest
        choices = self._route_choices  # type: ignore[attr-defined]
        if key not in choices:
            choices[key] = self._branches(origin, dest)
        return choices[key]

    def _branches(self, origin: int, dest: int) -> Optional[tuple[tuple[int, ...], ...]]:
        if origin == dest:
            return ((),)
        routes = []
        for hop in self.next_hops(origin, dest):
            route = (hop,)
            node = self.link(hop).to_node
            while node != dest:
                hops = self.next_hops(node, dest)
                if len(hops) != 1:
                    return None
                route += hops
                node = self.link(hops[0]).to_node
            routes.append(route)
        # branches that meet go on by the same walk, so they end in one link
        return tuple(routes) if len({route[-1] for route in routes}) == len(routes) else None

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


# libyaml's parser where PyYAML was built with it; the resolver and the
# constructor are PyYAML's either way, so the values equal ``yaml.safe_load``'s
class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):  # type: ignore[misc]
    """The safe loader, but a value its constructor refuses, such as an
    integer of more digits than Python converts, a date that is no date or
    a ``!!bool`` tag on a word that is no boolean, is a YAML error at the
    value's line and column; PyYAML raises a bare ValueError, KeyError or
    IndexError for these, with no place. Python's advice to raise its
    integer-digit limit is dropped: a file's author cannot act on it."""

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep)
        except (ValueError, LookupError) as exc:
            problem = str(exc).partition("; use sys.set_int_max_str_digits")[0]
            raise yaml.constructor.ConstructorError(None, None, problem,
                                                    node.start_mark) from exc


def read_yaml(path: Path) -> dict:
    """Parse one YAML file as ``yaml.safe_load`` would, into its top-level
    mapping. Raises ConfigError naming the file for a YAML error (also for
    bytes that are not text in YAML's encodings, UTF-8 and UTF-16, and, with
    its line, for a value the constructor refuses: ``_Loader``) and
    for a top level that is not a mapping. The file is named once, in
    front: each of PyYAML's marks names the parsed bytes ``"<byte
    string>"``, which is dropped, leaving its line and column."""
    try:
        raw = yaml.load(path.read_bytes(), Loader=_Loader)
    except yaml.YAMLError as exc:
        message = str(exc).replace('in "<byte string>", ', "")
        raise ConfigError(f"{path}: {message}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return raw


def load_network(path: str | Path) -> Network:
    """Load and validate a network file.

    Raises ConfigError on a malformed file or a broken invariant, naming
    the file and the offending field (and, for a link, its id).
    """
    path = Path(path)
    raw = read_yaml(path)
    try:
        return read_section(Network, raw, "")
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


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
