"""Multi-hop ride matching over per-rider time-expanded networks.

Pipeline for one rider request:

1. ``build_time_expanded`` discretizes time into steps of ``dt`` hours and
   intersects the rider's feasibility windows with each driver's remaining
   schedule. A vertex is one integer, ``step * n + p`` for the node at
   position p of the n nodes the rider's windows reach, ascending, so
   integer order is (step, node) order and every arc raises it; ``decode``
   gives (node, step) back. Wait arcs join a node's steps; travel arcs are
   (tail, head, driver) tuples, a travel arc's steps read from its vertex
   codes. One rule, read from the minimum-step
   matrix ``m``, gives a driver's arcs on a link (i, j) of ``steps`` steps
   within a slot of its schedule from stop (a, s) to stop (b, t) that has a
   free seat: every step k of the rider's range with s + m[a][i] <= k
   and k + steps <= t - m[j][b] and, in the first slot of a driver not yet
   underway, no step at a after its latest departure step. Reaching j from
   a and b from i need no test: ``m`` is built from the same ``tau``, so
   m[a][j] <= m[a][i] + steps and m[i][b] <= steps + m[j][b]. By the same
   triangle inequality a slot gets no arc unless it passes the slot test:
   the rider's destination reachable from a by the latest arrival and b
   from the rider's origin by t. A driver's first slot runs from its
   anchor to its next stop; the slots after that do not depend on where the
   driver is, and the vehicle keeps them from the chain of its pins
   (``pin_chain``), derived where its pins or riders aboard change. The
   rule reads nothing of a driver but the slot, so the build takes the
   slots grouped, each distinct slot with the ids of the drivers that have
   it, from the offer index the simulation keeps (``SimState
   .collect_offers``): it runs the slot test once per distinct slot, then
   the per-link step ranges, the slot's spans, once per slot that passed. A
   driver's arcs are the spans of the slots it is listed under, so drivers
   listed under equal spans have equal arcs: they are interchangeable for
   the rider and form one class, whose arcs are written once, under its
   lowest id (``TimeExpandedNetwork.twins``). A driver standing at its
   node is listed under an open first slot, its start step None: the slot
   starts at the clock's step, which the build fills in by ``free_slot``'s
   rule, so the listing holds until the driver moves. Drivers waiting at
   one node for one destination share their slot. When no slot passes, the
   network keeps its node intervals and gets no travel arc, and no link is
   looked at.
2. ``preprocess`` prunes vertices not on any origin-to-destination path;
   the request is feasible exactly when the start vertex survives. The
   survivors at each node are one interval of steps, found for every node
   by one pass over the travel arcs and one pass back. It then lays out the
   survivors alone: vertices in integer order, a topological order, each
   vertex's arcs wait first, then by (head, driver). A network with no
   travel arc whose origin is not its destination cannot leave the
   origin's waits, so ``preprocess`` answers it as infeasible at once; more
   than a third of the bundled sweep's requests get such a network.
3. ``solve_itinerary`` runs a dynamic program over the pruned graph and
   returns the one least itinerary under the total order it states, in
   costs that are exact integers (``StepCosts``). The order's first three
   keys, cost, waits and legs, are packed into one integer per label
   (``_key_units``), so that each comparison of them is one integer
   comparison. A rider may transfer between vehicles but never re-board a
   driver it left, so each DP label, a tuple, carries the drivers it used
   and could still meet as a bitmask. An arc carries a driver class: a
   label rides on when its last driver is of the class, and else boards
   the class's lowest member it has not used, which loses no optimum.
   Labels at a (vertex, last driver) pair are kept when no other is below
   them, which keeps the search exact. One reverse pass gives a
   driver-blind lower bound on each vertex's (cost, waits) to go, packed
   the same way, and the classes that carry the rider from each vertex
   along the bound with no transfer (``_cost_to_go``). One itinerary
   found along the bound, which rides a class that carries it as soon as
   one can, gives an incumbent key (``_incumbent``). A label whose key
   plus the bound exceeds the incumbent's cannot reach the optimum and is
   pruned, so ties in cost are pruned by waits and legs too.

The time grid: hours become steps of ``dt`` by three rules, each with one
home beside ``ceil_steps``, which every caller uses. ``window_steps``
rounds each bound of a trip window up, for a rider's network and a
ridesharing driver's schedule alike. ``link_steps`` takes a link's delay to
whole steps, at least one, for the matcher's ``tau`` and a driver's
initial plan. ``step_due`` says whether a step has come, for a driver's
hold and a boarding pin, within the tolerance ``ceil_steps`` allows.

``match_rider`` takes every link's whole-step duration, ``tau``, once per
request from the traffic state frozen at the match instant
(``SimState.matching_steps``) and passes it to both the network build and
the commit. From ``tau`` both read ``step_matrix``: ``m`` and, for each
pair of nodes, the links of the path that gives its entry, one
``routing.shortest_paths`` tree per node, built once per step state (every
link's step count) and reused whenever that state recurs; the network keeps
its own ``STEP_MATRICES_KEPT`` most recently used. It makes one attempt:
slots, network and commit read that one instant, and the commit checks
each driver's schedule through the chain of its pins with the rider's
added (``pin_chain``), from its anchor at that instant, and routes the driver
between stops along the matrix's paths, with no search of its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .agents import TimeWindow
from .network import Network
from .routing import shortest_paths

INF = float("inf")

Vertex = int  # step * node count + the node's position; see TimeExpandedNetwork

# (steps, paths): the minimum steps from node a to node b, INF where no path
# leads, and the link ids of that path; see ``step_matrix``
StepMatrix = tuple[dict[int, dict[int, float]], dict[int, dict[int, tuple[int, ...]]]]


# how far, in steps, float noise may put a time on the wrong side of a step
STEP_TOLERANCE = 1e-9


def ceil_steps(hours: float, dt: float) -> int:
    """Smallest whole step count covering ``hours`` >= 0 (tolerant of float
    noise)."""
    return math.ceil(hours / dt - STEP_TOLERANCE)


def window_steps(window: TimeWindow, dt: float) -> tuple[int, int, int, int]:
    """A trip window's earliest and latest departure and earliest and
    latest arrival in steps, each bound rounded up (``ceil_steps``)."""
    return (ceil_steps(window.earliest_departure, dt), ceil_steps(window.latest_departure, dt),
            ceil_steps(window.earliest_arrival, dt), ceil_steps(window.latest_arrival, dt))


def link_steps(delay: float, dt: float) -> int:
    """The whole steps a link takes at ``delay`` hours: rounded up, and at
    least one."""
    return max(1, ceil_steps(delay, dt))


def step_due(step: int, now: float, dt: float) -> bool:
    """Whether step ``step`` has come at ``now`` hours, within the
    tolerance of ``ceil_steps``."""
    return step <= now / dt + STEP_TOLERANCE


@dataclass(frozen=True)
class RiderRequest:
    id: int
    origin: int
    destination: int
    window: TimeWindow
    request_time: float

    def __post_init__(self) -> None:
        if self.origin == self.destination:
            raise ValueError(f"rider {self.id}: origin equals destination")
        if self.request_time > self.window.earliest_departure + 1e-12:
            raise ValueError(f"rider {self.id}: request after earliest departure")


@dataclass(frozen=True)
class Pin:
    """A committed pickup or dropoff the driver must still serve."""

    node: int
    step: int
    action: str  # "board" | "alight"
    rider_id: int


Stop = tuple[int, int, bool]  # (node, deadline step, holds)
# (a, s, b, t, leave_by): a slot from stop (a, s) to stop (b, t) with a free
# seat, left from a by step leave_by (INF unless the driver is not underway);
# s is None in an open slot, one that starts at the clock's step (see
# ``build_time_expanded``)
FreeSlot = tuple[int, Optional[int], int, int, float]


def free_slot(a: int, s: int, b: int, t: int, occupancy: int, seats: int,
              latest_departure: float) -> Optional[FreeSlot]:
    """The slot from stop (a, s) to stop (b, t), or None when its
    ``occupancy`` fills the ``seats`` or it ends by the step it starts
    (t <= s): an arc in it needs s <= k and k + steps <= t, and every link
    takes at least one step. The driver leaves a by ``latest_departure``,
    or by s once that has passed: its latest departure step while it is not
    yet underway, INF once it is. Every slot after a driver's first is
    entered underway. ``pin_chain`` builds the later slots by this rule,
    and the offer index the first slot of a driver on a link, which starts
    at the link's end (``SimState.collect_offers``). The first slot of a
    driver standing at its node starts at the clock's step, so the index
    lists it open and ``build_time_expanded`` applies this rule to it, at
    the clock's step, the seat test aside: the index lists no open slot
    without a free seat."""
    if occupancy >= seats or t <= s:
        return None
    return (a, s, b, t, latest_departure if latest_departure > s else s)


# (stops, occupancies, later slots) of a driver's pins; see ``pin_chain``
PinChain = tuple[tuple[Stop, ...], tuple[int, ...], tuple[FreeSlot, ...]]


def pin_chain(driver: int, pins: tuple[Pin, ...], aboard: int, seats: int,
              destination: int, latest_arrival_step: int) -> PinChain:
    """The schedule of ridesharing driver ``driver`` after its anchor, with
    ``pins`` still ahead, in service order, and ``aboard`` riders on board:
    (stops, occupancies, later slots).

    ``stops`` are its (node, deadline step, holds) stops: each pin at its
    pinned step, then ``destination`` by ``latest_arrival_step``; a
    boarding stop holds the vehicle until its step, other stops do not.
    ``occupancies`` are the riders on board in each slot, the first from
    the anchor to ``stops[0]``. The later slots are the slots after
    ``stops[0]`` with a free seat that end after they start, in order
    (``free_slot``). None of the three depends on where the driver is or
    from when; of its slots only the first does, which the offer index lists
    from the vehicle's values and the commit checks from the anchor stop it
    puts in front of ``stops``. Raises ValueError when the pins' steps
    decrease or an occupancy goes negative, since neither can come from a
    valid commit.
    """
    for first, then in zip(pins, pins[1:]):
        if first.step > then.step:
            raise ValueError(f"driver {driver}: pin steps decrease in pin chain")
    stops = []
    occs = [aboard]
    for pin in pins:
        boards = pin.action == "board"
        stops.append((pin.node, pin.step, boards))
        occs.append(occs[-1] + (1 if boards else -1))
        if occs[-1] < 0:
            raise ValueError(f"driver {driver}: negative occupancy in pin chain")
    stops.append((destination, latest_arrival_step, False))
    later = []
    for (a, s, _), (b, t, _), occupancy in zip(stops, stops[1:], occs[1:]):
        found = free_slot(a, s, b, t, occupancy, seats, INF)
        if found is not None:
            later.append(found)
    return tuple(stops), tuple(occs), tuple(later)


TravelArc = tuple[Vertex, Vertex, int]  # (tail, head, driver)
Arc = tuple[Vertex, Optional[int]]  # (head, driver or None for a wait)


def decode(vertex: Vertex, nodes: Sequence[int]) -> tuple[int, int]:
    """The (node, step) of ``vertex`` in a network over ``nodes``."""
    step, position = divmod(vertex, len(nodes))
    return nodes[position], step


@dataclass
class TimeExpandedNetwork:
    """Rider-specific time-expanded graph (the matcher's search space).

    A vertex, ``k * len(nodes) + nodes.index(node)``, exists for every step
    ``k`` of each node's interval; a wait arc joins each step to the next,
    and ``travel_arcs``, in no particular order, carry the drivers. Every
    travel arc raises the step, and both its ends lie in their nodes'
    intervals. ``preprocess`` lays out the part that survives pruning.

    Drivers with the same travel arcs are interchangeable for the rider and
    form one class, whose arcs are written once, under its lowest id, the
    representative. ``twins`` maps each representative of a class of more
    than one driver to its other members, ascending; every other driver is
    a class of its own, as every driver of a hand-built network is.
    """

    origin: int
    destination: int
    node_intervals: dict[int, tuple[int, int]]
    travel_arcs: list[TravelArc]
    twins: dict[int, tuple[int, ...]] = field(default_factory=dict)
    nodes: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.nodes = tuple(sorted(self.node_intervals))

    @property
    def driver_arcs(self) -> int:
        """The travel arcs counted once per driver, each class arc once per
        member."""
        twins = self.twins
        if not twins:
            return len(self.travel_arcs)
        return len(self.travel_arcs) + sum(len(twins[driver])
                                           for _, _, driver in self.travel_arcs
                                           if driver in twins)


@dataclass(frozen=True)
class ItineraryLeg:
    driver: int
    board_node: int
    board_step: int
    alight_node: int
    alight_step: int


@dataclass(frozen=True)
class Itinerary:
    legs: tuple[ItineraryLeg, ...]
    total_cost: float
    wait_steps: int


@dataclass(frozen=True)
class MatchResult:
    matched: bool
    itinerary: Optional[Itinerary] = None
    reason: str = ""


def _min_step_matrix(network: Network, tau: dict[int, int]) -> StepMatrix:
    """All-pairs minimum travel steps under the frozen per-link durations,
    and the link ids of each such path: one ``shortest_paths`` tree per
    source, so a path is the one ``dijkstra_route`` returns at the same
    ``tau``."""
    steps: dict[int, dict[int, float]] = {}
    paths: dict[int, dict[int, tuple[int, ...]]] = {}
    nodes = network.node_ids()
    for source in nodes:
        tree = shortest_paths(network, lambda link: tau[link.id], source)
        steps[source] = {n: tree[n][0] if n in tree else INF for n in nodes}
        paths[source] = {n: links for n, (_, links) in tree.items()}
    return steps, paths


# the most step matrices ``step_matrix`` keeps for one network
STEP_MATRICES_KEPT = 64


def step_matrix(network: Network, tau: dict[int, int]) -> StepMatrix:
    """``_min_step_matrix``, (steps, paths), built once per step state: each
    network keeps its own matrices, each with a copy of its ``tau``, keyed
    by every link's step count, at most ``STEP_MATRICES_KEPT`` of them, the
    least recently used evicted first. The most recently used entry is
    checked first, with one dict comparison, so a request's build and
    commit, and consecutive requests that see the same whole-step
    durations, share one matrix without building the key. A matrix is a
    pure function of the network and ``tau``, so the memo changes only
    which equal object is returned. Callers must not mutate it."""
    matrices = network._step_matrices  # type: ignore[attr-defined]
    if matrices:
        last_tau, matrix = next(reversed(matrices.values()))
        if last_tau == tau:
            return matrix
    key = tuple(tau[link.id] for link in network.links)
    entry = matrices.pop(key, None)
    if entry is None:
        entry = dict(tau), _min_step_matrix(network, tau)
        if len(matrices) == STEP_MATRICES_KEPT:
            del matrices[next(iter(matrices))]
    matrices[key] = entry  # now the most recently used
    return entry[1]


def build_time_expanded(
    rider: RiderRequest,
    slots: dict[FreeSlot, list[int]],
    network: Network,
    tau: dict[int, int],
    dt: float,
    clock_step: int = 0,
) -> TimeExpandedNetwork:
    """Construct the rider's time-expanded network (module docstring, step 1).

    ``slots`` maps each distinct free slot to the ids of the drivers that
    have it (``SimState.collect_offers``); a driver gets the arcs of each
    slot it is listed under, written once for each class of drivers with
    equal arcs, under its lowest id (``TimeExpandedNetwork.twins``). An
    open slot, (a, None, b, t, latest departure), starts at
    ``clock_step``, the clock's step: ``free_slot``'s rule makes it no slot
    once t <= clock_step, and left from a by its latest departure or by
    ``clock_step`` once that has passed; its seat was tested where it was
    listed. ``tau`` holds every link's duration in
    whole steps. Node intervals come from minimum-step sweeps from the
    rider's earliest departure and back from the latest arrival. An empty
    network encodes an infeasible request. The candidate links are listed
    only once a slot passes the slot test: when none passes, the network
    has its node intervals and no travel arc, and no link is looked at.
    """
    matrix = step_matrix(network, tau)[0]

    ed, ld, ea, la = window_steps(rider.window, dt)

    intervals: dict[int, tuple[int, int]] = {}
    for node in network.node_ids():
        ahead = matrix[rider.origin][node]
        behind = matrix[node][rider.destination]
        if ahead == INF or behind == INF:
            continue
        lo = ed + int(ahead)
        hi = la - int(behind)
        if node == rider.origin:
            hi = min(hi, ld)
        if node == rider.destination:
            lo = max(lo, ea)
        if lo <= hi:
            intervals[node] = (lo, hi)
    if rider.origin not in intervals or rider.destination not in intervals:
        return TimeExpandedNetwork(rider.origin, rider.destination, {}, [])
    ten = TimeExpandedNetwork(rider.origin, rider.destination, intervals, [])
    nodes = ten.nodes
    n = len(nodes)

    # one arc rule per (slot, link): the steps k with s + m[a][i] <= k and
    # k + steps <= t - m[j][b], capped at a by the slot's leave_by; the bounds
    # at j from a and at i to b never bind, by the triangle inequality on m
    # (module docstring, step 1). An INF empties the range; a link is never a
    # loop, so i and j are not both a. The rule reads the slot alone, so each
    # distinct slot that passes the slot test has its spans found once.
    candidates = None  # listed when the first slot passes the slot test
    to_dest, from_origin = rider.destination, matrix[rider.origin]
    groups: dict[tuple, list[int]] = {}  # spans -> the drivers listed under them
    listed = 0
    for (a, s, b, t, leave_by), ids in slots.items():
        if s is None:  # an open slot, by free_slot's rule at the clock's step
            s = clock_step
            if t <= s:
                continue
            if leave_by < s:
                leave_by = s
        from_a = matrix[a]
        if s + from_a[to_dest] > la or ed + from_origin[b] > t:
            continue  # the slot test
        if candidates is None:
            # links with both ends inside the rider's windows, with the tail
            # steps whose arrival also falls in the head's window and the
            # code distance from tail to head
            candidates = []
            for link in network.links:
                i, j = link.from_node, link.to_node
                if i in intervals and j in intervals:
                    steps = tau[link.id]
                    lo = max(intervals[i][0], intervals[j][0] - steps)
                    hi = min(intervals[i][1], intervals[j][1] - steps)
                    if lo <= hi:
                        p = nodes.index(i)
                        candidates.append((i, j, lo, hi, steps, matrix[j], p,
                                           steps * n + nodes.index(j) - p))
        spans = []  # (first tail, past the last tail, shift) per link with arcs
        for i, j, lo, hi, steps, from_j, p, shift in candidates:
            if s + from_a[i] > lo:
                lo = s + from_a[i]
            if t - from_j[b] - steps < hi:
                hi = t - from_j[b] - steps
            if i == a and leave_by < hi:
                hi = leave_by
            elif j == a and leave_by - steps < hi:
                hi = leave_by - steps
            # pins in step order keep slots' arcs apart: an arc of a
            # slot ends by its closing step, where the next one starts
            if lo <= hi:
                spans.append((lo * n + p, hi * n + p + 1, shift))
        if spans:
            groups.setdefault(tuple(spans), []).extend(ids)
            listed += len(ids)
    # drivers with equal spans have equal arcs: one class, its arcs written
    # once under its lowest id. A driver listed under two slots that passed
    # has the spans of both, so then each driver is keyed by all its spans,
    # sorted, so that the key does not depend on the order of ``slots``.
    # The spans of one driver's slots differ, so that takes two groups.
    if len(groups) > 1 and listed > len(set().union(*groups.values())):
        keys: dict[int, tuple] = {}
        for spans, ids in groups.items():
            for driver in ids:
                keys[driver] = keys.get(driver, ()) + spans
        groups = {}
        for driver, key in keys.items():
            groups.setdefault(tuple(sorted(key)), []).append(driver)
    arcs, twins = ten.travel_arcs, ten.twins
    for spans, members in groups.items():
        rep = members[0]
        if len(members) > 1:
            members.sort()
            rep = members[0]
            twins[rep] = tuple(members[1:])
        arcs += [(tail, tail + shift, rep)
                 for first, stop, shift in spans for tail in range(first, stop, n)]
    return ten


@dataclass
class PrunedGraph:
    """The remainder of a TEN after reachability pruning, laid out by
    ``preprocess``, over its ``nodes``; ``ten_vertices`` counts the TEN's
    vertices. A travel arc carries its driver class's representative, and
    ``twins`` is the TEN's (``TimeExpandedNetwork``)."""

    nodes: tuple[int, ...]
    vertices: list[Vertex]
    adjacency: dict[Vertex, list[Arc]]
    start: Optional[Vertex]
    dests: set[Vertex]
    ten_vertices: int
    twins: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.start is not None


def preprocess(ten: TimeExpandedNetwork) -> PrunedGraph:
    """Drop vertices not on any start-to-destination path, and lay out the
    rest: the one search graph every later stage reads.

    A vertex survives when it is reachable from the start vertex, the
    origin's first step, and reaches a destination vertex, any step of the
    destination. The request is feasible iff the start survives: a start
    that reaches a destination already lies on such a path. Waits join a
    node's consecutive steps, every arc raises the step and every arc's ends
    lie in their nodes' intervals, so the survivors at a node are one
    interval: from the first step the start reaches there to the last step
    that reaches a destination vertex. Two passes over the travel arcs in
    tail-code order find both ends for every node: forward, an arc from a
    reached tail reaches its head; back, an arc into a head that reaches a
    destination lets its tail reach one. The start seeds the origin's first
    end and the destination's interval end its last; every other end starts
    one step past the far end of its node's interval, so that a node no arc
    reaches keeps no survivor.

    The layout lists the survivors in integer order, a topological order,
    each with its arcs: the wait arc first (driver None; the solver charges
    the wait penalty), kept when the next step survives too, then the
    travel arcs into survivors by (head, driver).

    With no travel arc and the origin not the destination, the start
    reaches only the origin's later steps, none of which is a destination
    vertex, so nothing survives and the graph is returned empty at once;
    more than a third of the bundled sweep's requests get such a network.
    An origin that is its destination (possible only in a hand-built
    network) keeps its whole interval. ``ten_vertices`` is the sum of the
    interval lengths.
    """
    intervals = ten.node_intervals
    ten_vertices = sum(hi - lo + 1 for lo, hi in intervals.values())
    if not ten.travel_arcs and ten.origin != ten.destination:
        return PrunedGraph(ten.nodes, [], {}, None, set(), ten_vertices, ten.twins)
    nodes = ten.nodes
    n = len(nodes)
    # each position's first and last surviving vertex, one step past the far
    # end of its interval until the start or an arc reaches it
    first = [(intervals[node][1] + 1) * n + p for p, node in enumerate(nodes)]
    last = [(intervals[node][0] - 1) * n + p for p, node in enumerate(nodes)]
    origin, target = nodes.index(ten.origin), nodes.index(ten.destination)
    first[origin] = intervals[ten.origin][0] * n + origin
    last[target] = intervals[ten.destination][1] * n + target
    # Whether a tail is reached is settled by
    # the arcs from earlier steps, all before it; whether a head reaches a
    # destination, by the arcs from its step on, all after the arc's tail.
    arcs = sorted(ten.travel_arcs)
    for tail, head, _ in arcs:
        if first[tail % n] <= tail and head < first[head % n]:
            first[head % n] = head
    for tail, head, _ in reversed(arcs):
        if head <= last[head % n] and last[tail % n] < tail:
            last[tail % n] = tail
    adjacency: dict[Vertex, list[Arc]] = {
        vertex: [(vertex + n, None)] if vertex < last[vertex % n] else []
        for vertex in sorted(v for p in range(n) for v in range(first[p], last[p] + 1, n))}
    for tail, head, driver in arcs:
        if tail in adjacency and head in adjacency:
            adjacency[tail].append((head, driver))
    start = first[origin]
    return PrunedGraph(nodes, list(adjacency), adjacency,
                       start if start in adjacency else None,
                       set(range(first[target], last[target] + 1, n)), ten_vertices,
                       ten.twins)


@dataclass(frozen=True)
class StepCosts:
    """What one step of an itinerary costs: ``travel`` on board, every
    travel arc's cost per step (``weights.time * dt``), and ``wait`` at a
    node, the wait penalty. ``units`` are the two as coprime integers in
    exactly their ratio, the units in which ``solve_itinerary`` adds and
    compares costs; a run makes them once (``SimState.step_costs``)."""

    travel: float
    wait: float
    units: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, value in (("step cost", self.travel), ("penalty", self.wait)):
            if not 0 <= value < INF:
                raise ValueError(f"{name} must be non-negative and finite")
        travel, wait = Fraction(self.travel), Fraction(self.wait)
        scale = math.lcm(travel.denominator, wait.denominator)
        units = int(travel * scale), int(wait * scale)
        common = math.gcd(*units) or 1
        object.__setattr__(self, "units", (units[0] // common, units[1] // common))

    def total(self, steps: int, waits: int) -> float:
        """The cost of an itinerary that spans ``steps`` steps, ``waits`` of
        them waits."""
        return self.travel * steps + (self.wait - self.travel) * waits


def _key_units(graph: PrunedGraph, costs: StepCosts) -> tuple[int, int, int]:
    """The radix R of ``graph``'s packed keys, ``len(graph.vertices)``, and
    the key of one travel step and of one wait: a path's key is (cost * R +
    waits) * R + legs, its cost in ``costs.units``. A path has fewer arcs
    than the graph has vertices, so its waits and its legs are each below R,
    and integer order on keys is lexicographic order on (cost, waits, legs).
    """
    radix = len(graph.vertices)
    step, wait = costs.units
    return radix, step * radix * radix, (wait * radix + 1) * radix


# (key, used, drivers, spans, board, alight): a path's packed (cost, waits,
# legs) key (``_key_units``), the bitmask of the drivers it rode that an
# arc ahead still carries, and its tie key: the drivers of its legs before
# the last, those legs' (-board, alight) vertex pairs, flattened, and its
# last leg's board vertex, negated, and alight vertex so far (None and None
# before the first leg). Its vertex and last driver are its bucket's.
Label = tuple


def _insert_label(buckets: dict[Optional[int], list[Label]], last: Optional[int],
                  label: Label) -> None:
    """Add ``label`` to the bucket of ``last`` in ``buckets``, creating it,
    unless a label there is below it, and drop the labels there below it.

    A label is below another in one bucket when its key is no greater, its
    used set lies within the other's, and, if the keys are equal, its tie
    key is no greater. Then whatever extends the other extends it too, to
    an itinerary that comes no later in ``solve_itinerary``'s order: the two
    end at one vertex with one driver, so an extension adds the same key to
    both, and a key is the itinerary's (cost, waits, legs) in lexicographic
    order; their legs, equal in number when the keys are, are compared leg
    by leg; and the last leg's alight vertex counts only when no extension
    rides on."""
    bucket = buckets.get(last)
    if bucket is None:
        buckets[last] = [label]
        return
    key, used = label[0], label[1]
    dominated = []
    for k, other in enumerate(bucket):
        theirs, u = other[0], other[1]  # its key and used set
        if theirs < key:
            if u | used == used:
                return
        elif theirs > key:
            if used | u == u:
                dominated.append(k)
        else:
            if u | used == used and other[2:] <= label[2:]:
                return
            if used | u == u and label[2:] <= other[2:]:
                dominated.append(k)
    for k in reversed(dominated):
        del bucket[k]
    bucket.append(label)


def _cost_to_go(graph: PrunedGraph, costs: StepCosts
                ) -> tuple[dict[Vertex, int], dict[Vertex, int], dict[int, int],
                           dict[Vertex, int]]:
    """In one reverse pass over ``graph``: the bound, the reach and the
    carriers of each vertex, and each driver class's bits.

    The bound is the least (cost, waits) from the vertex to a destination
    vertex in lexicographic order, ignoring drivers (any arc may follow any
    other), packed as a key with no legs (``_key_units``). Every itinerary
    from the vertex is such a path, so its key is at least the bound plus
    its legs; the bound is consistent, being a shortest path. A travel arc
    costs ``units[0]`` per step, read from its vertex codes, and no wait; a
    wait ``units[1]`` and one wait.

    The reach is the drivers with an arc reachable from the vertex, as a
    bitmask. A class gets one bit per member, consecutive and ascending with
    the members' ids, given where the pass first sees the class and keyed
    by its representative, so that the lowest bit of the class's bits not
    in a used set is its lowest free member's; members share their arcs, so
    a mask keeps or drops them together.

    The carriers are the bits of the classes that take the rider from the
    vertex to a destination vertex with no transfer along tight arcs, those
    whose key plus the bound at their head is the bound at their tail: the
    head carries the class and the arc is a wait or of that class. A
    destination vertex carries every class (all bits set, -1)."""
    _, step, wait = _key_units(graph, costs)
    n = len(graph.nodes)
    twins, dests = graph.twins, graph.dests
    togo: dict[Vertex, int] = {}
    reach: dict[Vertex, int] = {}
    carry: dict[Vertex, int] = {}
    bits: dict[int, int] = {}
    given = 0  # the bits given so far
    for vertex in reversed(graph.vertices):
        if vertex in dests:
            best, carried = 0, -1
        else:
            best, carried = INF, 0
        drivers = 0
        at = vertex // n  # its step
        for head, driver in graph.adjacency[vertex]:
            if driver is None:
                value = wait + togo[head]
                bit = -1  # a wait keeps every class the head carries
            else:
                bit = bits.get(driver)
                if bit is None:
                    size = len(twins[driver]) + 1 if driver in twins else 1
                    bit = bits[driver] = ((1 << size) - 1) << given
                    given += size
                drivers |= bit
                value = step * (head // n - at) + togo[head]
            drivers |= reach[head]
            if value <= best:
                if value < best:
                    best, carried = value, bit & carry[head]
                else:
                    carried |= bit & carry[head]
        togo[vertex] = best
        reach[vertex] = drivers
        carry[vertex] = carried
    return togo, reach, bits, carry


def _incumbent(graph: PrunedGraph, togo: dict[Vertex, int], bits: dict[int, int],
               carry: dict[Vertex, int], costs: StepCosts) -> float:
    """The packed key (``_key_units``) of one itinerary whose (cost, waits)
    is the bound at the start (``_cost_to_go``), or INF.

    The walk follows tight arcs from the start. Once the class on board
    carries the rider from its vertex, the rest of the itinerary rides on
    with it and adds the bound there, and no leg. Before that it boards, at
    the first tight arc in ``preprocess``'s arc order whose class carries
    from the arc's head and has a member the walk has not ridden, that
    class's lowest such member, which carries it on; else it takes a tight
    wait, then a tight arc of the class on board, ridden on, then a tight
    arc of another class with such a member, boarded, the first in arc
    order among equals. So a walk whose start some class carries from has
    one leg, as has every optimum that rides one leg. If no arc can be
    taken, or the start is a destination vertex, the walk is no itinerary
    and the result is INF, which turns pruning off.
    """
    _, step, wait = _key_units(graph, costs)
    n = len(graph.nodes)
    adjacency, dests = graph.adjacency, graph.dests
    vertex, key, riding, used = graph.start, 0, 0, 0
    while not riding & carry[vertex]:
        if vertex in dests:
            return INF  # the start, before any leg
        bound, rank, chosen, at = togo[vertex], 3, None, vertex // n
        for head, driver in adjacency[vertex]:
            if driver is None:
                if rank and wait + togo[head] == bound:
                    rank, chosen = 0, (head, wait, riding)
                continue
            value = step * (head // n - at)
            if value + togo[head] != bound:
                continue
            bit = bits[driver]
            if bit == riding:
                if rank > 1:
                    rank, chosen = 1, (head, value, bit)
            elif bit & ~used:
                if bit & carry[head]:
                    return key + value + 1 + togo[head]
                if rank > 2:
                    rank, chosen = 2, (head, value, bit)
        if chosen is None:
            return INF
        vertex, value, bit = chosen
        if bit != riding:
            free = bit & ~used
            used |= free & -free
            riding = bit
            key += 1
        key += value
    return key + togo[vertex]


def solve_itinerary(graph: PrunedGraph, costs: StepCosts) -> Optional[Itinerary]:
    """The least itinerary over the pruned graph, or None when infeasible.

    Itineraries rank by cost, then waits, then legs, then arrival step,
    then the sequence of drivers, then leg by leg each leg's board vertex,
    latest first, and alight vertex, earliest first: of otherwise equal
    itineraries, the one whose rider spends least time in a seat. No two
    itineraries rank equal, so the result is one itinerary, whatever the
    order of the graph's vertices, arcs, buckets and labels.

    Costs are exact: a travel arc costs ``costs.units[0]`` per step, read
    from its vertex codes, and a wait ``costs.units[1]``, so every cost is
    an integer. A label packs its cost, waits and legs into one integer key
    (``_key_units``), whose integer order is their lexicographic order, so
    every comparison of the three is one integer comparison. Every path to
    a vertex spans the same steps, so the itinerary's ``total_cost`` is
    ``costs.total`` of its steps and waits.

    A rider may transfer between vehicles but never re-board a driver it
    left, so each label carries the drivers it used as a bitmask, masked by
    the drivers that still have an arc reachable from its vertex
    (``_cost_to_go``): a driver outside the mask can never be boarded
    again, so forgetting it changes no extension. The DP visits the
    vertices in integer order, a topological order, and only those a label
    reached. A label is kept in its bucket, one per (vertex, last driver),
    unless another is below it (``_insert_label``). It carries its tie key,
    from which the winner's legs are read.

    An arc carries a driver class (``TimeExpandedNetwork``). A label whose
    last driver is of the arc's class rides on with that driver; any other
    label boards the class's lowest member not in its used set, and cannot
    take the arc when there is none. This still lets a rider ride A, then
    X, then A's twin A'. The result is the optimum over every driver: map
    an itinerary so that its k-th boarding from each class takes the
    class's k-th lowest id. The mapped itinerary is one the DP builds, with
    the same cost, waits, legs, arrival and legs' vertices, and a driver
    sequence no greater, since at the first leg where the two differ the
    original boards a member above the lowest one left; so the least
    itinerary over every driver is a mapped one. (Two consecutive legs never
    share a class in an optimum: riding on instead saves a leg.) Dominance
    stays sound: of two labels in one bucket, the one with the smaller used
    set boards, from any class, a member no greater than the other's, and
    when it is a different member it already lies in the other's used set,
    so the used sets stay nested and the driver sequences ordered along
    every extension.

    Labels are pruned by a bound: ``_cost_to_go`` gives a lower bound on
    the (cost, waits) from every vertex to a destination, and
    ``_incumbent`` the key of one itinerary. An extension whose key, with
    the arc's key and a leg if it boards, plus the bound at its head
    exceeds the incumbent's key cannot lead to the optimum, and is skipped:
    the bound prunes ties in cost by waits and legs too.
    """
    if not graph.feasible:
        return None
    nodes, dests, adjacency, twins = graph.nodes, graph.dests, graph.adjacency, graph.twins
    n = len(nodes)
    radix, step, wait = _key_units(graph, costs)
    togo, reach, bits, carry = _cost_to_go(graph, costs)
    limit = _incumbent(graph, togo, bits, carry, costs)
    # vertex -> last driver -> labels, holding only the buckets a label reached
    table: dict[Vertex, dict[Optional[int], list[Label]]] = {
        graph.start: {None: [(0, 0, (), (), None, None)]}}
    best = None  # the least (key, arrival, drivers, spans)

    for vertex in graph.vertices:
        buckets = table.get(vertex)
        if not buckets:
            continue
        if vertex in dests:
            for last, bucket in buckets.items():
                for label in bucket:
                    if label[0] % radix:  # it rode a leg
                        key = (label[0], vertex, label[2] + (last,),
                               label[3] + (label[4], label[5]))
                        if best is None or key < best:
                            best = key
        # each arc's head buckets, its class's bits (0 for a wait) and its
        # representative's bit, its key, the most a label's key here may be
        # to ride on or wait along it, and the drivers reachable from its head
        arcs = []
        at = vertex // n  # its step
        for head, driver in adjacency[vertex]:
            units = wait if driver is None else step * (head // n - at)
            # keys may pass a float's range, so INF takes no arithmetic
            room = limit - togo[head] - units if limit != INF else INF
            if room >= 0:
                heads = table.get(head)
                if heads is None:
                    heads = table[head] = {}
                bit = bits.get(driver, 0)
                arcs.append((heads, driver, bit, bit & -bit, units, room, head, reach[head]))
        for last, bucket in buckets.items():
            # the class on board's bits, None before a leg: keyed by its
            # representative, or by the member where a label boarded it
            riding = bits.get(last)
            for label in bucket:
                key, used = label[0], label[1]
                for heads, driver, bit, first, units, room, head, mask in arcs:
                    if key > room:
                        continue
                    if driver is None:
                        _insert_label(heads, last, (key + units, used & mask,
                                                    label[2], label[3], label[4], label[5]))
                        continue
                    if bit == riding:
                        _insert_label(heads, last, (key + units, used & mask,
                                                    label[2], label[3], label[4], head))
                        continue
                    if key == room:
                        continue  # boarding adds a leg to the key
                    member = driver
                    if used & bit:
                        free = bit & ~used
                        if not free:
                            continue  # the rider left every member of the class
                        # the class's lowest free member, by its bit's place
                        low = free & -free
                        if low != first:
                            member = twins[driver][low.bit_length() - first.bit_length() - 1]
                            bits[member] = bit
                            first = low
                    if last is None:
                        _insert_label(heads, member, (key + units + 1, first & mask,
                                                      (), (), -vertex, head))
                    else:
                        _insert_label(heads, member, (
                            key + units + 1, (used | first) & mask,
                            label[2] + (last,), label[3] + (label[4], label[5]), -vertex, head))

    if best is None:
        return None
    key, arrival, drivers, spans = best
    waits = key // radix % radix
    legs = tuple(ItineraryLeg(driver, *decode(-spans[2 * k], nodes),
                              *decode(spans[2 * k + 1], nodes))
                 for k, driver in enumerate(drivers))
    return Itinerary(legs, costs.total(arrival // n - graph.start // n, waits), waits)


# the keys of a ``match_trace`` row, in ``match_trace.csv``'s column order
MATCH_TRACE_COLUMNS = ("rider_id", "request_time", "offers", "vertices", "travel_arcs",
                       "pruned_vertices", "feasible", "dp_cost", "matched")


def match_rider(sim, rider: RiderRequest) -> MatchResult:
    """Run the full pipeline once against a live simulation and commit the
    result, appending one diagnostic row to ``sim.match_trace``.

    The offer index hands the build every live driver's free slots, grouped
    by distinct slot (``SimState.collect_offers``), and the build tests each
    slot once, an open slot started at the clock's step. The trace's
    ``offers`` counts every live driver (``SimState.live_drivers``), whether
    or not one of its slots passed.

    There is no retry: offers, network and commit all read the same
    simulation instant and a rejected commit changes no state, so a second
    attempt would replay the same inputs to the same rejection. A rejected
    commit is reported as ``reason="capacity"``.
    """
    tau, clock_step = sim.matching_steps(), ceil_steps(sim.clock, sim.dt)
    ten = build_time_expanded(rider, sim.collect_offers(clock_step), sim.network, tau, sim.dt,
                              clock_step=clock_step)
    graph = preprocess(ten)
    itinerary = solve_itinerary(graph, sim.step_costs)
    committed = (itinerary is not None
                 and sim.commit_itinerary(rider, itinerary, tau, clock_step))
    sim.match_trace.append(dict(zip(MATCH_TRACE_COLUMNS, (
        rider.id, rider.request_time, sim.live_drivers, graph.ten_vertices,
        ten.driver_arcs, graph.ten_vertices - len(graph.vertices),
        graph.feasible, itinerary.total_cost if itinerary else None, committed))))
    if itinerary is None:
        return MatchResult(False, reason="infeasible")
    if not committed:
        return MatchResult(False, reason="capacity")
    return MatchResult(True, itinerary)
