"""Multi-hop ride matching over per-rider time-expanded networks.

Pipeline for one rider request:

1. ``build_time_expanded`` discretizes time into steps of ``dt`` hours and
   intersects the rider's spatio-temporal feasibility windows with each
   driver's remaining schedule flexibility, producing driver-labelled travel
   arcs and (implicit) wait arcs.
2. ``preprocess`` prunes vertices not on any origin-to-destination path and
   orders the survivors topologically; the request is feasible exactly when
   the start vertex survives the pruning.
3. ``solve_itinerary`` runs a dynamic program over the pruned graph. A rider
   may transfer between vehicles but may never re-board a driver previously
   left, so each DP label carries the set of drivers already used; labels at
   a (vertex, current driver) pair are kept Pareto-minimal under
   (cost, wait steps, leg count) and used-set inclusion, which keeps the
   search exact under the no-re-boarding rule.

``brute_force_itinerary`` enumerates every labelled path and is the testing
oracle for the dynamic program.

Every link is priced in whole steps, ``tau``, which ``match_rider`` takes
once per request from the traffic state frozen at the match instant
(``SimState.matching_steps``, through ``step_durations``) and passes to both
the network build and the commit, so the two read one set of durations.
The all-pairs minimum-step matrix is reused from the previous request while
every link's step count repeats (``_shared_min_step_matrix``).
``match_rider`` makes one attempt: offers, network and commit all read that
one instant, and the commit checks each driver's schedule through the same
``DriverOffer.stops`` chain that built the network.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .agents import TimeWindow
from .network import Network

INF = float("inf")

Vertex = tuple[int, int]  # (node id, time step)


class EnumerationBudgetError(RuntimeError):
    """Raised when the brute-force oracle exceeds its expansion budget."""


def ceil_steps(hours: float, dt: float) -> int:
    """Smallest whole step count covering ``hours`` (tolerant of float noise)."""
    if hours <= 0:
        return 0
    return math.ceil(hours / dt - 1e-9)


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


@dataclass(frozen=True)
class DriverOffer:
    """Snapshot of one ridesharing driver's remaining flexibility.

    ``origin`` is the driver's anchor: the node where the vehicle currently
    is (or will next be), with ``window.earliest_departure`` the time it is
    available there. ``pins`` are committed stops still ahead, in time order.
    """

    id: int
    origin: int
    destination: int
    window: TimeWindow
    seats: int
    pins: tuple[Pin, ...] = ()
    aboard: int = 0
    departed: bool = False

    def slot_occupancies(self, pins: Optional[Sequence[Pin]] = None) -> list[int]:
        """Riders on board within each inter-pin segment (pins split slots).

        ``pins`` replaces the offer's own pins, as in ``stops``.
        """
        occs = [self.aboard]
        for pin in self.pins if pins is None else pins:
            occs.append(occs[-1] + (1 if pin.action == "board" else -1))
        if any(o < 0 for o in occs):
            raise ValueError(f"driver {self.id}: negative occupancy in pin chain")
        return occs

    def stops(
        self, dt: float, pins: Optional[Sequence[Pin]] = None
    ) -> list[tuple[int, int, bool]]:
        """The driver's schedule as (node, deadline step, holds) stops.

        The anchor comes first at its available step, then each pin at its
        pinned step, then the destination by the latest-arrival step. A
        boarding stop holds the vehicle until its step; other stops do not.
        ``pins`` replaces the offer's own pins (a commit checks a candidate
        chain).
        """
        pins = self.pins if pins is None else pins
        stops = [(self.origin, ceil_steps(self.window.earliest_departure, dt), False)]
        stops += [(p.node, p.step, p.action == "board") for p in pins]
        stops.append((self.destination, ceil_steps(self.window.latest_arrival, dt), False))
        return stops


@dataclass(frozen=True)
class TravelArc:
    tail: Vertex
    head: Vertex
    driver: int
    cost: float


@dataclass
class TimeExpandedNetwork:
    """Rider-specific time-expanded graph (the matcher's search space)."""

    origin: int
    destination: int
    node_intervals: dict[int, tuple[int, int]]
    travel_arcs: list[TravelArc]

    @property
    def start_vertex(self) -> Optional[Vertex]:
        interval = self.node_intervals.get(self.origin)
        return (self.origin, interval[0]) if interval else None

    def dest_vertices(self) -> list[Vertex]:
        interval = self.node_intervals.get(self.destination)
        if not interval:
            return []
        return [(self.destination, k) for k in range(interval[0], interval[1] + 1)]

    def vertices(self) -> list[Vertex]:
        out = []
        for node in sorted(self.node_intervals):
            lo, hi = self.node_intervals[node]
            out.extend((node, k) for k in range(lo, hi + 1))
        return out

    def wait_arcs(self) -> Iterator[tuple[Vertex, Vertex]]:
        for node in sorted(self.node_intervals):
            lo, hi = self.node_intervals[node]
            for k in range(lo, hi):
                yield (node, k), (node, k + 1)


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

    def driver_sequence(self) -> tuple[int, ...]:
        return tuple(leg.driver for leg in self.legs)


@dataclass(frozen=True)
class MatchResult:
    matched: bool
    itinerary: Optional[Itinerary] = None
    reason: str = ""


def step_durations(
    network: Network, delay: Callable[[int], float], dt: float
) -> dict[int, int]:
    """Whole steps to traverse each link at the given delays, at least one."""
    return {link.id: max(1, ceil_steps(delay(link.id), dt)) for link in network.links}


def _min_step_matrix(
    network: Network, tau: dict[int, int]
) -> dict[int, dict[int, float]]:
    """All-pairs minimum travel steps under the frozen per-link durations."""
    matrix: dict[int, dict[int, float]] = {}
    nodes = network.node_ids()
    for source in nodes:
        dist: dict[int, float] = {n: INF for n in nodes}
        dist[source] = 0
        heap = [(0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for link_id in network.adjacency[u]:
                link = network.link(link_id)
                nd = d + tau[link_id]
                if nd < dist[link.to_node]:
                    dist[link.to_node] = nd
                    heapq.heappush(heap, (nd, link.to_node))
        matrix[source] = dist
    return matrix


# (network, step count per link in ``network.links`` order, matrix) of the
# last request; see ``_shared_min_step_matrix``
_min_step_memo: Optional[
    tuple[Network, tuple[int, ...], dict[int, dict[int, float]]]
] = None


def _shared_min_step_matrix(
    network: Network, tau: dict[int, int]
) -> dict[int, dict[int, float]]:
    """``_min_step_matrix`` through a one-entry memo keyed on the network
    object and every link's step count, so consecutive requests that see the
    same whole-step durations share one matrix. Callers must not mutate it."""
    global _min_step_memo
    key = tuple(tau[link.id] for link in network.links)
    memo = _min_step_memo
    if memo is None or memo[0] is not network or memo[1] != key:
        memo = _min_step_memo = (network, key, _min_step_matrix(network, tau))
    return memo[2]


def _driver_presence(
    offer: DriverOffer,
    stops: list[tuple[int, int, bool]],
    node: int,
    ld_step: int,
    matrix: dict[int, dict[int, float]],
) -> dict[int, tuple[int, int]]:
    """``{slot: (lo step, hi step)}``: when the driver can be at ``node``
    within each slot, the stretch of its schedule between two consecutive
    ``stops``; a driver not yet underway leaves its origin by ``ld_step``."""
    windows: dict[int, tuple[int, int]] = {}
    for slot, ((from_node, from_step, _), (to_node, to_step, _)) in enumerate(
            zip(stops, stops[1:])):
        ahead = matrix[from_node][node]
        behind = matrix[node][to_node]
        if ahead == INF or behind == INF:
            continue
        lo = from_step + int(ahead)
        hi = to_step - int(behind)
        if slot == 0 and not offer.departed and node == offer.origin:
            hi = min(hi, ld_step)
        if lo <= hi:
            windows[slot] = (lo, hi)
    return windows


def build_time_expanded(
    rider: RiderRequest,
    drivers: Sequence[DriverOffer],
    network: Network,
    tau: dict[int, int],
    dt: float,
    time_weight: float = 1.0,
) -> TimeExpandedNetwork:
    """Construct the rider's time-expanded network.

    ``tau`` holds every link's duration in whole steps; ``match_rider`` takes
    it once per request and the commit reads the same ``tau``. Node windows
    come from forward/backward minimum-time sweeps between the rider's
    earliest departure and latest arrival; a driver contributes a
    travel arc on a link only while the link traversal fits inside both the
    rider's window at the endpoints and the driver's own remaining schedule
    (including committed stops and seat capacity). An empty network is the
    valid encoding of an infeasible request.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    matrix = _shared_min_step_matrix(network, tau)

    w = rider.window
    ed = ceil_steps(w.earliest_departure, dt)
    ld = ceil_steps(w.latest_departure, dt)
    ea = ceil_steps(w.earliest_arrival, dt)
    la = ceil_steps(w.latest_arrival, dt)

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

    # links with both ends inside the rider's windows, in link id order, with
    # the tail steps whose arrival also falls in the head's window
    candidates = []
    for link in sorted(network.links, key=lambda l: l.id):
        i, j = link.from_node, link.to_node
        if i in intervals and j in intervals:
            steps = tau[link.id]
            lo = max(intervals[i][0], intervals[j][0] - steps)
            hi = min(intervals[i][1], intervals[j][1] - steps)
            candidates.append((i, j, lo, hi, steps, time_weight * steps * dt))

    seen_arcs: set[tuple[Vertex, Vertex, int]] = set()
    arcs: list[TravelArc] = []
    for offer in sorted(drivers, key=lambda o: o.id):
        occupancies = offer.slot_occupancies()
        stops = offer.stops(dt)
        ld_step = ceil_steps(offer.window.latest_departure, dt)
        presence = {
            node: _driver_presence(offer, stops, node, ld_step, matrix)
            for node in intervals
        }
        for i, j, r_lo, r_hi, steps, cost in candidates:
            heads = presence[j]
            for slot, (d_lo, d_hi) in presence[i].items():
                if occupancies[slot] >= offer.seats or slot not in heads:
                    continue
                h_lo, h_hi = heads[slot]
                lo = max(r_lo, d_lo, h_lo - steps)
                hi = min(r_hi, d_hi, h_hi - steps)
                for k in range(lo, hi + 1):
                    k2 = k + steps
                    signature = ((i, k), (j, k2), offer.id)
                    if signature in seen_arcs:
                        continue
                    seen_arcs.add(signature)
                    arcs.append(TravelArc((i, k), (j, k2), offer.id, cost))
    arcs.sort(key=lambda a: (a.tail, a.head, a.driver))
    return TimeExpandedNetwork(rider.origin, rider.destination, intervals, arcs)


@dataclass
class PrunedGraph:
    """Topologically ordered remainder of a TEN after reachability pruning."""

    vertices: list[Vertex]
    adjacency: dict[Vertex, list[tuple[Vertex, Optional[int], float]]]
    start: Optional[Vertex]
    dests: set[Vertex]
    removed: set[Vertex]

    @property
    def feasible(self) -> bool:
        return self.start is not None


def _all_arcs(ten: TimeExpandedNetwork) -> Iterator[tuple[Vertex, Vertex, Optional[int], float]]:
    for tail, head in ten.wait_arcs():
        yield tail, head, None, 0.0  # wait cost filled in by the solver
    for arc in ten.travel_arcs:
        yield arc.tail, arc.head, arc.driver, arc.cost


def preprocess(ten: TimeExpandedNetwork) -> PrunedGraph:
    """Drop vertices not on any start-to-destination path; topo-sort the rest.

    A vertex survives when it is reachable from the start vertex and reaches
    a destination vertex. The request is feasible iff the start survives:
    a start that reaches a destination already lies on such a path.
    """
    all_vertices = set(ten.vertices())
    start = ten.start_vertex
    origins = {start} if start is not None else set()
    dests = set(ten.dest_vertices())

    forward: dict[Vertex, list[tuple[Vertex, Optional[int], float]]] = {
        v: [] for v in all_vertices
    }
    backward: dict[Vertex, list[Vertex]] = {v: [] for v in all_vertices}
    for tail, head, driver, cost in _all_arcs(ten):
        forward[tail].append((head, driver, cost))
        backward[head].append(tail)

    def closure(seeds: set[Vertex], neighbors: dict[Vertex, list[Vertex]]) -> set[Vertex]:
        seen = set(seeds)
        stack = list(seeds)
        while stack:
            v = stack.pop()
            for nxt in neighbors[v]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    reach_fwd = closure(origins, {v: [h for h, _, _ in forward[v]] for v in all_vertices})
    reach_bwd = closure(dests, backward)
    surviving = reach_fwd & reach_bwd
    removed = all_vertices - surviving

    adjacency = {
        v: [(h, d, c) for h, d, c in forward[v] if h in surviving]
        for v in surviving
    }
    ordered = sorted(surviving, key=lambda v: (v[1], v[0]))
    return PrunedGraph(
        vertices=ordered,
        adjacency=adjacency,
        start=start if start in surviving else None,
        dests={v for v in dests if v in surviving},
        removed=removed,
    )


@dataclass
class _Label:
    cost: float
    waits: int
    legs: int
    last: Optional[int]
    used: frozenset[int]
    vertex: Vertex
    parent: Optional["_Label"] = None
    arc_driver: Optional[int] = None  # driver of the arc into this label; None = wait

    def dominates(self, other: "_Label") -> bool:
        return (
            self.cost <= other.cost
            and self.waits <= other.waits
            and self.legs <= other.legs
            and self.used <= other.used
        )


def _insert_label(bucket: list[_Label], label: _Label) -> bool:
    for existing in bucket:
        if existing.dominates(label):
            return False
    bucket[:] = [ex for ex in bucket if not label.dominates(ex)]
    bucket.append(label)
    return True


def _trace(label: _Label) -> Itinerary:
    arcs: list[tuple[Vertex, Vertex, Optional[int]]] = []
    node: Optional[_Label] = label
    while node is not None and node.parent is not None:
        arcs.append((node.parent.vertex, node.vertex, node.arc_driver))
        node = node.parent
    arcs.reverse()

    legs: list[ItineraryLeg] = []
    current: Optional[int] = None
    board: Optional[Vertex] = None
    alight: Optional[Vertex] = None
    for tail, head, driver in arcs:
        if driver is None:
            continue
        if driver != current:
            if current is not None:
                legs.append(ItineraryLeg(current, board[0], board[1],
                                         alight[0], alight[1]))
            current, board = driver, tail
        alight = head
    if current is not None:
        legs.append(ItineraryLeg(current, board[0], board[1],
                                 alight[0], alight[1]))
    return Itinerary(tuple(legs), label.cost, label.waits)


def solve_itinerary(graph: PrunedGraph, penalty: float) -> Optional[Itinerary]:
    """Minimum-cost itinerary over the pruned graph, or None when infeasible.

    Objective: summed travel-arc cost plus ``penalty`` per wait step; ties
    broken toward fewer waits, then fewer legs, then earlier arrival, then
    the lexicographically smallest driver sequence.
    """
    if not graph.feasible:
        return None
    table: dict[Vertex, dict[Optional[int], list[_Label]]] = {
        v: {} for v in graph.vertices
    }
    root = _Label(0.0, 0, 0, None, frozenset(), graph.start)
    table[graph.start][None] = [root]

    for vertex in graph.vertices:
        for bucket in table[vertex].values():
            for label in list(bucket):
                for head, driver, cost in graph.adjacency[vertex]:
                    if driver is None:
                        nxt = _Label(label.cost + penalty, label.waits + 1,
                                     label.legs, label.last, label.used,
                                     head, label, None)
                    else:
                        if (label.last is not None and driver != label.last
                                and driver in label.used):
                            continue
                        legs = label.legs + (0 if driver == label.last else 1)
                        nxt = _Label(label.cost + cost, label.waits, legs,
                                     driver, label.used | {driver},
                                     head, label, driver)
                    _insert_label(table[head].setdefault(nxt.last, []), nxt)

    candidates: list[_Label] = []
    for dest in graph.dests:
        for bucket in table[dest].values():
            candidates.extend(lbl for lbl in bucket if lbl.legs > 0)
    if not candidates:
        return None
    best_key = min(
        (c.cost, c.waits, c.legs, c.vertex[1]) for c in candidates
    )
    finalists = [
        c for c in candidates if (c.cost, c.waits, c.legs, c.vertex[1]) == best_key
    ]
    itineraries = [_trace(c) for c in finalists]
    return min(itineraries, key=lambda it: it.driver_sequence())


def brute_force_itinerary(
    ten: TimeExpandedNetwork, penalty: float, budget: int = 200_000
) -> Optional[Itinerary]:
    """Exhaustive oracle: enumerate every labelled path obeying the
    no-re-boarding rule and return the exact optimum (same tie-breaks as
    ``solve_itinerary``). Raises EnumerationBudgetError past ``budget`` arc
    expansions."""
    start = ten.start_vertex
    if start is None:
        return None
    dests = set(ten.dest_vertices())

    forward: dict[Vertex, list[tuple[Vertex, Optional[int], float]]] = {}
    for tail, head, driver, cost in _all_arcs(ten):
        forward.setdefault(tail, []).append((head, driver, cost))

    best: Optional[tuple] = None
    best_itin: Optional[Itinerary] = None
    expansions = 0

    def key_of(path, cost, waits, legs, vertex) -> tuple:
        drivers = tuple(d for _, _, d in path if d is not None)
        collapsed = tuple(d for i, d in enumerate(drivers)
                          if i == 0 or d != drivers[i - 1])
        return (cost, waits, legs, vertex[1], collapsed)

    def build(path, cost, waits) -> Itinerary:
        legs: list[ItineraryLeg] = []
        current = None
        board = alight = None
        for tail, head, driver in path:
            if driver is None:
                continue
            if driver != current:
                if current is not None:
                    legs.append(ItineraryLeg(current, board[0], board[1],
                                             alight[0], alight[1]))
                current, board = driver, tail
            alight = head
        if current is not None:
            legs.append(ItineraryLeg(current, board[0], board[1],
                                     alight[0], alight[1]))
        return Itinerary(tuple(legs), cost, waits)

    stack: list[tuple[Vertex, Optional[int], frozenset, float, int, int, tuple]] = [
        (start, None, frozenset(), 0.0, 0, 0, ())
    ]
    while stack:
        vertex, last, used, cost, waits, legs, path = stack.pop()
        if vertex in dests and legs > 0:
            key = key_of(path, cost, waits, legs, vertex)
            if best is None or key < best:
                best = key
                best_itin = build(path, cost, waits)
        for head, driver, arc_cost in forward.get(vertex, ()):
            expansions += 1
            if expansions > budget:
                raise EnumerationBudgetError(
                    f"brute force exceeded {budget} expansions"
                )
            if driver is None:
                stack.append((head, last, used, cost + penalty, waits + 1,
                              legs, path + ((vertex, head, None),)))
            else:
                if last is not None and driver != last and driver in used:
                    continue
                nlegs = legs + (0 if driver == last else 1)
                stack.append((head, driver, used | {driver}, cost + arc_cost,
                              waits, nlegs, path + ((vertex, head, driver),)))
    return best_itin


def match_rider(sim, rider: RiderRequest) -> MatchResult:
    """Run the full pipeline once against a live simulation and commit the
    result, appending one diagnostic row to ``sim.match_trace``.

    There is no retry: offers, network and commit all read the same
    simulation instant and a rejected commit changes no state, so a second
    attempt would replay the same inputs to the same rejection. A rejected
    commit is reported as ``reason="capacity"``.
    """
    offers = sim.collect_offers(rider)
    tau = sim.matching_steps()
    ten = build_time_expanded(rider, offers, sim.network, tau, sim.dt,
                              time_weight=sim.weights.time)
    graph = preprocess(ten)
    itinerary = solve_itinerary(graph, sim.penalty)
    committed = itinerary is not None and sim.commit_itinerary(rider, itinerary, tau)
    sim.match_trace.append({
        "rider_id": rider.id,
        "request_time": rider.request_time,
        "offers": len(offers),
        "vertices": len(ten.vertices()),
        "travel_arcs": len(ten.travel_arcs),
        "pruned_vertices": len(graph.removed),
        "feasible": graph.feasible,
        "dp_cost": itinerary.total_cost if itinerary else None,
        "matched": committed,
    })
    if itinerary is None:
        return MatchResult(False, reason="infeasible")
    if not committed:
        return MatchResult(False, reason="capacity")
    return MatchResult(True, itinerary)
