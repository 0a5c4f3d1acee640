"""Multi-hop ride matching over per-rider time-expanded networks.

Pipeline for one rider request:

1. ``build_time_expanded`` discretizes time into steps of ``dt`` hours and
   intersects the rider's spatio-temporal feasibility windows with each
   driver's remaining schedule flexibility, producing driver-labelled travel
   arcs and (implicit) wait arcs. One rule, read from the minimum-step
   matrix ``m``, gives a driver's arcs on a link (i, j) of ``steps`` steps
   within a slot of its schedule from stop (a, s) to stop (b, t) that has a
   free seat: every step k of the rider's range with s + m[a][i] <= k and
   k + steps <= t - m[j][b] and, in the first slot of a driver not yet
   underway, no step at a after its latest departure step. Reaching j from
   a and b from i need no test: ``m`` is built from the same ``tau``, so
   m[a][j] <= m[a][i] + steps and m[i][b] <= steps + m[j][b]. By the same
   triangle inequality a slot is skipped unless it could reach the rider's
   destination from a by the latest arrival and b from the rider's origin.
2. ``preprocess`` prunes vertices not on any origin-to-destination path;
   the request is feasible exactly when the start vertex survives. It reads
   the graph from ``TimeExpandedNetwork.forward``, the one place that orders
   it: vertices by (step, node), a topological order, and each vertex's
   arcs wait first, then by (head, driver). Every later stage keeps it.
3. ``solve_itinerary`` runs a dynamic program over the pruned graph. A rider
   may transfer between vehicles but may never re-board a driver previously
   left, so each DP label carries the set of drivers already used; labels at
   a (vertex, current driver) pair are kept Pareto-minimal under
   (cost, wait steps, leg count) and used-set inclusion, which keeps the
   search exact under the no-re-boarding rule. A lower bound on every
   vertex's cost to go, which ignores drivers, and the cost of one
   itinerary found along it prune labels that cannot reach the optimum;
   the DP returns exactly what it would return without the bound.
   Itineraries tied on every key the DP orders by are not ordered; which
   one it returns follows its visiting order, stated in ``solve_itinerary``.

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
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

from .agents import TimeWindow
from .network import Network

INF = float("inf")

Vertex = tuple[int, int]  # (node id, time step)


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


Stop = tuple[int, int, bool]  # (node, deadline step, holds)


@dataclass(frozen=True)
class DriverOffer:
    """Snapshot of one ridesharing driver's remaining flexibility, in steps.

    ``origin`` is the driver's anchor: the node where the vehicle currently
    is (or will next be), available there from ``anchor_step``. A driver not
    yet underway leaves its origin by ``latest_departure_step``; every driver
    reaches its destination by ``latest_arrival_step``. ``pins`` are
    committed stops still ahead, in step order.
    """

    id: int
    origin: int
    destination: int
    anchor_step: int
    latest_departure_step: int
    latest_arrival_step: int
    seats: int
    pins: tuple[Pin, ...] = ()
    aboard: int = 0
    departed: bool = False

    @cached_property
    def _chain(self) -> tuple[tuple[Stop, ...], tuple[int, ...]]:
        """(stops, slot occupancies) of the chain through the pins, derived
        once; raises ValueError when the pins' steps decrease or an
        occupancy goes negative, since neither can come from a valid commit."""
        pins = self.pins
        if any(a.step > b.step for a, b in zip(pins, pins[1:])):
            raise ValueError(f"driver {self.id}: pin steps decrease in pin chain")
        stops = [(self.origin, self.anchor_step, False)]
        occs = [self.aboard]
        for pin in pins:
            stops.append((pin.node, pin.step, pin.action == "board"))
            occs.append(occs[-1] + (1 if pin.action == "board" else -1))
            if occs[-1] < 0:
                raise ValueError(f"driver {self.id}: negative occupancy in pin chain")
        stops.append((self.destination, self.latest_arrival_step, False))
        return tuple(stops), tuple(occs)

    def slot_occupancies(self) -> tuple[int, ...]:
        """Riders on board within each inter-pin segment (pins split slots)."""
        return self._chain[1]

    def stops(self) -> tuple[Stop, ...]:
        """The driver's schedule as (node, deadline step, holds) stops.

        The anchor comes first at its available step, then each pin at its
        pinned step, then the destination by the latest-arrival step. A
        boarding stop holds the vehicle until its step; other stops do not.
        """
        return self._chain[0]


class TravelArc(NamedTuple):
    tail: Vertex
    head: Vertex
    driver: int
    cost: float


Arc = tuple[Vertex, Optional[int], float]  # (head, driver or None for a wait, cost)


@dataclass
class TimeExpandedNetwork:
    """Rider-specific time-expanded graph (the matcher's search space).

    Vertex ``(node, k)`` exists for every step ``k`` of the node's interval;
    a wait arc joins each step to the next, and ``travel_arcs``, in no
    particular order, carry the drivers. ``forward`` lays the graph out.
    """

    origin: int
    destination: int
    node_intervals: dict[int, tuple[int, int]]
    travel_arcs: list[TravelArc]

    @property
    def start_vertex(self) -> Optional[Vertex]:
        interval = self.node_intervals.get(self.origin)
        return (self.origin, interval[0]) if interval else None

    def forward(self) -> dict[Vertex, list[Arc]]:
        """Every vertex, in (step, node) order, with its outgoing arcs: the
        wait arc first (driver None, cost 0.0; the solver charges the wait
        penalty), then the travel arcs by (head, driver).

        Every arc raises the step, so the vertex order is topological. This
        is the one place the search graph is ordered: ``preprocess`` and the
        DP visit it in this order, and it decides which of several exactly
        tied itineraries the DP returns.
        """
        intervals = self.node_intervals
        graph: dict[Vertex, list[Arc]] = {}
        for step, node in sorted((k, node) for node, (lo, hi) in intervals.items()
                                 for k in range(lo, hi + 1)):
            graph[node, step] = ([((node, step + 1), None, 0.0)]
                                 if step < intervals[node][1] else [])
        # equal (tail, head, driver) means equal cost, so whole-tuple order
        # is (tail, head, driver) order
        for tail, head, driver, cost in sorted(self.travel_arcs):
            graph[tail].append((head, driver, cost))
        return graph


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

    # links with both ends inside the rider's windows, with the tail steps
    # whose arrival also falls in the head's window
    candidates = []
    for link in network.links:
        i, j = link.from_node, link.to_node
        if i in intervals and j in intervals:
            steps = tau[link.id]
            lo = max(intervals[i][0], intervals[j][0] - steps)
            hi = min(intervals[i][1], intervals[j][1] - steps)
            candidates.append((i, j, lo, hi, steps, time_weight * steps * dt))

    # one arc rule per (slot, link): the steps k with s + m[a][i] <= k and
    # k + steps <= t - m[j][b], capped at a in the first slot of a driver not
    # yet underway; the bounds at j from a and at i to b never bind, by the
    # triangle inequality on m (module docstring, step 1). An INF empties the
    # range; a link is never a loop, so i and j are not both a.
    from_origin = matrix[rider.origin]
    arcs: list[TravelArc] = []
    for offer in drivers:
        stops = offer.stops()
        occupancies = offer.slot_occupancies()
        for slot, ((a, s, _), (b, t, _)) in enumerate(zip(stops, stops[1:])):
            if (occupancies[slot] >= offer.seats or s + matrix[a][rider.destination] > la
                    or ed + from_origin[b] > t):
                continue
            from_a = matrix[a]
            leave_by = (offer.latest_departure_step
                        if slot == 0 and not offer.departed else INF)
            for i, j, r_lo, r_hi, steps, cost in candidates:
                lo = max(r_lo, s + from_a[i])
                hi = min(r_hi, t - matrix[j][b] - steps)
                if i == a:
                    hi = min(hi, leave_by)
                elif j == a:
                    hi = min(hi, leave_by - steps)
                # pins in step order keep slots' arcs apart: an arc of a slot
                # ends by the slot's closing step, where the next slot starts
                if lo <= hi:
                    arcs.extend(TravelArc((i, k), (j, k + steps), offer.id, cost)
                                for k in range(lo, hi + 1))
    return TimeExpandedNetwork(rider.origin, rider.destination, intervals, arcs)


@dataclass
class PrunedGraph:
    """The remainder of a TEN after reachability pruning, in ``forward``'s
    order; ``ten_vertices`` counts the TEN's vertices before pruning."""

    vertices: list[Vertex]
    adjacency: dict[Vertex, list[Arc]]
    start: Optional[Vertex]
    dests: set[Vertex]
    ten_vertices: int

    @property
    def feasible(self) -> bool:
        return self.start is not None


def preprocess(ten: TimeExpandedNetwork) -> PrunedGraph:
    """Drop vertices not on any start-to-destination path.

    A vertex survives when it is reachable from the start vertex and reaches
    a destination vertex. The request is feasible iff the start survives:
    a start that reaches a destination already lies on such a path. One pass
    in ``forward``'s topological order finds what the start reaches; one
    pass back keeps what of that reaches a destination, with its arcs into
    survivors, so the survivors keep ``forward``'s order.
    """
    forward = ten.forward()
    start = ten.start_vertex
    reached = {start}
    for vertex, arcs in forward.items():
        if vertex in reached:
            reached.update(head for head, _, _ in arcs)
    # the heads of a reached vertex are reached, so each reaches a destination
    # exactly when it survives, and a survivor's heads come before it here
    adjacency: dict[Vertex, list[Arc]] = {}
    dests: set[Vertex] = set()
    for vertex in reversed(forward):
        if vertex not in reached:
            continue
        arcs = [arc for arc in forward[vertex] if arc[0] in adjacency]
        if vertex[0] == ten.destination:
            dests.add(vertex)
        elif not arcs:
            continue
        adjacency[vertex] = arcs
    vertices = list(adjacency)
    vertices.reverse()
    return PrunedGraph(
        vertices=vertices,
        adjacency=adjacency,
        start=start if start in adjacency else None,
        dests=dests,
        ten_vertices=len(forward),
    )


@dataclass
class _Label:
    cost: float
    waits: int
    legs: int
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


def _legs(arcs: Sequence[tuple[Vertex, Vertex, Optional[int]]]
          ) -> tuple[ItineraryLeg, ...]:
    """The legs of a path given as (tail, head, driver) arcs, a wait's
    driver being None: one leg per run of arcs with one driver."""
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
    return tuple(legs)


def _trace(label: _Label) -> Itinerary:
    arcs: list[tuple[Vertex, Vertex, Optional[int]]] = []
    node: Optional[_Label] = label
    while node is not None and node.parent is not None:
        arcs.append((node.parent.vertex, node.vertex, node.arc_driver))
        node = node.parent
    arcs.reverse()
    return Itinerary(_legs(arcs), label.cost, label.waits)


def _cost_to_go(graph: PrunedGraph, penalty: float) -> dict[Vertex, float]:
    """Least cost from each vertex to a destination vertex, ignoring drivers
    (any arc may follow any other) and charging ``penalty`` per wait arc.
    Every itinerary from a vertex is such a path, so the value is a lower
    bound on its cost; it is consistent, being a shortest path."""
    togo: dict[Vertex, float] = {}
    for vertex in reversed(graph.vertices):
        best = 0.0 if vertex in graph.dests else INF
        for head, driver, cost in graph.adjacency[vertex]:
            best = min(best, (penalty if driver is None else cost) + togo[head])
        togo[vertex] = best
    return togo


def _incumbent(graph: PrunedGraph, togo: dict[Vertex, float], penalty: float) -> float:
    """The cost of one itinerary as cheap as ``togo`` at the start, or INF.

    The walk takes, at each vertex, an arc that attains ``togo`` there,
    preferring a wait, then the driver on board, then the first in
    ``TimeExpandedNetwork.forward``'s arc order, and stops at the first
    destination vertex. If the walk would re-board a driver it left, the
    path is no itinerary and the result is INF, which turns pruning off.
    """
    vertex, cost, last, used = graph.start, 0.0, None, set()
    while vertex not in graph.dests:
        ties = [(head, driver, arc) for head, driver, arc in graph.adjacency[vertex]
                if (penalty if driver is None else arc) + togo[head] == togo[vertex]]
        head, driver, arc = min(ties, key=lambda t: (t[1] is not None, t[1] != last))
        if driver is None:
            cost += penalty
        else:
            if driver != last and driver in used:
                return INF
            cost += arc
            last = driver
            used.add(driver)
        vertex = head
    return cost


def solve_itinerary(graph: PrunedGraph, penalty: float) -> Optional[Itinerary]:
    """Minimum-cost itinerary over the pruned graph, or None when infeasible.

    Objective: summed travel-arc cost plus ``penalty`` per wait step; ties
    broken toward fewer waits, then fewer legs, then earlier arrival, then
    the lexicographically smallest driver sequence. Itineraries equal on all
    five (a different transfer vertex or boarding step) are not ordered; the
    DP returns the one its labels reach first. It visits the vertices in
    ``TimeExpandedNetwork.forward``'s order, each vertex's buckets (one per
    last driver) in the order the vertex's in-arcs first reach them, and
    each bucket's labels in insertion order, and of two equal labels it
    keeps the first.

    Before it expands a vertex's labels, the DP creates every bucket each
    arc can reach at the arc's head: a travel arc its driver's, a wait arc
    each of the tail's, in the tail's order. So a bucket exists, in its
    place, whether or not any label takes the arc, and the bucket order
    depends on the graph alone.

    Labels are pruned by a bound. ``_cost_to_go`` gives a lower bound on
    the cost from every vertex to a destination, and ``_incumbent`` the cost
    of one itinerary. An expansion whose cost plus the bound at its head
    exceeds the incumbent by more than a relative 1e-9 is skipped: it cannot
    reach any finalist, and a label it would have made could dominate only
    labels that are pruned too. Since pruning cannot change the bucket order
    either, the survivors, their order and hence the result are those of the
    unpruned DP.
    """
    if not 0 <= penalty < INF:
        raise ValueError("penalty must be non-negative and finite")
    if not graph.feasible:
        return None
    togo = _cost_to_go(graph, penalty)
    limit = _incumbent(graph, togo, penalty) * (1 + 1e-9)  # costs are non-negative
    table: dict[Vertex, dict[Optional[int], list[_Label]]] = {
        v: {} for v in graph.vertices
    }
    table[graph.start][None] = [_Label(0.0, 0, 0, frozenset(), graph.start)]

    for vertex in graph.vertices:
        buckets = table[vertex]  # heads lie later: no bucket here grows
        arcs = graph.adjacency[vertex]
        for head, driver, _ in arcs:
            heads = table[head]
            for last in (buckets if driver is None else (driver,)):
                heads.setdefault(last, [])
        for last, bucket in buckets.items():
            for label in bucket:
                for head, driver, cost in arcs:
                    if driver is None:
                        new_cost = label.cost + penalty
                        if new_cost + togo[head] > limit:
                            continue
                        nxt = _Label(new_cost, label.waits + 1, label.legs,
                                     label.used, head, label, None)
                        _insert_label(table[head][last], nxt)
                    else:
                        if last is not None and driver != last and driver in label.used:
                            continue
                        new_cost = label.cost + cost
                        if new_cost + togo[head] > limit:
                            continue
                        legs = label.legs + (0 if driver == last else 1)
                        nxt = _Label(new_cost, label.waits, legs,
                                     label.used | {driver}, head, label, driver)
                        _insert_label(table[head][driver], nxt)

    candidates = [label for dest in graph.dests for bucket in table[dest].values()
                  for label in bucket if label.legs > 0]
    if not candidates:
        return None
    best = min((c.cost, c.waits, c.legs, c.vertex[1]) for c in candidates)
    # the ties share one vertex, and a driver sequence names one bucket there
    return min((_trace(c) for c in candidates
                if (c.cost, c.waits, c.legs, c.vertex[1]) == best),
               key=Itinerary.driver_sequence)


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
        "vertices": graph.ten_vertices,
        "travel_arcs": len(ten.travel_arcs),
        "pruned_vertices": graph.ten_vertices - len(graph.vertices),
        "feasible": graph.feasible,
        "dp_cost": itinerary.total_cost if itinerary else None,
        "matched": committed,
    })
    if itinerary is None:
        return MatchResult(False, reason="infeasible")
    if not committed:
        return MatchResult(False, reason="capacity")
    return MatchResult(True, itinerary)
