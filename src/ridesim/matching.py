"""Multi-hop ride matching over per-rider time-expanded networks.

Pipeline for one rider request:

1. ``build_time_expanded`` discretizes time into steps of ``dt`` hours and
   intersects the rider's feasibility windows with each driver's remaining
   schedule. A vertex is one integer, ``step * n + p`` for the node at
   position p of the n nodes the rider's windows reach, ascending, so
   integer order is (step, node) order and every arc raises it; ``decode``
   gives (node, step) back. Wait arcs join a node's steps; travel arcs are
   (tail, head, driver, cost) tuples. One rule, read from the minimum-step
   matrix ``m``, gives a driver's arcs on a link (i, j) of ``steps`` steps
   within a slot of its schedule from stop (a, s) to stop (b, t) that has a
   free seat: every step k of the rider's range with s + m[a][i] <= k
   and k + steps <= t - m[j][b] and, in the first slot of a driver not yet
   underway, no step at a after its latest departure step. Reaching j from
   a and b from i need no test: ``m`` is built from the same ``tau``, so
   m[a][j] <= m[a][i] + steps and m[i][b] <= steps + m[j][b]. By the same
   triangle inequality a slot is skipped unless it could reach the rider's
   destination from a by the latest arrival and b from the rider's origin.
2. ``preprocess`` prunes vertices not on any origin-to-destination path;
   the request is feasible exactly when the start vertex survives. It reads
   the graph from ``TimeExpandedNetwork.forward``, the one place that orders
   it: vertices in integer order, each vertex's arcs wait first, then by
   (head, driver). Every later stage keeps that order.
3. ``solve_itinerary`` runs a dynamic program over the pruned graph. A rider
   may transfer between vehicles but never re-board a driver it left, so
   each DP label, a tuple, carries the drivers it used as a bitmask. Labels
   at a (vertex, last driver) pair are kept Pareto-minimal under (cost,
   waits, legs) and used-set inclusion, which keeps the search exact. A
   driver-blind lower bound on each vertex's cost to go, and the cost of
   one itinerary found along it, prune labels that cannot reach the
   optimum without changing the result. Which of several exactly tied
   itineraries it returns follows its visiting order (``solve_itinerary``).

``match_rider`` takes every link's whole-step duration, ``tau``, once per
request from the traffic state frozen at the match instant
(``SimState.matching_steps``) and passes it to both the network build and
the commit; ``m`` is reused while every link's step count repeats
(``_shared_min_step_matrix``). It makes one attempt: offers, network and
commit read that one instant, and the commit checks each driver's schedule
through the ``DriverOffer.stops`` chain that built the network.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .agents import TimeWindow
from .network import Network

INF = float("inf")

Vertex = int  # step * node count + the node's position; see TimeExpandedNetwork


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


TravelArc = tuple[Vertex, Vertex, int, float]  # (tail, head, driver, cost)
Arc = tuple[Vertex, Optional[int], float]  # (head, driver or None for a wait, cost)


def decode(vertex: Vertex, nodes: Sequence[int]) -> tuple[int, int]:
    """The (node, step) of ``vertex`` in a network over ``nodes``."""
    step, position = divmod(vertex, len(nodes))
    return nodes[position], step


@dataclass
class TimeExpandedNetwork:
    """Rider-specific time-expanded graph (the matcher's search space).

    A vertex, ``k * len(nodes) + nodes.index(node)``, exists for every step
    ``k`` of each node's interval; a wait arc joins each step to the next,
    and ``travel_arcs``, in no particular order, carry the drivers.
    ``forward`` lays the graph out.
    """

    origin: int
    destination: int
    node_intervals: dict[int, tuple[int, int]]
    travel_arcs: list[TravelArc]
    nodes: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.nodes = tuple(sorted(self.node_intervals))

    @property
    def start_vertex(self) -> Optional[Vertex]:
        interval = self.node_intervals.get(self.origin)
        return (interval[0] * len(self.nodes) + self.nodes.index(self.origin)
                if interval else None)

    def forward(self) -> dict[Vertex, list[Arc]]:
        """Every vertex, in integer order, with its outgoing arcs: the wait
        arc first (driver None, cost 0.0; the solver charges the wait
        penalty), then the travel arcs by (head, driver).

        Every arc raises the step, so the vertex order is topological. This
        is the one place the search graph is ordered: ``preprocess`` and the
        DP visit it in this order, and it decides which of several exactly
        tied itineraries the DP returns.
        """
        n = len(self.nodes)
        graph: dict[Vertex, list[Arc]] = {}
        for position, node in enumerate(self.nodes):
            lo, hi = self.node_intervals[node]
            for vertex in range(lo * n + position, hi * n + position, n):
                graph[vertex] = [(vertex + n, None, 0.0)]
            graph[hi * n + position] = []
        graph = {vertex: graph[vertex] for vertex in sorted(graph)}
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
    """Construct the rider's time-expanded network (module docstring, step 1).

    ``tau`` holds every link's duration in whole steps. Node intervals come
    from minimum-step sweeps from the rider's earliest departure and back
    from the latest arrival. An empty network encodes an infeasible request.
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
    ten = TimeExpandedNetwork(rider.origin, rider.destination, intervals, [])
    nodes = ten.nodes
    n = len(nodes)

    # links with both ends inside the rider's windows, with the tail steps
    # whose arrival also falls in the head's window and the code distance
    # from tail to head
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
                                   steps * n + nodes.index(j) - p, time_weight * steps * dt))

    # one arc rule per (slot, link): the steps k with s + m[a][i] <= k and
    # k + steps <= t - m[j][b], capped at a in the first slot of a driver not
    # yet underway; the bounds at j from a and at i to b never bind, by the
    # triangle inequality on m (module docstring, step 1). An INF empties the
    # range; a link is never a loop, so i and j are not both a.
    from_origin = matrix[rider.origin]
    arcs = ten.travel_arcs
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
            for i, j, lo, hi, steps, from_j, p, shift, cost in candidates:
                if s + from_a[i] > lo:
                    lo = s + from_a[i]
                if t - from_j[b] - steps < hi:
                    hi = t - from_j[b] - steps
                if i == a:
                    hi = min(hi, leave_by)
                elif j == a:
                    hi = min(hi, leave_by - steps)
                # pins in step order keep slots' arcs apart: an arc of a slot
                # ends by the slot's closing step, where the next slot starts
                if lo <= hi:
                    arcs += [(tail, tail + shift, offer.id, cost)
                             for tail in range(lo * n + p, hi * n + p + 1, n)]
    return ten


@dataclass
class PrunedGraph:
    """The remainder of a TEN after reachability pruning, in ``forward``'s
    order, over its ``nodes``; ``ten_vertices`` counts the TEN's vertices."""

    nodes: tuple[int, ...]
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
        if decode(vertex, ten.nodes)[0] == ten.destination:
            dests.add(vertex)
        elif not arcs:
            continue
        adjacency[vertex] = arcs
    vertices = list(reversed(adjacency))
    return PrunedGraph(ten.nodes, vertices, adjacency,
                       start if start in adjacency else None, dests, len(forward))


# (cost, waits, legs, used, parent, vertex, driver): a path's cost, waits
# and legs, the bitmask of the drivers it rode, the label it extends (None
# at the start), the vertex it reaches and its last arc's driver (None: wait)
Label = tuple


def _insert_label(bucket: list[Label], label: Label) -> bool:
    """Add ``label`` to the Pareto set ``bucket`` unless one there dominates
    it (no greater cost, waits and legs, and no driver it lacks), and drop
    the labels it dominates."""
    cost, waits, legs, used = label[0], label[1], label[2], label[3]
    dominated = []
    for k, other in enumerate(bucket):
        if (other[0] <= cost and other[1] <= waits and other[2] <= legs
                and other[3] | used == used):
            return False
        if (cost <= other[0] and waits <= other[1] and legs <= other[2]
                and used | other[3] == other[3]):
            dominated.append(k)
    for k in reversed(dominated):
        del bucket[k]
    bucket.append(label)
    return True


def _path(label: Label) -> list[tuple[Vertex, Vertex, Optional[int]]]:
    """The (tail, head, driver) arcs of the path to ``label``, in order."""
    arcs = []
    while (parent := label[4]) is not None:
        arcs.append((parent[5], label[5], label[6]))
        label = parent
    return arcs[::-1]


def _legs(arcs: Sequence[tuple[Vertex, Vertex, Optional[int]]],
          nodes: Sequence[int]) -> tuple[ItineraryLeg, ...]:
    """The legs of a path of (tail, head, driver) arcs over ``nodes``, a
    wait's driver being None: one leg per run of arcs with one driver."""
    runs = [list(run) for _, run in groupby(
        (arc for arc in arcs if arc[2] is not None), key=itemgetter(2))]
    return tuple(ItineraryLeg(run[0][2], *decode(run[0][0], nodes),
                              *decode(run[-1][1], nodes)) for run in runs)


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
    the lexicographically smallest driver sequence; only the winner is
    traced into legs. Itineraries equal on all five (a different transfer
    vertex or boarding step) are not ordered; the DP returns the one its
    labels reach first. It visits the vertices in integer order, each
    vertex's buckets (one per last driver) in the order its in-arcs first
    reach them, and each bucket's labels in insertion order, and of two
    equal labels it keeps the first. Of ``forward``'s arc order only the
    order of the arcs into one head counts: from one tail, the wait arc
    first, then the travel arcs by driver.

    Before it expands a vertex's labels, the DP pairs each arc with its
    head's bucket table and cost to go and creates every bucket the arc can
    reach there: a travel arc its driver's, a wait arc each of the tail's,
    in the tail's order. So a bucket exists, in its place, whether or not
    any label takes the arc, and the bucket order depends on the graph alone.

    Labels are pruned by a bound. ``_cost_to_go`` gives a lower bound on
    the cost from every vertex to a destination, and ``_incumbent`` the cost
    of one itinerary. An expansion whose cost plus the bound at its head
    exceeds the incumbent by more than a relative 1e-9 is skipped: it cannot
    reach any finalist, and a label it would have made could dominate only
    labels that are pruned too. Since pruning cannot change the bucket order
    either, the survivors, their order and hence the result are those of the
    unpruned DP.

    Costs are float sums along each path, so the cost key also compares
    rounding. At the default penalty, ``weights.time * dt``, a wait step
    costs what a travel step does, so every path to one vertex has the same
    real cost and rounding orders them ahead of waits and legs: in the
    ``multihop-grid`` benchmark scenario, ``SimState(config, network, 101)``,
    rider 457 gets two legs (drivers 405, 447) with 3 waits at cost 0.45,
    though one leg with 3 waits has the same real cost (0.45000000000000007).
    """
    if not 0 <= penalty < INF:
        raise ValueError("penalty must be non-negative and finite")
    if not graph.feasible:
        return None
    togo = _cost_to_go(graph, penalty)
    limit = _incumbent(graph, togo, penalty) * (1 + 1e-9)  # costs are non-negative
    table = {v: {} for v in graph.vertices}  # vertex -> last driver -> labels
    bits: dict[Optional[int], int] = {None: 0}  # each driver's bit; a wait has none
    table[graph.start][None] = [(0.0, 0, 0, 0, None, graph.start, None)]

    for vertex in graph.vertices:
        buckets = table[vertex]  # heads lie later: no bucket here grows
        arcs = [(table[head], togo[head], head, driver,
                 bits.setdefault(driver, 1 << len(bits)), cost)
                for head, driver, cost in graph.adjacency[vertex]]
        for heads, _, _, driver, _, _ in arcs:
            for last in (buckets if driver is None else (driver,)):
                heads.setdefault(last, [])
        for last, bucket in buckets.items():
            for label in bucket:
                cost, waits, legs, used = label[0], label[1], label[2], label[3]
                for heads, bound, head, driver, bit, arc_cost in arcs:
                    if driver is None:
                        new_cost = cost + penalty
                        if new_cost + bound <= limit:
                            _insert_label(heads[last], (new_cost, waits + 1, legs, used,
                                                        label, head, None))
                    # the driver on board, or one the rider has not left
                    elif driver == last or not used & bit:
                        new_cost = cost + arc_cost
                        if new_cost + bound <= limit:
                            new = (new_cost, waits, legs + (driver != last), used | bit,
                                   label, head, driver)
                            _insert_label(heads[driver], new)

    candidates = [label for dest in graph.dests for bucket in table[dest].values()
                  for label in bucket if label[2] > 0]
    if not candidates:
        return None
    # the destination vertices share a node, so code order is arrival order
    best = min((c[0], c[1], c[2], c[5]) for c in candidates)
    # the ties share one vertex, and a driver sequence names one bucket there
    ties = [c for c in candidates if (c[0], c[1], c[2], c[5]) == best]
    winner = ties[0] if len(ties) == 1 else min(ties, key=lambda c: [
        driver for driver, _ in groupby(arc[2] for arc in _path(c) if arc[2] is not None)])
    return Itinerary(_legs(_path(winner), graph.nodes), winner[0], winner[1])


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
