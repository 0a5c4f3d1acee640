"""A rider's time-expanded network: built from the drivers' free slots,
then pruned to the part on an origin-to-destination path.

A vertex is one integer, ``step * n + p`` for the node at position p of the
n nodes the rider's windows reach, ascending, so integer order is (step,
node) order and every arc raises it; ``decode`` gives (node, step) back.
Wait arcs join a node's steps; travel arcs are (tail, head, driver)
tuples, a travel arc's steps read from its vertex codes.

``build_time_expanded`` reads the minimum-step matrix ``m`` of the link
steps ``tau`` (``step_matrix``). One rule gives a driver's arcs on a link
(i, j) of ``steps`` steps within a free slot from stop (a, s) to stop (b,
t), left from a by step leave_by: every step k of the rider's range with s
+ m[a][i] <= k and k + steps <= t - m[j][b], and no step at a after
leave_by. Reaching j from a and b from i need no test: ``m`` is built from
the same ``tau``, so m[a][j] <= m[a][i] + steps and m[i][b] <= steps +
m[j][b]. By the same triangle inequality a slot gets no arc unless it
passes the slot test: the rider's destination reachable from a by the
latest arrival and b from the rider's origin by t. The rule reads nothing
of a driver but its slots, so the build takes the drivers grouped, each
distinct free schedule, a driver's free slots in chain order, with the ids
of the drivers that have it, from the offer index
(``SimState.collect_offers``), which lists each driver once. For each
schedule it walks the slots in order, runs the slot test on each, and
finds the per-link step ranges, the slot's spans, of each slot that
passed; a schedule's drivers are keyed by those spans, concatenated in
chain order. Drivers with equal keys have equal arcs: they are
interchangeable for the rider and form one class, whose arcs are written
once, under its lowest id (``TimeExpandedNetwork.twins``). When no slot
passes, the network keeps its node intervals and gets no travel arc, and
no link is looked at.

``preprocess`` prunes vertices not on any origin-to-destination path; the
request is feasible exactly when the start vertex survives. The survivors
at each node are one interval of steps, found for every node by one pass
over the travel arcs and one pass back. It then lays out the survivors
alone: vertices in integer order, a topological order, each vertex's arcs
wait first, then by (head, driver). A network with no travel arc whose
origin is not its destination cannot leave the origin's waits, so
``preprocess`` answers it as infeasible at once; more than a third of the
bundled sweep's requests get such a network.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from .network import Network
from .routing import shortest_paths
from .schedule import FreeSchedule, leave_by_step
from .timegrid import INF, window_steps

if TYPE_CHECKING:  # for the annotation only: ``matching`` imports this module
    from .matching import RiderRequest

Vertex = int  # step * node count + the node's position; see TimeExpandedNetwork
TravelArc = tuple[Vertex, Vertex, int]  # (tail, head, driver)
Arc = tuple[Vertex, Optional[int]]  # (head, driver or None for a wait)

# (steps, paths): the minimum steps from node a to node b, INF where no path
# leads, and the link ids of that path; see ``step_matrix``
StepMatrix = tuple[dict[int, dict[int, float]], dict[int, dict[int, tuple[int, ...]]]]


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
    slots: dict[FreeSchedule, list[int]],
    network: Network,
    tau: dict[int, int],
    dt: float,
    clock_step: int = 0,
) -> TimeExpandedNetwork:
    """Construct the rider's time-expanded network (module docstring).

    ``slots`` maps each distinct free schedule to the ids of the drivers
    that have it (``SimState.collect_offers``); a driver gets the arcs of
    each slot of its schedule, written once for each class of drivers with
    equal arcs, under its lowest id (``TimeExpandedNetwork.twins``). An
    open slot, which only a schedule's first slot can be, starts at
    ``clock_step``, the clock's step (``leave_by_step``); its seat was
    tested where it was listed. ``tau`` holds every link's duration in
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
    # (module docstring). An INF empties the range; a link is never a loop,
    # so i and j are not both a. The rule reads the slot alone, so the
    # drivers of one free schedule have their spans found once.
    candidates = None  # listed when the first slot passes the slot test
    to_dest, from_origin = rider.destination, matrix[rider.origin]
    groups: dict[tuple, list[int]] = {}  # spans -> the drivers listed under them
    for schedule, ids in slots.items():
        spans = []  # (first tail, past the last tail, shift) per slot and link with arcs
        for a, s, b, t, leave_by in schedule:
            if s is None:  # an open slot starts at the clock's step
                s, leave_by = clock_step, leave_by_step(clock_step, t, leave_by)
                if leave_by is None:
                    continue
            from_a = matrix[a]
            if s + from_a[to_dest] > la or ed + from_origin[b] > t:
                continue  # the slot test
            if candidates is None:
                # links with both ends inside the rider's windows, with the
                # tail steps whose arrival also falls in the head's window
                # and the code distance from tail to head
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
        # drivers with equal spans have equal arcs: one class, its arcs
        # written once under its lowest id
        if spans:
            groups.setdefault(tuple(spans), []).extend(ids)
    arcs, twins = ten.travel_arcs, ten.twins
    for spans, members in groups.items():
        members.sort()
        if len(members) > 1:
            twins[members[0]] = tuple(members[1:])
        arcs += [(tail, tail + shift, members[0])
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
    vertex, so nothing survives and the graph is returned empty at once.
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
