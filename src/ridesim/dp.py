"""The matcher's dynamic program: the one least itinerary over a rider's
pruned network (``ten.preprocess``), under the total order that
``solve_itinerary`` states, in costs that are exact integers
(``StepCosts``).

A label's cost, waits and legs are packed into one integer key
(``_key_units``), so that each comparison of them is one integer
comparison. A rider may transfer between vehicles but never re-board a
driver it left, so a label carries the drivers it used as a bitmask,
masked by the drivers that still have an arc reachable from its vertex,
its reach mask (``_cost_to_go``): a driver outside the mask can never be
boarded again, so forgetting it changes no extension.

An arc carries a driver class (``ten.TimeExpandedNetwork``). A label whose
last driver is of the arc's class rides on with that driver; any other
boards the class's lowest member not in its used set, and cannot take the
arc when there is none, which still lets a rider ride A, then X, then A's
twin A'. The result is the optimum over every driver: map an itinerary so
that its k-th boarding from each class takes the class's k-th lowest id.
The mapped itinerary is one the DP builds, with the same cost, waits,
legs, arrival and legs' vertices, and a driver sequence no greater, since
at the first leg where the two differ the original boards a member above
the lowest one left. (Two consecutive legs never share a class in an
optimum: riding on instead saves a leg.) Dominance stays sound: of two
labels in one bucket, the one with the smaller used set boards, from any
class, a member no greater than the other's, and when it is a different
member it already lies in the other's used set, so the used sets stay
nested and the driver sequences ordered along every extension.

One reverse pass gives a driver-blind lower bound on each vertex's (cost,
waits) to go, packed the same way, and the classes that carry the rider
from each vertex along the bound with no transfer (``_cost_to_go``). One
itinerary found along the bound, which rides a class that carries it as
soon as one can, gives an incumbent key (``_incumbent``). An extension
whose key, with the arc's key and a leg if it boards, plus the bound at
its head exceeds the incumbent's cannot lead to the optimum and is
skipped, so the bound prunes ties in cost by waits and legs too. The
bound, the carriers and the reach mask each cut the label insertions the
DP attempts, which ``tools/matcher_replay.py`` counts as ``attempts``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .ten import PrunedGraph, Vertex, decode
from .timegrid import INF


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
    the first tight arc in ``ten.preprocess``'s arc order whose class carries
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
    an integer. Every path to a vertex spans the same steps, so the
    itinerary's ``total_cost`` is ``costs.total`` of its steps and waits.

    The DP visits the vertices in integer order, a topological order, and
    only those a label reached. A label is kept in its bucket, one per
    (vertex, last driver), unless another is below it (``_insert_label``).
    It carries its tie key, from which the winner's legs are read. Its key,
    its used set, the driver classes and the pruning by the bound are the
    module docstring's.
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
