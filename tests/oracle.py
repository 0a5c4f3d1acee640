"""Brute-force oracle for the matcher: every labelled path of a rider's
time-expanded network, enumerated one by one.

``brute_force_itinerary`` checks ``solve_itinerary``'s optimum and
``vertices_on_feasible_paths`` checks ``preprocess``'s pruning; both read
the one enumerator ``labelled_paths``. It walks the whole network as
``layout`` lays it out, from ``start_vertex``, and shares no layout code
with the matcher it checks. ``layout`` reads the network's ``expanded``
form, in which every driver has its own arcs, so the oracle shares no
driver-class logic with the DP either. The optimum is ranked with exact
rational costs and shares only ``StepCosts.total``, the formula of its
reported cost, with the DP. ``cost_bound`` certifies an optimum's (cost,
waits) with no enumeration: a driver-blind backward pass over the same
``layout``, which no itinerary's (cost, waits) is below.
"""
import math
from fractions import Fraction
from itertools import groupby

from ridesim.dp import Itinerary, ItineraryLeg
from ridesim.ten import TimeExpandedNetwork, decode


def expanded(ten):
    """``ten`` with every driver its own class: each travel arc of a class
    written once per member, under the member's id, and no ``twins``."""
    arcs = [(tail, head, member) for tail, head, driver in ten.travel_arcs
            for member in (driver, *ten.twins.get(driver, ()))]
    return TimeExpandedNetwork(ten.origin, ten.destination, ten.node_intervals, arcs)


def start_vertex(ten):
    """The origin's first step in ``ten``, or None when the network has no
    interval at the origin."""
    interval = ten.node_intervals.get(ten.origin)
    return interval[0] * len(ten.nodes) + ten.nodes.index(ten.origin) if interval else None


def layout(ten):
    """Every vertex of ``ten``, in integer order, with its outgoing arcs in
    the ``expanded`` network: the wait arc first (driver None), then the
    travel arcs by (head, driver), the order ``preprocess`` gives its
    survivors."""
    n = len(ten.nodes)
    graph = {}
    for vertex in sorted(step * n + position for position, node in enumerate(ten.nodes)
                         for step in range(ten.node_intervals[node][0],
                                           ten.node_intervals[node][1] + 1)):
        node, step = decode(vertex, ten.nodes)
        graph[vertex] = [(vertex + n, None)] if step < ten.node_intervals[node][1] else []
    for tail, head, driver in sorted(expanded(ten).travel_arcs):
        graph[tail].append((head, driver))
    return graph


class EnumerationBudgetError(RuntimeError):
    """Raised when path enumeration exceeds its expansion budget."""


def labelled_paths(ten, budget=200_000):
    """Yield the arcs of every path from the start vertex to a destination
    vertex that never re-boards a driver it left, as (tail, head, driver)
    with driver None for a wait. Vertices are the network's integer codes.

    The search is depth first from a stack of partial paths, pushed in
    ``layout``'s arc order, so a vertex's last arc is followed first. Every
    arc out of an expanded vertex counts one expansion, a re-boarding one
    too; past ``budget`` expansions the enumerator raises
    EnumerationBudgetError.
    """
    start = start_vertex(ten)
    if start is None:
        return
    graph = layout(ten)
    expansions = 0
    stack = [(start, None, frozenset(), ())]
    while stack:
        vertex, last, used, arcs = stack.pop()
        if decode(vertex, ten.nodes)[0] == ten.destination:
            yield arcs
        for head, driver in graph[vertex]:
            expansions += 1
            if expansions > budget:
                raise EnumerationBudgetError(
                    f"path enumeration exceeded {budget} expansions")
            if driver is None:
                stack.append((head, last, used, arcs + ((vertex, head, None),)))
            elif last is None or driver == last or driver not in used:
                stack.append((head, driver, used | {driver},
                              arcs + ((vertex, head, driver),)))


def path_legs(arcs, nodes):
    """The legs of a path of (tail, head, driver) arcs over ``nodes``, a
    wait's driver being None: one leg per run of arcs with one driver, from
    the run's first tail to its last head."""
    runs = [list(run) for _, run in groupby(
        (arc for arc in arcs if arc[2] is not None), key=lambda arc: arc[2])]
    return tuple(ItineraryLeg(run[0][2], *decode(run[0][0], nodes),
                              *decode(run[-1][1], nodes)) for run in runs)


def brute_force_itinerary(ten, costs, budget=200_000):
    """The least ``labelled_paths`` path that rides at least one leg, or
    None when there is none, with its cost by ``costs.total``.

    Paths rank by their exact cost, a travel step costing ``costs.travel``
    and a wait ``costs.wait`` as rationals, then waits, legs, arrival step
    and driver sequence, then leg by leg by board vertex, latest first, and
    alight vertex, earliest first, each as (step, node). A path whose cost
    and waits already rank below the best so far is not ranked further."""
    travel, wait = Fraction(costs.travel), Fraction(costs.wait)
    nodes = ten.nodes
    prices = {}  # (steps, waits) -> exact cost
    best_key, best = None, None
    for arcs in labelled_paths(ten, budget):
        if not arcs:
            continue
        waits = sum(driver is None for _, _, driver in arcs)
        arrival = decode(arcs[-1][1], nodes)[1]
        steps = arrival - decode(arcs[0][0], nodes)[1]
        cost = prices.get((steps, waits))
        if cost is None:
            cost = prices[steps, waits] = travel * (steps - waits) + wait * waits
        if best_key is not None and (cost, waits) > best_key[:2]:
            continue
        legs = path_legs(arcs, nodes)
        key = (cost, waits, len(legs), arrival, tuple(leg.driver for leg in legs),
               tuple((-leg.board_step, -leg.board_node, leg.alight_step, leg.alight_node)
                     for leg in legs))
        if legs and (best_key is None or key < best_key):
            best_key, best = key, (legs, steps)
    if best is None:
        return None
    legs, steps = best
    return Itinerary(legs, costs.total(steps, best_key[1]), best_key[1])


def cost_bound(ten, costs):
    """The least (cost, waits), in lexicographic order, of a path from the
    start vertex to a destination vertex of ``ten`` that may take any arc
    after any other, ignoring drivers: one backward pass over ``layout``,
    in reverse integer order. The cost is exact, a ``Fraction``, a travel
    step costing ``costs.travel`` and a wait ``costs.wait``; None when no
    such path leads from the start, or there is no start.

    Every itinerary is such a path, so its (cost, waits) is at least the
    bound; an itinerary at the bound is optimal in cost and waits whatever
    found it. The pass adds integers: both costs times the least common
    multiple of their denominators."""
    start = start_vertex(ten)
    if start is None:
        return None
    travel, wait = Fraction(costs.travel), Fraction(costs.wait)
    scale = math.lcm(travel.denominator, wait.denominator)
    travel, wait = int(travel * scale), int(wait * scale)
    graph = layout(ten)
    least = {}
    for vertex in sorted(graph, reverse=True):
        node, step = decode(vertex, ten.nodes)
        options = [(0, 0)] if node == ten.destination else []
        for head, driver in graph[vertex]:
            if head in least:
                cost, waits = least[head]
                if driver is None:
                    options.append((cost + wait, waits + 1))
                else:
                    options.append((cost + travel * (decode(head, ten.nodes)[1] - step), waits))
        if options:
            least[vertex] = min(options)
    if start not in least:
        return None
    cost, waits = least[start]
    return Fraction(cost, scale), waits


def vertices_on_feasible_paths(ten, budget=200_000):
    """Union of the vertices on every ``labelled_paths`` path."""
    return {vertex for arcs in labelled_paths(ten, budget=budget)
            for tail, head, _ in arcs for vertex in (tail, head)}
