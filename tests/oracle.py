"""Brute-force oracle for the matcher: every labelled path of a rider's
time-expanded network, enumerated one by one.

``brute_force_itinerary`` checks ``solve_itinerary``'s optimum and
``vertices_on_feasible_paths`` checks ``preprocess``'s pruning; both read
the one enumerator ``labelled_paths``. It walks the whole network as
``layout`` lays it out, from ``start_vertex``, and shares no layout code
with the matcher it checks.
"""
from itertools import groupby

from ridesim.matching import Itinerary, _legs, decode


def start_vertex(ten):
    """The origin's first step in ``ten``, or None when the network has no
    interval at the origin."""
    interval = ten.node_intervals.get(ten.origin)
    return interval[0] * len(ten.nodes) + ten.nodes.index(ten.origin) if interval else None


def layout(ten):
    """Every vertex of ``ten``, in integer order, with its outgoing arcs:
    the wait arc first (driver None, cost 0.0), then the travel arcs by
    (head, driver), the order ``preprocess`` gives its survivors."""
    n = len(ten.nodes)
    graph = {}
    for vertex in sorted(step * n + position for position, node in enumerate(ten.nodes)
                         for step in range(ten.node_intervals[node][0],
                                           ten.node_intervals[node][1] + 1)):
        node, step = decode(vertex, ten.nodes)
        graph[vertex] = [(vertex + n, None, 0.0)] if step < ten.node_intervals[node][1] else []
    for tail, head, driver, cost in sorted(ten.travel_arcs):
        graph[tail].append((head, driver, cost))
    return graph


class EnumerationBudgetError(RuntimeError):
    """Raised when path enumeration exceeds its expansion budget."""


def labelled_paths(ten, penalty=0.0, budget=200_000):
    """Yield (arcs, cost, waits) for every path from the start vertex to a
    destination vertex that never re-boards a driver it left; ``arcs`` are
    (tail, head, driver) with driver None for a wait, and a wait costs
    ``penalty``. Vertices are the network's integer codes.

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
    stack = [(start, None, frozenset(), 0.0, 0, ())]
    while stack:
        vertex, last, used, cost, waits, arcs = stack.pop()
        if decode(vertex, ten.nodes)[0] == ten.destination:
            yield arcs, cost, waits
        for head, driver, arc_cost in graph[vertex]:
            expansions += 1
            if expansions > budget:
                raise EnumerationBudgetError(
                    f"path enumeration exceeded {budget} expansions")
            if driver is None:
                stack.append((head, last, used, cost + penalty, waits + 1,
                              arcs + ((vertex, head, None),)))
            elif last is None or driver == last or driver not in used:
                stack.append((head, driver, used | {driver}, cost + arc_cost,
                              waits, arcs + ((vertex, head, driver),)))


def brute_force_itinerary(ten, penalty, budget=200_000):
    """The optimum over ``labelled_paths`` by (cost, waits, legs, arrival
    step, driver sequence), or None when no path exists. Of two paths equal
    on all five keys it keeps the first enumerated, which need not be the
    one ``solve_itinerary`` returns."""
    best_key, best = None, None
    for arcs, cost, waits in labelled_paths(ten, penalty, budget):
        drivers = tuple(d for d, _ in groupby(d for _, _, d in arcs if d is not None))
        key = (cost, waits, len(drivers), decode(arcs[-1][1], ten.nodes)[1], drivers)
        if best_key is None or key < best_key:
            best_key, best = key, Itinerary(_legs(arcs, ten.nodes), cost, waits)
    return best


def vertices_on_feasible_paths(ten, budget=200_000):
    """Union of the vertices on every ``labelled_paths`` path."""
    return {vertex for arcs, _, _ in labelled_paths(ten, budget=budget)
            for tail, head, _ in arcs for vertex in (tail, head)}
