"""Shortest paths, and the weights of the link cost.

``shortest_paths`` is the one shortest-path search: a Dijkstra tree from
one origin under a frozen cost per link, ties broken toward the
lexicographically smallest link-id sequence. A regular driver replanning at
a fork the network leaves open takes its route from it through
``dijkstra_route``, at a snapshot of link costs (toll + congested travel
time, each weighted; see ``SimState.route_cost_fn``); the matcher's step
matrix holds one tree per node under the links' whole-step durations
(``matching.step_matrix``, built once per set of step counts and kept on
the network), and a committed driver's route is read from there.

Where the routes are known, no search is needed: where a node has only one
next hop towards the destination (``Network.next_hops``), that is the
answer any search gives, and where every branch from a fork is forced
(``Network.route_choices``), ``cheapest_route`` picks among them the route
the search would find. The shortcut stays with the callers:
``dijkstra_route`` itself always searches.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .network import ConfigError, Link, Network


@dataclass(frozen=True)
class CostWeights:
    """Weights of the toll and travel-time terms of the link cost."""

    toll: float = 1.0
    time: float = 1.0

    def __post_init__(self) -> None:
        for name in ("toll", "time"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ConfigError(f"weights.{name} must be non-negative and finite")
        if self.toll == 0 and self.time == 0:
            raise ConfigError("weights.toll and weights.time must not both be 0")


def shortest_paths(
    network: Network,
    cost_fn: Callable[[Link], float],
    origin: int,
    dest: Optional[int] = None,
) -> dict[int, tuple[float, tuple[int, ...]]]:
    """(cost, link ids) of the cheapest path from ``origin`` to each node it
    reaches, ``cost_fn`` mapping a link to its cost, which must not be
    negative. Ties are broken toward the lexicographically smallest link-id
    sequence. The origin's entry is ``(0, ())``: an int, so integer costs
    sum to ints.

    With a ``dest``, the search stops once ``dest`` is settled; then only
    the entries of nodes settled by then are final.
    """
    adjacency = network.adjacency  # keyed by every node id
    best: dict[int, tuple[float, tuple[int, ...]]] = {origin: (0, ())}
    heap: list[tuple[float, tuple[int, ...], int]] = [(0, (), origin)]
    while heap:
        cost, seq, node = heapq.heappop(heap)
        if (cost, seq) > best[node]:
            continue
        if node == dest:
            break
        for link_id in adjacency[node]:
            link = network.link(link_id)
            step = cost_fn(link)
            if step < 0:
                raise ValueError(f"negative cost on link {link_id}")
            cand = (cost + step, seq + (link_id,))
            existing = best.get(link.to_node)
            if existing is None or cand < existing:
                best[link.to_node] = cand
                heapq.heappush(heap, (cand[0], cand[1], link.to_node))
    return best


def dijkstra_route(
    network: Network,
    cost_fn: Callable[[Link], float],
    origin: int,
    dest: int,
) -> Optional[tuple[int, ...]]:
    """The link ids of the cheapest origin->dest path under a frozen cost
    snapshot, ``cost_fn`` mapping a link to its snapshot cost: the entry
    for ``dest`` of ``shortest_paths``. None when the destination is
    unreachable.
    """
    adjacency = network.adjacency
    if origin not in adjacency or dest not in adjacency:
        raise ValueError(f"origin {origin} or destination {dest} not in network")
    entry = shortest_paths(network, cost_fn, origin, dest).get(dest)
    return None if entry is None else entry[1]


def cheapest_route(
    network: Network,
    routes: tuple[tuple[int, ...], ...],
    cost_fn: Callable[[Link], float],
) -> tuple[int, ...]:
    """The route of ``routes``, link-id tuples, with the least key (cost
    summed from 0 in link order, link ids), the key ``shortest_paths``
    orders by; ``cost_fn`` maps a link to its cost, which must not be
    negative. A lone route is returned without pricing it.

    For the branches ``Network.route_choices`` returns, this is the route
    ``dijkstra_route`` finds at the same costs: the branches share no inner
    node and each inner node has one next hop, so each inner node gets only
    its branch's label, and the destination is popped at the least branch
    key, which nothing left on the heap can beat.
    """
    if len(routes) == 1:
        return routes[0]
    link = network.link
    keys = []
    for route in routes:
        cost = 0
        for link_id in route:
            step = cost_fn(link(link_id))
            if step < 0:
                raise ValueError(f"negative cost on link {link_id}")
            cost += step
        keys.append((cost, route))
    return min(keys)[1]
