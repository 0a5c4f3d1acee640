"""Shortest paths, and the weights of the link cost.

``shortest_paths`` is the one shortest-path search: a Dijkstra tree from
one origin under a frozen cost per link, ties broken toward the
lexicographically smallest link-id sequence. ``dijkstra_route`` is the one
route function: a regular driver replanning at a fork and a ridesharing
driver's initial plan take their routes from it, at a snapshot of link
costs (toll + congested travel time, each weighted; see
``SimState.route_cost_fn``), and the demand calibration its free-flow
routes. It searches only where the network leaves a choice open
(``Network.route_choices``) and elsewhere returns, without a search, the
route the search would find. The matcher's step matrix holds one tree per
node under the links' whole-step durations (``ten.step_matrix``,
built once per set of step counts and kept on the network), and a
committed driver's route is read from there.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Optional

from .network import NON_NEGATIVE, ConfigError, Link, Network, bounded, check_bounds


@dataclass(frozen=True)
class CostWeights:
    """Weights of the toll and travel-time terms of the link cost."""

    toll: float = bounded(NON_NEGATIVE, 1.0)
    time: float = bounded(NON_NEGATIVE, 1.0)

    def __post_init__(self) -> None:
        check_bounds(self, "weights")
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
    snapshot, ``cost_fn`` mapping a link to its snapshot cost, which must
    not be negative: the entry for ``dest`` of ``shortest_paths``. None
    when the destination is unreachable.

    It searches only where ``Network.route_choices`` is None. A lone branch
    is the only path and is returned without reading a cost. Among several
    it takes the branch with the least key (cost summed from 0 in link
    order, link ids), the key ``shortest_paths`` orders by, and that is the
    route the search finds at the same costs: the branches share no inner
    node and each inner node has one next hop, so each inner node gets only
    its branch's label, and the destination is popped at the least branch
    key, which nothing left on the heap can beat.
    """
    adjacency = network.adjacency
    if origin not in adjacency or dest not in adjacency:
        raise ValueError(f"origin {origin} or destination {dest} not in network")
    routes = network.route_choices(origin, dest)
    if routes is None:
        entry = shortest_paths(network, cost_fn, origin, dest).get(dest)
        return None if entry is None else entry[1]
    if len(routes) < 2:
        return routes[0] if routes else None
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
