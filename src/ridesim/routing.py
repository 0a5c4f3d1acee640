"""Dijkstra routing for regular drivers, and the weights of the link cost.

A driver replanning at a node sees a frozen snapshot of link costs
(toll + congested travel time, each weighted; see ``SimState.route_cost_fn``);
the route is the cheapest path under that snapshot with a deterministic
tie-break.
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


@dataclass(frozen=True)
class RoutePath:
    links: tuple[int, ...]
    total_cost: float
    total_time: float


def dijkstra_route(
    network: Network,
    cost_fn: Callable[[Link], float],
    origin: int,
    dest: int,
) -> Optional[RoutePath]:
    """Cheapest origin->dest path under a frozen cost snapshot.

    ``cost_fn`` maps a link to its snapshot cost; the returned path's
    ``total_time`` is its free-flow duration. Ties are broken toward the
    lexicographically smallest link-id sequence. Returns None when the
    destination is unreachable.
    """
    adjacency = network.adjacency  # keyed by every node id
    if origin not in adjacency or dest not in adjacency:
        raise ValueError(f"origin {origin} or destination {dest} not in network")
    if origin == dest:
        return RoutePath(links=(), total_cost=0.0, total_time=0.0)

    best: dict[int, tuple[float, tuple[int, ...]]] = {origin: (0.0, ())}
    heap: list[tuple[float, tuple[int, ...], int]] = [(0.0, (), origin)]
    while heap:
        cost, seq, node = heapq.heappop(heap)
        entry = best.get(node)
        if entry is not None and (cost, seq) > entry:
            continue
        if node == dest:
            total_time = sum(network.link(lid).free_flow_time for lid in seq)
            return RoutePath(links=seq, total_cost=cost, total_time=total_time)
        for link_id in adjacency.get(node, ()):
            link = network.link(link_id)
            step = cost_fn(link)
            if step < 0:
                raise ValueError(f"negative cost on link {link_id}")
            cand = (cost + step, seq + (link_id,))
            existing = best.get(link.to_node)
            if existing is None or cand < existing:
                best[link.to_node] = cand
                heapq.heappush(heap, (cand[0], cand[1], link.to_node))
    return None
