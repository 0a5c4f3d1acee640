"""Demand synthesis: arrival schedules, role assignment and time windows.

O-D hourly rates are either given explicitly or calibrated so that a
free-flow all-or-nothing assignment reproduces the network's observed daily
link flows (``calibrate_od_rates``). A scenario's demand is its ``demand``
section, a ``config.DemandConfig``; ``ScenarioConfig.demand_spec`` returns
it with its rates resolved, and ``generate_agents`` draws from that. Agents
arrive as independent Poisson streams per O-D pair; roles are drawn from
the configured participation shares; every rider's and ridesharing
driver's window admits at least the free-flow solo trip by construction,
and a regular driver has none.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING

import numpy as np

from .agents import Role, TimeWindow, VehicleAgent
from .network import UNIT, ConfigError, Network, bounded, check_bounds
from .routing import dijkstra_route

if TYPE_CHECKING:  # for the annotation only: ``config`` imports this module
    from .config import DemandConfig

CALIBRATION_TOLERANCE = 1e-6  # largest residual or negative rate accepted

# pinned when the file names no pins: the free split of the shared-corridor
# demand, applied where the network has the pair
_DEFAULT_PINS = MappingProxyType({(0, 2): 26660.0})


@dataclass(frozen=True)
class Shares:
    rider: float = bounded(UNIT, 0.0)
    rideshare_driver: float = bounded(UNIT, 0.0)
    regular_driver: float = bounded(UNIT, 1.0)

    def __post_init__(self) -> None:
        check_bounds(self, "demand.shares")
        if abs(self.rider + self.rideshare_driver + self.regular_driver - 1.0) > 1e-9:
            raise ConfigError("demand.shares must sum to 1")


def free_flow_paths(
    network: Network, od_pairs: list[tuple[int, int]]
) -> dict[tuple[int, int], tuple[tuple[int, ...], float]]:
    """Free-flow route and travel time per O-D pair; error when disconnected."""
    out = {}
    for origin, dest in od_pairs:
        if origin not in network.adjacency or dest not in network.adjacency:
            raise ConfigError(f"O-D pair {origin}->{dest}: node not in the network")
        links = dijkstra_route(network, lambda l: l.free_flow_time, origin, dest)
        if links is None:
            raise ConfigError(f"O-D pair {origin}->{dest} is not connected")
        out[(origin, dest)] = (links, sum(network.link(lid).free_flow_time
                                          for lid in links))
    return out


def calibrate_od_rates(
    network: Network, fixed_daily: dict[tuple[int, int], float] | None
) -> dict[tuple[int, int], float]:
    """Invert the network's observed daily link flows into hourly O-D rates.

    The pairs are every ordered node pair joined by a path
    (``default_od_pairs``); their rates are chosen so that assigning each
    pair's demand to its free-flow route reproduces every link's
    ``observed_daily_flow`` exactly. Under-determined systems are closed
    with ``fixed_daily`` pins, daily; None pins ``_DEFAULT_PINS`` where the
    network has the pair (the bundled testbed's origin-to-far-end split).
    A pin that is not a pair raises ConfigError naming
    ``demand.calibration_fixed_daily.<o-d>``, all-zero observed flows raise
    ConfigError naming ``demand.od_rates``, and unsatisfiable flows raise
    ConfigError with the residual per link or the negative rates.
    """
    pairs = default_od_pairs(network)
    if fixed_daily is None:
        fixed_daily = {od: daily for od, daily in _DEFAULT_PINS.items() if od in pairs}
    for origin, dest in fixed_daily:
        if (origin, dest) not in pairs:
            raise ConfigError(f"demand.calibration_fixed_daily.{origin}-{dest} is not "
                              f"a calibration pair (those are joined by a path)")
    target_daily_flows = {l.id: l.observed_daily_flow for l in network.links}
    if all(abs(v) < 1e-12 for v in target_daily_flows.values()):
        raise ConfigError("demand.od_rates: calibration needs observed flows, and "
                          "every link's observed_daily_flow is 0")

    routes = free_flow_paths(network, pairs)
    link_ids = sorted(target_daily_flows)
    residual_targets = {l: float(target_daily_flows[l]) for l in link_ids}
    for od, daily in fixed_daily.items():
        for link_id in routes[od][0]:
            residual_targets[link_id] -= daily

    free = [od for od in pairs if od not in fixed_daily]
    incidence = np.zeros((len(link_ids), len(free)))
    row = {l: i for i, l in enumerate(link_ids)}
    for col, od in enumerate(free):
        for link_id in routes[od][0]:
            incidence[row[link_id], col] = 1.0
    rhs = np.array([residual_targets[l] for l in link_ids])

    solution, *_ = np.linalg.lstsq(incidence, rhs, rcond=None)
    residual = incidence @ solution - rhs
    if np.max(np.abs(residual)) > CALIBRATION_TOLERANCE:
        detail = {link_ids[i]: float(residual[i]) for i in range(len(link_ids))
                  if abs(residual[i]) > CALIBRATION_TOLERANCE}
        raise ConfigError(f"calibration residuals exceed tolerance: {detail}")
    if np.min(solution) < -CALIBRATION_TOLERANCE:
        negatives = {free[i]: float(solution[i]) for i in range(len(free))
                     if solution[i] < -CALIBRATION_TOLERANCE}
        raise ConfigError(f"calibration produced negative rates: {negatives}")

    daily = dict(fixed_daily)
    for od, value in zip(free, solution):
        daily[od] = max(0.0, float(value))
    return {od: value / 24.0 for od, value in daily.items()}


def default_od_pairs(network: Network) -> list[tuple[int, int]]:
    """All ordered node pairs joined by a path, origin-major order."""
    nodes = network.node_ids()
    pairs = []
    for origin in nodes:
        for dest in nodes:
            if origin == dest:
                continue
            if network.next_hops(origin, dest):
                pairs.append((origin, dest))
    return pairs


def arrival_count(rng: np.random.Generator, mean: float, what: str) -> int:
    """A Poisson draw of ``mean`` arrivals. A mean numpy refuses to draw
    from, about 1e19 or more and so far past any run's memory, raises
    ConfigError naming ``what``, the keys the mean comes from."""
    try:
        return rng.poisson(mean)
    except ValueError as exc:
        raise ConfigError(f"{what} = {mean:g} arrivals, too many to draw") from exc


def generate_agents(
    demand: DemandConfig, horizon: float, network: Network,
    seed: "int | np.random.SeedSequence",
) -> tuple[VehicleAgent, ...]:
    """Materialize the arrival schedule of ``horizon`` hours for one
    replication, ordered by arrival time with ids 0..n-1.

    ``demand``'s ``od_rates`` must be resolved (``ScenarioConfig.demand_spec``).
    Arrivals are Poisson per O-D pair at ``scale * rate``; roles follow the
    participation shares; every rider's and ridesharing driver's window
    gives ``window_flexibility`` hours of slack beyond the free-flow trip,
    and a regular driver's window is None. Identical (demand, horizon,
    seed) triples produce identical schedules.
    """
    od_pairs = sorted(demand.od_rates)
    routes = free_flow_paths(network, od_pairs)
    rng = np.random.default_rng(seed)

    # one block of sorted times per active pair, tagged with its pair index;
    # the leading empty blocks make zero arrivals an empty schedule
    time_blocks = [np.empty(0)]
    pair_blocks = [np.empty(0, dtype=np.intp)]
    for index, od in enumerate(od_pairs):
        rate = demand.od_rates[od] * demand.scale
        if rate <= 0:
            continue
        count = arrival_count(rng, rate * horizon,
                              f"demand.od_rates.{od[0]}-{od[1]} * demand.scale * horizon")
        time_blocks.append(np.sort(rng.uniform(0.0, horizon, size=count)))
        pair_blocks.append(np.full(count, index, dtype=np.intp))
    times = np.concatenate(time_blocks)
    pairs = np.concatenate(pair_blocks)
    # stable, so ties in time keep the pairs' sorted order: a (time, od) sort
    order = np.lexsort((pairs, times))
    times, pairs = times[order], pairs[order]

    draws = rng.random(len(times))
    cut_rider = demand.shares.rider
    cut_driver = cut_rider + demand.shares.rideshare_driver
    roles = np.where(draws < cut_rider, 0, np.where(draws < cut_driver, 1, 2))

    fft = np.array([routes[od][1] for od in od_pairs])[pairs]
    flex = demand.window_flexibility
    earliest_arrival = times + fft
    role_order = (Role.RIDER, Role.RIDESHARE_DRIVER, Role.REGULAR_DRIVER)
    return tuple(
        VehicleAgent(
            idx, role_order[role], od_pairs[pair][0], od_pairs[pair][1], time,
            None if role == 2 else TimeWindow(time, late_dep, early_arr, late_arr),
            demand.seats if role == 1 else 0,
        )
        for idx, (time, pair, role, late_dep, early_arr, late_arr) in enumerate(zip(
            times.tolist(), pairs.tolist(), roles.tolist(),
            (times + flex).tolist(), earliest_arrival.tolist(),
            (earliest_arrival + flex).tolist(),
        ))
    )


def fallback_to_driver(rider: VehicleAgent, next_id: int) -> VehicleAgent:
    """Convert an unmatched rider into a regular driver with the same trip,
    leaving at the rider's earliest departure under the fresh agent id
    ``next_id``; like every regular driver, it has no window."""
    if rider.role is not Role.RIDER:
        raise ValueError(f"agent {rider.id} is not a rider")
    return VehicleAgent(
        id=next_id,
        role=Role.REGULAR_DRIVER,
        origin=rider.origin,
        destination=rider.destination,
        request_time=rider.window.earliest_departure,
        window=None,
        seats=0,
    )
