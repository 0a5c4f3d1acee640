"""Demand synthesis: arrival schedules, role assignment and time windows.

O-D hourly rates are either given explicitly or calibrated so that a
free-flow all-or-nothing assignment reproduces the network's observed daily
link flows. Agents arrive as independent Poisson streams per O-D pair;
roles are drawn from the configured participation shares; every window
admits at least the free-flow solo trip by construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agents import Role, TimeWindow, VehicleAgent
from .network import ConfigError, Network
from .routing import dijkstra_route

CALIBRATION_TOLERANCE = 1e-6  # largest residual or negative rate accepted


@dataclass(frozen=True)
class Shares:
    rider: float = 0.0
    rideshare_driver: float = 0.0
    regular_driver: float = 1.0

    def __post_init__(self) -> None:
        for name in ("rider", "rideshare_driver", "regular_driver"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:  # NaN fails too
                raise ConfigError(f"demand.shares.{name}={value} outside [0, 1]")
        if abs(self.rider + self.rideshare_driver + self.regular_driver - 1.0) > 1e-9:
            raise ConfigError("demand.shares must sum to 1")


@dataclass(frozen=True)
class DemandSpec:
    od_rates: dict[tuple[int, int], float]  # vehicles/hour before scaling
    shares: Shares
    window_flexibility: float  # hours
    horizon: float             # hours
    scale: float
    seats: int


def free_flow_paths(
    network: Network, od_pairs: list[tuple[int, int]]
) -> dict[tuple[int, int], tuple[tuple[int, ...], float]]:
    """Free-flow route and travel time per O-D pair; error when disconnected."""
    out = {}
    for origin, dest in od_pairs:
        if origin not in network.adjacency or dest not in network.adjacency:
            raise ConfigError(f"O-D pair {origin}->{dest}: node not in the network")
        path = dijkstra_route(network, lambda l: l.free_flow_time, origin, dest)
        if path is None:
            raise ConfigError(f"O-D pair {origin}->{dest} is not connected")
        out[(origin, dest)] = (path.links, path.total_time)
    return out


def calibrate_od_rates(
    network: Network,
    target_daily_flows: dict[int, float],
    od_pairs: list[tuple[int, int]] | None = None,
    fixed_daily: dict[tuple[int, int], float] | None = None,
) -> dict[tuple[int, int], float]:
    """Invert observed daily link flows into hourly O-D rates.

    Rates are chosen so that assigning each pair's demand to its free-flow
    route reproduces the targets exactly. Under-determined systems are
    closed with ``fixed_daily`` pins (the bundled testbed pins the
    origin-to-far-end split); a pin outside ``od_pairs`` raises ConfigError
    naming ``demand.calibration_fixed_daily.<o-d>``, all-zero targets raise
    ConfigError naming ``demand.od_rates``, and unsatisfiable targets raise
    ConfigError with the residual per link.
    """
    missing = [l.id for l in network.links if l.id not in target_daily_flows]
    if missing:
        raise ConfigError(f"targets missing for link(s) {missing}")
    pairs = od_pairs or default_od_pairs(network)
    fixed_daily = dict(fixed_daily or {})
    for origin, dest in fixed_daily:
        if (origin, dest) not in pairs:
            raise ConfigError(f"demand.calibration_fixed_daily.{origin}-{dest} is not "
                              f"a calibration pair (those are joined by a path)")
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


def generate_agents(
    spec: DemandSpec, network: Network, seed: "int | np.random.SeedSequence"
) -> tuple[VehicleAgent, ...]:
    """Materialize the arrival schedule for one replication, ordered by
    arrival time with ids 0..n-1.

    Arrivals are Poisson per O-D pair at ``scale * rate``; roles follow the
    participation shares; windows give every agent ``window_flexibility``
    hours of slack beyond the free-flow trip. Identical (spec, seed) pairs
    produce identical schedules.
    """
    od_pairs = sorted(spec.od_rates)
    routes = free_flow_paths(network, od_pairs)
    rng = np.random.default_rng(seed)

    # one block of sorted times per active pair, tagged with its pair index;
    # the leading empty blocks make zero arrivals an empty schedule
    time_blocks = [np.empty(0)]
    pair_blocks = [np.empty(0, dtype=np.intp)]
    for index, od in enumerate(od_pairs):
        rate = spec.od_rates[od] * spec.scale
        if rate <= 0:
            continue
        count = rng.poisson(rate * spec.horizon)
        time_blocks.append(np.sort(rng.uniform(0.0, spec.horizon, size=count)))
        pair_blocks.append(np.full(count, index, dtype=np.intp))
    times = np.concatenate(time_blocks)
    pairs = np.concatenate(pair_blocks)
    # stable, so ties in time keep the pairs' sorted order: a (time, od) sort
    order = np.lexsort((pairs, times))
    times, pairs = times[order], pairs[order]

    draws = rng.random(len(times))
    cut_rider = spec.shares.rider
    cut_driver = cut_rider + spec.shares.rideshare_driver
    roles = np.where(draws < cut_rider, 0, np.where(draws < cut_driver, 1, 2))

    fft = np.array([routes[od][1] for od in od_pairs])[pairs]
    flex = spec.window_flexibility
    earliest_arrival = times + fft
    role_order = (Role.RIDER, Role.RIDESHARE_DRIVER, Role.REGULAR_DRIVER)
    return tuple(
        VehicleAgent(
            idx, role_order[role], od_pairs[pair][0], od_pairs[pair][1], time,
            TimeWindow(time, late_dep, early_arr, late_arr),
            spec.seats if role == 1 else 0,
        )
        for idx, (time, pair, role, late_dep, early_arr, late_arr) in enumerate(zip(
            times.tolist(), pairs.tolist(), roles.tolist(),
            (times + flex).tolist(), earliest_arrival.tolist(),
            (earliest_arrival + flex).tolist(),
        ))
    )


def fallback_to_driver(rider: VehicleAgent, next_id: int) -> VehicleAgent:
    """Convert an unmatched rider into a regular driver with the same trip,
    under the fresh agent id ``next_id``."""
    if rider.role is not Role.RIDER:
        raise ValueError(f"agent {rider.id} is not a rider")
    return VehicleAgent(
        id=next_id,
        role=Role.REGULAR_DRIVER,
        origin=rider.origin,
        destination=rider.destination,
        request_time=rider.window.earliest_departure,
        window=rider.window,
        seats=0,
    )
