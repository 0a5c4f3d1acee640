"""Discrete-event mesoscopic traffic simulation.

Vehicles advance link by link; a vehicle entering a link exits after the
volume-delay time implied by the link's instantaneous hourly flow, estimated
from a sliding entry window. Every vehicle passes each node through one
handler, ``SimState._advance``: it serves the pickups and dropoffs due there,
asks ``vehicle_at_node`` for the next link, then holds, enters that link or
ends the trip. Only ``vehicle_at_node`` tells the roles apart. Regular
drivers replan there from the current cost snapshot; a node with only one
outgoing link that still reaches the destination needs no search, and taking
that link is the choice the search would make. Ridesharing drivers follow
committed routes that the matcher may rewrite; each arriving rider triggers
the matcher exactly once.

Determinism: one event queue ordered by (time, insertion sequence), all
randomness drawn from generators seeded per replication.
"""
from __future__ import annotations

import dataclasses
import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .agents import Role, VehicleAgent
from .config import ScenarioConfig
from .demand import fallback_to_driver, free_flow_paths, generate_agents
from .matching import (
    DriverOffer,
    Itinerary,
    MatchResult,
    Pin,
    RiderRequest,
    ceil_steps,
    match_rider,
    step_durations,
)
from .network import LaneClass, Network, volume_delay
from .routing import dijkstra_route

# event kinds, ordered only for readability; queue order is (time, seq)
EV_AGENT_ENTER = 0
EV_ARRIVE_NODE = 1
EV_DEPART_NODE = 2
EV_BACKGROUND = 3


class SimulationError(ValueError):
    pass


@dataclass
class LinkState:
    """Per-link flow bookkeeping, split by lane class."""

    link_id: int
    counts: dict[LaneClass, int] = field(
        default_factory=lambda: {LaneClass.GENERAL: 0, LaneClass.CARPOOL: 0}
    )
    window: dict[LaneClass, deque] = field(
        default_factory=lambda: {LaneClass.GENERAL: deque(), LaneClass.CARPOOL: deque()}
    )
    totals: dict[LaneClass, int] = field(
        default_factory=lambda: {LaneClass.GENERAL: 0, LaneClass.CARPOOL: 0}
    )
    background_totals: dict[LaneClass, int] = field(
        default_factory=lambda: {LaneClass.GENERAL: 0, LaneClass.CARPOOL: 0}
    )

    def hourly_flow(self, lane_class: LaneClass, now: float, window_hours: float) -> float:
        entries = self.window[lane_class]
        cutoff = now - window_hours
        while entries and entries[0] < cutoff:
            entries.popleft()
        return len(entries) / window_hours

    def record_entry(self, lane_class: LaneClass, now: float, background: bool) -> None:
        """Count an entry; only a vehicle's is in flight until its exit."""
        self.window[lane_class].append(now)
        self.totals[lane_class] += 1
        if background:
            self.background_totals[lane_class] += 1
        else:
            self.counts[lane_class] += 1

    def record_exit(self, lane_class: LaneClass) -> None:
        self.counts[lane_class] -= 1
        if self.counts[lane_class] < 0:
            raise SimulationError(f"link {self.link_id}: exit without entry")


class Vehicle:
    """Runtime state of one agent's vehicle (riders have no vehicle).

    Position: ``node`` is the node the vehicle is at or, while it is on a
    link, the end of that link; ``link_arrival_time`` is when it gets there,
    and None while it is at the node.
    """

    __slots__ = (
        "agent", "node", "link_arrival_time",
        "route", "route_pos", "planned_entry_steps", "pins", "aboard",
        "departure_time", "arrival_time", "stranded", "plan_version",
    )

    def __init__(self, agent: VehicleAgent):
        self.agent = agent
        self.node = agent.origin
        self.link_arrival_time: Optional[float] = None
        self.route: list[int] = []
        self.route_pos = 0
        self.planned_entry_steps: list[int] = []
        self.pins: list[Pin] = []
        self.aboard: set[int] = set()
        self.departure_time: Optional[float] = None
        self.arrival_time: Optional[float] = None
        self.stranded = False
        self.plan_version = 0

    @property
    def active(self) -> bool:
        return self.arrival_time is None and not self.stranded


@dataclass(slots=True)
class _IndexEntry:
    """A vehicle in the offer index, with its cached offer (see ``_offer``)."""

    vehicle: Vehicle
    key: Optional[tuple] = None
    offer: Optional[DriverOffer] = None


@dataclass
class AgentOutcome:
    agent_id: int
    role: Role
    matched: Optional[bool]
    departure: Optional[float]
    arrival: Optional[float]
    stranded: bool = False


@dataclass
class SimReport:
    link_class_counts: dict[tuple[int, LaneClass], int]
    link_background_counts: dict[tuple[int, LaneClass], int]
    validation_counts: dict[int, int]
    outcomes: list[AgentOutcome]
    riders_total: int
    riders_matched: int
    stranded_count: int = 0
    match_trace: list[dict] = field(default_factory=list)

    @property
    def match_rate(self) -> float:
        if self.riders_total == 0:
            return 0.0
        return self.riders_matched / self.riders_total

    def mean_travel_time(self) -> float:
        times = [
            o.arrival - o.departure
            for o in self.outcomes
            if o.departure is not None and o.arrival is not None
        ]
        return sum(times) / len(times) if times else 0.0


class SimState:
    """One replication's full mutable state. Every setting comes from a
    ``ScenarioConfig`` that ``load_config`` has validated; none is checked
    again here. Construction draws the agents of ``config.demand_spec`` and,
    below full unused carpool capacity, schedules the background carpool
    load, each from its own stream of ``seed``."""

    def __init__(self, config: ScenarioConfig, network: Network, seed: int):
        self.network = network
        self.demand = config.demand_spec(network)
        self.weights = config.weights
        self.bpr_alpha = config.bpr_alpha
        self.bpr_beta = config.bpr_beta
        self.dt = config.dt
        self.penalty = (config.weights.time * config.dt if config.penalty is None
                        else config.penalty)
        self.flow_window = config.flow_window
        self.horizon = config.horizon

        self.clock = 0.0
        self.link_states = {l.id: LinkState(l.id) for l in network.links}
        self.vehicles: dict[int, Vehicle] = {}
        self._offer_index: dict[int, _IndexEntry] = {}  # see collect_offers
        self.rider_board_time: dict[int, float] = {}
        self.rider_alight_time: dict[int, float] = {}
        self.match_results: dict[int, MatchResult] = {}
        self.match_trace: list[dict] = []

        demand_seed, background_seed = np.random.SeedSequence(seed).spawn(2)
        agents = generate_agents(self.demand, network, demand_seed)

        # agents come sorted by time with ids 0..n-1, so with seq = id the
        # entries are sorted by (time, seq): already a heap, as n pushes give
        self.agents: dict[int, VehicleAgent] = {agent.id: agent for agent in agents}
        self.events: list[tuple[float, int, int, object]] = [
            (agent.request_time, seq, EV_AGENT_ENTER, agent.id)
            for seq, agent in enumerate(agents)
        ]
        self._seq = self._next_agent_id = len(agents)

        if config.unused_capacity < 1.0:
            self._schedule_background(config.unused_capacity,
                                      np.random.default_rng(background_seed))

    def _schedule_background(self, unused_capacity: float,
                             rng: np.random.Generator) -> None:
        """Schedule pass-through carpool-lane entries that use
        ``1 - unused_capacity`` of each carpool lane's calibrated capacity."""
        rates = carpool_background_rates(
            self.network, self.demand.od_rates, self.demand.scale, unused_capacity)
        for link_id in sorted(rates):
            rate = rates[link_id]
            if rate <= 0:
                continue
            count = rng.poisson(rate * self.horizon)
            for t in np.sort(rng.uniform(0.0, self.horizon, size=count)):
                self.push_event(float(t), EV_BACKGROUND, link_id)

    # ------------------------------------------------------------------ events

    def push_event(self, time: float, kind: int, payload: object) -> None:
        if time < self.clock - 1e-12:
            raise SimulationError("event scheduled before the clock")
        heapq.heappush(self.events, (time, self._seq, kind, payload))
        self._seq += 1

    # ------------------------------------------------------------- travel time

    def link_delay(self, link_id: int, lane_class: LaneClass, now: float) -> float:
        flow = self.link_states[link_id].hourly_flow(lane_class, now, self.flow_window)
        return volume_delay(self.network.link(link_id), lane_class, flow,
                            self.bpr_alpha, self.bpr_beta)

    def route_cost_fn(self, now: float) -> Callable:
        """Generalized toll + travel-time cost snapshot for replanning."""
        def cost(link) -> float:
            delay = self.link_delay(link.id, LaneClass.GENERAL, now)
            return self.weights.toll * link.toll + self.weights.time * delay
        return cost

    def matching_steps(self) -> dict[int, int]:
        """Whole steps per link at the clock on the faster lane class: the
        one frozen traffic state the matcher prices and commits against."""
        now = self.clock

        def delay(link_id: int) -> float:
            general = self.link_delay(link_id, LaneClass.GENERAL, now)
            if not self.network.link(link_id).has_carpool_lane:
                return general
            return min(general, self.link_delay(link_id, LaneClass.CARPOOL, now))

        return step_durations(self.network, delay, self.dt)

    # ------------------------------------------------------------ vehicle flow

    def _lane_class_for(self, vehicle: Vehicle, link_id: int, now: float) -> LaneClass:
        link = self.network.link(link_id)
        if link.has_carpool_lane and vehicle.aboard:  # driver plus a rider
            carpool = self.link_delay(link_id, LaneClass.CARPOOL, now)
            general = self.link_delay(link_id, LaneClass.GENERAL, now)
            if carpool < general:
                return LaneClass.CARPOOL
        return LaneClass.GENERAL

    def enter_link(self, vehicle: Vehicle, link_id: int, now: float) -> None:
        lane_class = self._lane_class_for(vehicle, link_id, now)
        delay = self.link_delay(link_id, lane_class, now)
        self.link_states[link_id].record_entry(lane_class, now, background=False)
        if vehicle.departure_time is None:
            vehicle.departure_time = now
        vehicle.node = self.network.link(link_id).to_node
        vehicle.link_arrival_time = now + delay
        self.push_event(
            now + delay, EV_ARRIVE_NODE, (vehicle.agent.id, link_id, lane_class)
        )

    def vehicle_at_node(self, vehicle: Vehicle, node: int, now: float) -> Optional[int]:
        """Decide the vehicle's next link at ``node``; None means the trip ends.

        Regular drivers replan against the current cost snapshot; ridesharing
        drivers follow their committed route. A regular driver's choice is
        among the outgoing links that still reach its destination
        (``Network.next_hops``): at a fork Dijkstra picks the cheapest, and
        where only one such link exists it is taken without a search, since
        Dijkstra's first link would be that link. A vehicle with no feasible
        continuation is recorded as stranded (``vehicle.stranded``), not a
        crash.
        """
        agent = vehicle.agent
        if agent.role is Role.RIDESHARE_DRIVER:
            if vehicle.route_pos < len(vehicle.route):
                return vehicle.route[vehicle.route_pos]
            vehicle.stranded = node != agent.destination
            return None
        if node == agent.destination:
            return None
        hops = self.network.next_hops(node, agent.destination)
        if len(hops) == 1:
            return hops[0]
        if not hops:
            vehicle.stranded = True
            return None
        return dijkstra_route(self.network, self.route_cost_fn(now), node,
                              agent.destination).links[0]

    def _advance(self, vehicle: Vehicle, now: float) -> None:
        """Move a vehicle standing at its node: serve the pins due there, then
        hold until the planned entry step, enter the next link, or end the
        trip (a stranded vehicle ends without an arrival time)."""
        node = vehicle.node
        while vehicle.pins and vehicle.pins[0].node == node:
            pin = vehicle.pins[0]
            if pin.action == "board" and now + 1e-9 < pin.step * self.dt:
                break  # boarding is due at the pinned step; hold first
            vehicle.pins.pop(0)
            if pin.action == "board":
                vehicle.aboard.add(pin.rider_id)
                self.rider_board_time.setdefault(pin.rider_id, now)
            else:
                vehicle.aboard.discard(pin.rider_id)
                self.rider_alight_time[pin.rider_id] = now
        next_link = self.vehicle_at_node(vehicle, node, now)
        if next_link is None:
            if not vehicle.stranded:
                vehicle.arrival_time = now
            return
        planned = vehicle.planned_entry_steps
        if vehicle.route_pos < len(planned):
            hold_until = planned[vehicle.route_pos] * self.dt
            if hold_until > now + 1e-12:
                self.push_event(hold_until, EV_DEPART_NODE,
                                (vehicle.agent.id, vehicle.plan_version))
                return
        vehicle.route_pos += 1
        self.enter_link(vehicle, next_link, now)

    # ------------------------------------------------------------ event logic

    def _handle_agent_enter(self, agent_id: int, now: float) -> None:
        agent = self.agents[agent_id]
        if agent.role is Role.RIDER:
            self._handle_rider_request(agent, now)
            return
        vehicle = Vehicle(agent)
        self.vehicles[agent_id] = vehicle
        if agent.role is Role.RIDESHARE_DRIVER:
            self._offer_index[agent_id] = _IndexEntry(vehicle)
            self._plan_initial_route(vehicle, now)
        self._advance(vehicle, now)

    def _plan_initial_route(self, vehicle: Vehicle, now: float) -> None:
        """Unmatched ridesharing drivers stay available at their origin until
        their latest departure, then drive their own best route; a matching
        commit rewrites this plan."""
        agent = vehicle.agent
        path = dijkstra_route(self.network, self.route_cost_fn(now),
                              agent.origin, agent.destination)
        if path is None:
            return  # the empty route strands the vehicle at its origin
        step = max(ceil_steps(now, self.dt),
                   ceil_steps(agent.window.latest_departure, self.dt))
        steps = []
        for link_id in path.links:
            steps.append(step)
            delay = self.link_delay(link_id, LaneClass.GENERAL, now)
            step += max(1, ceil_steps(delay, self.dt))
        vehicle.route = list(path.links)
        vehicle.planned_entry_steps = steps
        vehicle.route_pos = 0

    def _handle_rider_request(self, agent: VehicleAgent, now: float) -> None:
        rider = RiderRequest(
            id=agent.id,
            origin=agent.origin,
            destination=agent.destination,
            window=agent.window,
            request_time=agent.request_time,
        )
        result = match_rider(self, rider)
        self.match_results[agent.id] = result
        if not result.matched:
            fallback = fallback_to_driver(agent, next_id=self._next_agent_id)
            self._next_agent_id += 1
            self.agents[fallback.id] = fallback
            self.push_event(now, EV_AGENT_ENTER, fallback.id)

    def _handle_arrive(self, payload: tuple, now: float) -> None:
        agent_id, link_id, lane_class = payload
        self.link_states[link_id].record_exit(lane_class)
        vehicle = self.vehicles[agent_id]
        vehicle.link_arrival_time = None
        self._advance(vehicle, now)

    def _handle_depart(self, payload: tuple, now: float) -> None:
        agent_id, version = payload
        vehicle = self.vehicles.get(agent_id)
        if vehicle is None or not vehicle.active or vehicle.link_arrival_time is not None:
            return
        if version != vehicle.plan_version:
            return  # superseded by a later matching commit
        self._advance(vehicle, now)

    def _handle_background(self, link_id: int, now: float) -> None:
        # background traffic only loads the entry window that BPR reads; it
        # has no vehicle, so it needs no exit
        self.link_states[link_id].record_entry(LaneClass.CARPOOL, now, background=True)

    # --------------------------------------------------------------- matching

    def collect_offers(self, rider: RiderRequest) -> list[DriverOffer]:
        """The offers of every active ridesharing vehicle, in vehicle id order.

        Only vehicles in the offer index are asked. A ridesharing vehicle
        enters the index when it is created and leaves it, for good, the first
        time it is found inactive or ``_offer`` returns None. Eviction is exact:
        an inactive vehicle never becomes active again; ``_offer``'s anchor
        time never decreases (the clock, or the end of the link the vehicle
        is on), so one past the driver's latest arrival stays past it; and a
        vehicle with no offer can never be given a pin (the commit reads the
        same ``_offer``), so one bound for its destination with no pins left
        never gets a route past it. An index entry also holds the vehicle's
        cached offer (see ``_offer``), so eviction drops both.
        """
        offers = []
        index = self._offer_index
        for agent_id in sorted(index):
            vehicle = index[agent_id].vehicle
            offer = self._offer(vehicle) if vehicle.active else None
            if offer is None:
                del index[agent_id]
            else:
                offers.append(offer)
        return offers

    def _offer(self, vehicle: Vehicle) -> Optional[DriverOffer]:
        """The active ridesharing vehicle's remaining schedule at the clock,
        or None when it has nothing left to offer.

        The anchor is where the vehicle is, or the end of the link it is on,
        with the step from which it is available there; the schedule runs to
        the driver's own latest arrival step, and its latest departure step
        is no earlier than the anchor step. The matcher and
        ``commit_itinerary`` both read this one offer.

        An indexed vehicle's offer is cached in its index entry under the
        key (``plan_version``, ``node``, pin count, departed, anchor step),
        and returned while the key repeats. That is exact: every other
        field is the driver's own, or the steps above, which round the
        anchor time up; the pins change only by a pop, which shortens them,
        or by a commit, which bumps ``plan_version``; and ``aboard`` changes
        only as a pin is popped. The float anchor time is checked against
        the latest arrival on every call, before the lookup.
        """
        agent = vehicle.agent
        anchor_time = vehicle.link_arrival_time
        if anchor_time is None:
            anchor_time = self.clock
        if anchor_time > agent.window.latest_arrival:
            return None  # already outside its own schedule
        anchor_step = ceil_steps(anchor_time, self.dt)
        key = (vehicle.plan_version, vehicle.node, len(vehicle.pins),
               vehicle.departure_time is not None, anchor_step)
        entry = self._offer_index.get(agent.id)
        if entry is not None and entry.key == key:
            return entry.offer
        if vehicle.node == agent.destination and not vehicle.pins:
            return None
        offer = DriverOffer(
            id=agent.id,
            origin=vehicle.node,
            destination=agent.destination,
            anchor_step=anchor_step,
            latest_departure_step=max(
                ceil_steps(agent.window.latest_departure, self.dt), anchor_step),
            latest_arrival_step=ceil_steps(agent.window.latest_arrival, self.dt),
            seats=agent.seats,
            pins=tuple(vehicle.pins),
            aboard=len(vehicle.aboard),
            departed=vehicle.departure_time is not None,
        )
        if entry is not None:
            entry.key, entry.offer = key, offer
        return offer

    def commit_itinerary(
        self, rider: RiderRequest, itinerary: Itinerary, tau: dict[int, int]
    ) -> bool:
        """Two-phase commit of a solved itinerary onto the drivers involved.

        Phase one walks every driver's ``DriverOffer.stops`` chain with the
        rider's pins added (ordering, travel feasibility, seat capacity, own
        window) at ``tau``, the link steps the itinerary was solved on;
        phase two rewrites routes and holds. Returns False when any driver
        cannot honor the plan, leaving all drivers untouched.
        """
        plans: list[tuple[Vehicle, list[Pin], list[int], list[int]]] = []
        for leg in itinerary.legs:
            vehicle = self.vehicles.get(leg.driver)
            offer = self._offer(vehicle) if vehicle is not None and vehicle.active else None
            if offer is None:
                return False
            new_pins = sorted(
                vehicle.pins
                + [Pin(leg.board_node, leg.board_step, "board", rider.id),
                   Pin(leg.alight_node, leg.alight_step, "alight", rider.id)],
                key=lambda p: (p.step, 0 if p.action == "alight" else 1, p.rider_id),
            )
            candidate = dataclasses.replace(offer, pins=tuple(new_pins))
            if max(candidate.slot_occupancies()) > offer.seats:
                return False
            ld_step = offer.latest_departure_step
            stops = candidate.stops()
            route: list[int] = []
            entry_steps: list[int] = []
            cursor = stops[0][1]  # earliest step the vehicle can leave the stop
            for idx, ((from_node, _, _), (to_node, to_step, holds)) in enumerate(
                    zip(stops, stops[1:])):
                path = dijkstra_route(self.network, lambda l: float(tau[l.id]),
                                      from_node, to_node)
                if path is None:
                    return False
                links = path.links
                travel = sum(tau[lid] for lid in links)
                if cursor + travel > to_step:
                    return False
                depart = cursor
                if idx == 0 and not offer.departed:
                    # not yet underway: leave just in time, within the window;
                    # cursor is the anchor step and _offer keeps ld_step at or
                    # after it, so depart never exceeds ld_step
                    depart = max(cursor, min(to_step - travel, ld_step))
                step = depart
                for lid in links:
                    route.append(lid)
                    entry_steps.append(step)
                    step += tau[lid]
                # a boarding stop pins the onward departure; dropoffs do not
                cursor = max(step, to_step) if holds else step
            plans.append((vehicle, new_pins, route, entry_steps))

        for vehicle, new_pins, route, entry_steps in plans:
            vehicle.pins = new_pins
            vehicle.route = route
            vehicle.planned_entry_steps = entry_steps
            vehicle.route_pos = 0
            vehicle.plan_version += 1
            if vehicle.link_arrival_time is None:
                release = entry_steps[0] * self.dt if entry_steps else self.clock
                self.push_event(
                    max(release, self.clock), EV_DEPART_NODE,
                    (vehicle.agent.id, vehicle.plan_version),
                )
        return True

    # ------------------------------------------------------------------- runs

    def run(self, horizon: Optional[float] = None) -> SimReport:
        """Process every event with time <= horizon and assemble the report."""
        limit = self.horizon if horizon is None else horizon
        while self.events and self.events[0][0] <= limit + 1e-12:
            time, _, kind, payload = heapq.heappop(self.events)
            self.clock = time
            if kind == EV_AGENT_ENTER:
                self._handle_agent_enter(payload, time)
            elif kind == EV_ARRIVE_NODE:
                self._handle_arrive(payload, time)
            elif kind == EV_DEPART_NODE:
                self._handle_depart(payload, time)
            elif kind == EV_BACKGROUND:
                self._handle_background(payload, time)
        return self.build_report()

    def build_report(self) -> SimReport:
        class_counts = {}
        background_counts = {}
        validation_counts = {}  # distinct non-background entries per link
        for link_id, state in sorted(self.link_states.items()):
            for lane_class in (LaneClass.GENERAL, LaneClass.CARPOOL):
                class_counts[(link_id, lane_class)] = state.totals[lane_class]
                background_counts[(link_id, lane_class)] = (
                    state.background_totals[lane_class]
                )
            validation_counts[link_id] = (sum(state.totals.values())
                                          - sum(state.background_totals.values()))
        outcomes = []
        riders_total = 0
        riders_matched = 0
        for agent_id in sorted(self.agents):
            agent = self.agents[agent_id]
            if agent.role is Role.RIDER:
                riders_total += 1
                result = self.match_results.get(agent_id)
                matched = result is not None and result.matched
                if matched:
                    riders_matched += 1
                departure = self.rider_board_time.get(agent_id)
                arrival = self.rider_alight_time.get(agent_id)
                outcomes.append(AgentOutcome(agent_id, agent.role, matched,
                                             departure, arrival))
            else:
                vehicle = self.vehicles.get(agent_id)
                departure = vehicle.departure_time if vehicle else None
                arrival = vehicle.arrival_time if vehicle else None
                stranded = vehicle.stranded if vehicle else False
                outcomes.append(AgentOutcome(agent_id, agent.role, None,
                                             departure, arrival, stranded))
        return SimReport(
            link_class_counts=class_counts,
            link_background_counts=background_counts,
            validation_counts=validation_counts,
            outcomes=outcomes,
            riders_total=riders_total,
            riders_matched=riders_matched,
            stranded_count=sum(o.stranded for o in outcomes),
            match_trace=list(self.match_trace),
        )


def init_simulation(config: ScenarioConfig, network: Network, seed: int) -> SimState:
    """One replication of a validated scenario, ready to run.

    The experiments build every replication here, and the benchmark times
    set-up by wrapping this function, so it stays the one entry point.
    """
    return SimState(config, network, seed)


def assigned_link_rates(
    network: Network, od_rates: dict[tuple[int, int], float]
) -> dict[int, float]:
    """Free-flow all-or-nothing hourly link rates implied by the O-D demand."""
    rates = {l.id: 0.0 for l in network.links}
    routes = free_flow_paths(network, sorted(od_rates))
    for od, rate in od_rates.items():
        for link_id in routes[od][0]:
            rates[link_id] += rate
    return rates


def carpool_background_rates(
    network: Network,
    od_rates: dict[tuple[int, int], float],
    scale: float,
    unused_fraction: float,
) -> dict[int, float]:
    """Hourly background rate per carpool link at the given unused fraction.

    The calibrated lane capacity is anchored so that 75% of it equals the
    scenario's per-general-lane hourly flow on that link; injecting
    ``(1 - unused_fraction)`` of the calibrated capacity therefore yields
    equivalent carpool- and general-lane flows at 25% unused capacity.
    """
    link_rates = assigned_link_rates(network, od_rates)
    out = {}
    for link in sorted(network.carpool_links(), key=lambda l: l.id):
        per_lane = link_rates[link.id] * scale / link.general_lanes
        calibrated_capacity = per_lane / 0.75
        out[link.id] = (1.0 - unused_fraction) * calibrated_capacity
    return out
