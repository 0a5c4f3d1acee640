"""Discrete-event mesoscopic traffic simulation.

Vehicles advance link by link; a vehicle entering a link exits after the
volume-delay time implied by the link's instantaneous hourly flow, estimated
from a sliding entry window. Each role has its own path through a node,
chosen where the vehicle enters and where it arrives. A regular driver's is
``SimState._drive``: it asks ``vehicle_at_node``, which replans from the
current cost snapshot through ``routing.dijkstra_route``, the one place
that decides whether a choice needs a search, then enters that link, or
is stranded where there is none. A regular driver's trip ends when it
enters the link into its destination: the exit time is fixed at entry,
and nothing the driver would do there changes any state, so
``enter_link`` sets its arrival time and queues no arrival, and
``build_report`` reads that time only once a run has reached it
(``SimState.run_limit``). A ridesharing driver's path is
``SimState._advance``: it serves the pickups and dropoffs due there, then
holds, enters the next link of its plan or ends the trip; the plan is the
route with its entry steps, which the matcher may rewrite. A lane's delay is its BPR delay at the
count of entries in its flow window, memoised by that count.
``SimState.lane_delay`` trims the window and reads the memo, and it is the
one place that fills it; ``enter_link``, one call per lane entry, trims
and reads in place and leaves a miss to ``lane_delay``. Each arriving
rider triggers the matcher exactly once. Only ``_advance`` queues a hold,
and it decides whether a step has come by the time grid's one rule
(``timegrid.step_due``).

The matcher reads the ridesharing drivers' free slots from one offer index,
kept across requests: each distinct free schedule, a driver's free slots in
chain order, with the ids of the live drivers that have it, so that each
driver is listed once. A driver's slots change only where it moves, in
``_advance``, or takes a commit, in ``commit_itinerary``'s phase two; both
mark it (``_moved``), and ``collect_offers`` re-lists only the drivers
marked since the last request. A driver standing at its node has an open
first slot, which starts at whatever step the clock has reached
(``ten.build_time_expanded``), so standing still needs no re-listing.

Determinism: events are handled in (time, insertion sequence) order, all
randomness drawn from generators seeded per replication. A replication's
generated agents are its ``population``: the tuple, in (time, id) order,
that ``generate_agents`` draws from its seed's demand stream. The draw
depends on the demand, the horizon, the network and the seed alone, and no
run writes to an agent, so replications that share those four can share
one population, as the sweep's levels of one replication index do
(``experiments.run_capacity_sweep``). The entries are not queued: they stay
in the population, and an index walks it beside a heap that holds every
other event. An entry's sequence number is its agent id, and every pushed
event's is larger, so an entry is handled before the heap's head exactly
when its time is not later: the order one heap of every event would give.

Memory: a run builds no reference cycle. A vehicle points to its agent and
to its pins, slots and plan, which hold only values, an event holds an
agent or link id or, for an arrival or a departure, its vehicle with its
lane or plan, and nothing points back.
Reference counting therefore frees every object a replication made, at
the latest when its ``SimState`` is dropped, but for the matcher's step
matrices, which the network keeps for later replications on it
(``ten.step_matrix``) and frees with itself, and for a population handed
in, which lives as long as its caller holds it. A ``RunRecord`` handed
in keeps what it holds, the agents, vehicles, lanes and plans of its
events and each request's inputs and network, alive while its caller
holds it, and adds no cycle: the simulation points to the record and
nothing in it points back. The cyclic
garbage collector finds nothing to free in a run; ``ridesim.experiments``
pauses the collector while a replication is alive. ``TestCollectorPause``
in ``tests/test_simulation.py`` guards the premise: building, running and
dropping a replication of the bundled validation scenario or of the
multi-leg grid leaves no cyclic garbage.
"""
from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .agents import Role, VehicleAgent
from .config import ConfigError, ScenarioConfig
from .demand import arrival_count, fallback_to_driver, free_flow_paths, generate_agents
from .dp import Itinerary, StepCosts
from .matching import MatchResult, RiderRequest, match_rider
from .network import LaneClass, Link, Network, volume_delay
from .routing import dijkstra_route
from .schedule import FreeSchedule, FreeSlot, Pin, PinChain, free_slot, leave_by_step, pin_chain
from .ten import step_matrix
from .timegrid import INF, ceil_steps, link_steps, step_due, window_steps

# event kinds, ordered only for readability; queue order is (time, seq)
EV_AGENT_ENTER = 0
EV_ARRIVE_NODE = 1
EV_DEPART_NODE = 2
EV_BACKGROUND = 3

# the enum members the event handlers read, as module globals: on CPython
# 3.11 a global read takes about 20 ns, an enum member lookup about 140 ns
GENERAL, CARPOOL = LaneClass.GENERAL, LaneClass.CARPOOL
RIDER, RIDESHARE_DRIVER = Role.RIDER, Role.RIDESHARE_DRIVER

# how late, in hours, a rider's drop-off may be and still count as on time
ON_TIME_TOLERANCE = 1e-9


class SimulationError(ValueError):
    pass


@dataclass(slots=True)
class Lane:
    """The flow bookkeeping of the ``lane_class`` lanes of one ``link``:
    the times of its recent ``entries``, the vehicles ``in_flight`` on it,
    those whose exit is still queued (a regular driver on its last link has
    none), its entry ``total`` and the ``background`` share of that total,
    and its BPR delays memoised by window count (``SimState.lane_delay``). The
    background load is counted through ``record_entry``; a vehicle's entry
    is written in place by ``SimState.enter_link``, as ``record_entry``
    would write it."""

    link: Link
    lane_class: LaneClass
    entries: deque = field(default_factory=deque)
    in_flight: int = 0
    total: int = 0
    background: int = 0
    delays: dict[int, float] = field(default_factory=dict)

    def record_entry(self, now: float, background: bool) -> None:
        """Count an entry; only a vehicle's is in flight until its exit."""
        self.entries.append(now)
        self.total += 1
        if background:
            self.background += 1
        else:
            self.in_flight += 1

    def record_exit(self) -> None:
        self.in_flight -= 1
        if self.in_flight < 0:
            raise SimulationError(f"link {self.link.id}: exit without entry")


class Vehicle:
    """Runtime state of one agent's vehicle (riders have no vehicle): where
    it is, and when it left and arrived or whether it was stranded. A
    regular driver's vehicle has nothing more: it picks each link as it
    reaches a node (``vehicle_at_node``) and carries no one (``aboard`` is
    empty). Its exact type tells the event handlers that it is a regular
    driver's, which moves on through ``SimState._drive``.

    Position: ``node`` is the node the vehicle is at or, while it is on a
    link, the end of that link; ``link_arrival_time`` is when it gets there,
    and None while it is at the node.

    A regular driver's ``arrival_time`` is set when it enters its last
    link, to the time it will reach its destination, which its
    ``link_arrival_time`` keeps too; it may lie past the run so far, so it
    is read through ``build_report``'s horizon rule. A ridesharing
    driver's is set when it arrives.
    """

    __slots__ = ("agent", "node", "link_arrival_time",
                 "departure_time", "arrival_time", "stranded")
    aboard = ()

    def __init__(self, agent: VehicleAgent):
        self.agent = agent
        self.node = agent.origin
        self.link_arrival_time: Optional[float] = None
        self.departure_time: Optional[float] = None
        self.arrival_time: Optional[float] = None
        self.stranded = False


class RideshareVehicle(Vehicle):
    """A ridesharing driver's vehicle, the one record of its schedule. It
    adds the driver's own latest departure and arrival in steps, fixed when
    it enters; its ``pins``, in service order, and the ids of the riders
    ``aboard``; and the part of its schedule that only these two move, of
    the chain ``schedule.pin_chain`` derives from them: its ``next_stop``,
    (node, step), the first pin or else its destination by its latest
    arrival step, and its ``later_slots``, the free slots after that stop.
    A commit and a pin's service are the only places where pins or riders
    aboard change, and both set the three together (``set_pins``) from the
    vehicle's ``chain``.

    Its ``plan`` is the route it drives, one (link id, entry step) pair per
    link, which it follows from ``plan_pos`` on, holding at a node until the
    next link's entry step. The entry sets it (``_plan_initial_route``) and
    every accepted commit replaces it with a new list. Holds come only from
    ``SimState._advance``; a queued hold names the plan it was made for, and
    is stale once ``plan`` is another list.

    ``listed`` is the free schedule the offer index lists it under, () when
    it is not listed (``SimState.collect_offers``)."""

    __slots__ = ("latest_departure_step", "latest_arrival_step", "pins", "aboard",
                 "next_stop", "later_slots", "plan", "plan_pos", "listed")

    def __init__(self, agent: VehicleAgent, dt: float):
        super().__init__(agent)
        _, self.latest_departure_step, _, self.latest_arrival_step = window_steps(agent.window, dt)
        self.pins: tuple[Pin, ...] = ()
        self.aboard: set[int] = set()
        self.next_stop = (agent.destination, self.latest_arrival_step)
        self.later_slots: tuple[FreeSlot, ...] = ()
        self.plan: list[tuple[int, int]] = []
        self.plan_pos = 0
        self.listed: FreeSchedule = ()

    def chain(self, pins: tuple[Pin, ...]) -> PinChain:
        """The ``pin_chain`` of ``pins`` for this vehicle, with its riders
        aboard as they are."""
        agent = self.agent
        return pin_chain(agent.id, pins, len(self.aboard), agent.seats, agent.destination,
                         self.latest_arrival_step)

    def set_pins(self, pins: tuple[Pin, ...], chain: PinChain) -> None:
        """Take ``pins``, and the next stop and later slots of ``chain``,
        which is ``self.chain(pins)``."""
        self.pins = pins
        self.next_stop = chain[0][0][:2]
        self.later_slots = chain[2]


@dataclass
class AgentOutcome:
    agent_id: int
    role: Role
    matched: Optional[bool]
    departure: Optional[float]
    arrival: Optional[float]
    stranded: bool = False


@dataclass(frozen=True)
class RiderSummary:
    """A run's riders so far, and how many of them were committed (matched),
    delivered (dropped off) and on time (dropped off at or before their
    ``latest_arrival`` + ``ON_TIME_TOLERANCE``): the counts behind every
    rider rate (``SimState.rider_summary``)."""

    riders: int
    committed: int
    delivered: int
    on_time: int

    @property
    def match_rate(self) -> float:
        """Committed riders over riders, 0 with no rider."""
        return self.committed / self.riders if self.riders else 0.0


@dataclass
class RunRecord:
    """What one run did, in order, for readers that check a run after
    it: ``SimState`` appends to a record it was given, and to nothing with
    none. ``events`` holds every event ``SimState.run`` handles, as (time,
    kind, payload), in handling order; an entry's payload is its agent,
    whichever path queued it. A payload's vehicle is the live object, so
    a reader after the run finds it as the run left it: where it was at
    the event is its lane's link end, not its ``node``. ``requests`` holds one row per
    ``match_rider`` call, (rider, offer groups, tau, clock step, network):
    a copy of the offer groups as ``build_time_expanded`` received them,
    the link steps and clock step it built at, and the network it built."""

    events: list[tuple[float, int, object]] = field(default_factory=list)
    requests: list[tuple] = field(default_factory=list)


@dataclass
class SimReport:
    link_class_counts: dict[tuple[int, LaneClass], int]
    outcomes: list[AgentOutcome]
    riders: RiderSummary
    stranded_count: int = 0
    match_trace: list[dict] = field(default_factory=list)

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
    again here. Construction keeps the scenario's demand with its O-D rates
    resolved (``ScenarioConfig.demand_spec``) as ``demand``, takes its
    ``population`` and, below full unused carpool capacity, schedules the
    background carpool load, each from its own stream of ``seed``. With
    ``population`` None it draws the agents over the horizon
    (``generate_agents``); a population handed in must be that draw, for
    this demand, horizon, network and seed, and is kept as it is, the same
    object ("Determinism" in the module docstring). Given a ``record``, the
    run appends what it does to it (``RunRecord``). A replication builds no
    reference cycle ("Memory" in the module docstring)."""

    def __init__(self, config: ScenarioConfig, network: Network, seed: int,
                 population: Optional[tuple[VehicleAgent, ...]] = None,
                 record: Optional[RunRecord] = None):
        self.network = network
        self.record = record
        self.demand = config.demand_spec(network)
        self.weights = config.weights
        self.bpr_alpha = config.bpr.alpha
        self.bpr_beta = config.bpr.beta
        self.dt = config.dt
        travel = config.weights.time * config.dt  # a step's cost on board
        self.step_costs = StepCosts(travel, travel if config.penalty is None else config.penalty)
        self.flow_window = config.flow_window
        self.horizon = config.horizon

        self.clock = 0.0
        # the latest time any run reached: an arrival fixed at entry is read
        # only once a run has come that far (build_report)
        self.run_limit = -INF
        # each link's (general, carpool) lanes by id, for ``enter_link``;
        # ``lanes`` keys them by (link id, lane class) in link id order,
        # general before carpool: the order of build_report
        self.link_lanes = {link.id: (Lane(link, GENERAL), Lane(link, CARPOOL))
                           for link in sorted(network.links, key=lambda l: l.id)}
        self.lanes = {(link_id, lane.lane_class): lane
                      for link_id, pair in self.link_lanes.items() for lane in pair}
        self.vehicles: dict[int, Vehicle] = {}
        # the offer index, see collect_offers: the live drivers by id, their
        # free schedules with the ids listed under each, the drivers marked
        # since the last scan, and a heap of (latest arrival, id) of drivers
        # that hold at a node past their latest arrival
        self._offer_index: dict[int, RideshareVehicle] = {}
        self._offers: dict[FreeSchedule, list[int]] = {}
        self._marked: dict[int, RideshareVehicle] = {}
        self._deadlines: list[tuple[float, int]] = []
        self.rider_board_time: dict[int, float] = {}
        self.rider_alight_time: dict[int, float] = {}
        self.match_results: dict[int, MatchResult] = {}
        self.match_trace: list[dict] = []

        demand_seed, background_seed = np.random.SeedSequence(seed).spawn(2)
        if population is None:
            population = generate_agents(self.demand, self.horizon, network, demand_seed)

        # agents come sorted by time with ids 0..n-1: their entries are
        # scheduled in (time, seq) order with seq = id, and every pushed
        # event's seq is larger ("Determinism" in the module docstring);
        # fallback drivers join ``agents`` alone, never the population
        self.agents: dict[int, VehicleAgent] = {agent.id: agent for agent in population}
        self.population: tuple[VehicleAgent, ...] = population
        self._next_scheduled = 0
        self.events: list[tuple[float, int, int, object]] = []
        self._seq = self._next_agent_id = len(population)

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
            count = arrival_count(rng, rate * self.horizon,
                                  f"link {link_id}'s background from unused_capacity * horizon")
            for t in np.sort(rng.uniform(0.0, self.horizon, size=count)):
                self.push_event(float(t), EV_BACKGROUND, link_id)

    # ------------------------------------------------------------------ events

    def push_event(self, time: float, kind: int, payload: object) -> None:
        """Queue an event on the heap; every event but a generated agent's
        entry comes through here."""
        if time < self.clock - 1e-12:
            raise SimulationError("event scheduled before the clock")
        heapq.heappush(self.events, (time, self._seq, kind, payload))
        self._seq += 1

    # ------------------------------------------------------------- travel time

    def lane_delay(self, lane: Lane, now: float) -> float:
        """The lane's BPR delay at the hourly flow of its entry window at
        ``now``. Entries older than the window are dropped for good, as the
        clock never goes back. Each lane memoises its delays on the entries
        left in its window: the BPR settings and the window are fixed for
        the run, so the count alone sets the flow. A delay that overflows a
        float, in hours or in steps of ``dt``, with each setting in its
        bounds, raises ConfigError; it is checked on a memo miss alone.
        ``enter_link`` trims and reads the memo itself, by the same rule, and
        comes here on a miss."""
        entries = lane.entries
        cutoff = now - self.flow_window
        while entries and entries[0] < cutoff:
            entries.popleft()
        count = len(entries)
        try:
            return lane.delays[count]
        except KeyError:
            flow = count / self.flow_window
            try:
                delay = volume_delay(lane.link, lane.lane_class, flow,
                                     self.bpr_alpha, self.bpr_beta)
            except OverflowError:
                delay = INF
            if not math.isfinite(delay / self.dt):
                raise ConfigError(f"bpr.alpha, bpr.beta and flow_window: the delay of the "
                                  f"{lane.lane_class.value} lane of link {lane.link.id} at "
                                  f"{flow:g} vehicles/hour is too large for a float") from None
            lane.delays[count] = delay
            return delay

    def link_delay(self, link_id: int, lane_class: LaneClass, now: float) -> float:
        """``lane_delay`` of the link's lane of ``lane_class``, looked up by
        id: the route costs, ``matching_steps`` and initial plans ask here."""
        return self.lane_delay(self.lanes[link_id, lane_class], now)

    def route_cost_fn(self, now: float) -> Callable:
        """Generalized toll + travel-time cost snapshot for replanning."""
        link_delay, toll, time = self.link_delay, self.weights.toll, self.weights.time

        def cost(link) -> float:
            delay = link_delay(link.id, GENERAL, now)
            return toll * link.toll + time * delay
        return cost

    def matching_steps(self) -> dict[int, int]:
        """Whole steps per link at the clock on the faster lane class, at
        least one: the one frozen traffic state the matcher prices and
        commits against. The delays come memoised (``link_delay``)."""
        now, dt, link_delay = self.clock, self.dt, self.link_delay
        steps = {}
        for link in self.network.links:
            delay = link_delay(link.id, GENERAL, now)
            if link.has_carpool_lane:
                delay = min(delay, link_delay(link.id, CARPOOL, now))
            steps[link.id] = link_steps(delay, dt)
        return steps

    # ------------------------------------------------------------ vehicle flow

    def enter_link(self, vehicle: Vehicle, link_id: int, now: float) -> None:
        """Put ``vehicle`` on the link: on its general lane or, carrying a
        rider, on its carpool lane where that one is faster, and queue its
        arrival at the link's end after that lane's delay, with the vehicle
        in flight on the lane. A regular driver's last link ends its trip:
        its arrival time is set here, and nothing is queued or in flight
        (``Vehicle``). The general lane's window is trimmed and its memo
        read here, as ``lane_delay`` does; a miss goes through
        ``lane_delay``. The entry's bookkeeping, ``Lane.record_entry``'s for
        a vehicle, is written in place."""
        lane, carpool = self.link_lanes[link_id]
        link = lane.link
        entries = lane.entries
        cutoff = now - self.flow_window
        while entries and entries[0] < cutoff:
            entries.popleft()
        delay = lane.delays.get(len(entries))
        if delay is None:
            delay = self.lane_delay(lane, now)
        if link.has_carpool_lane and vehicle.aboard:
            # driver plus a rider: the carpool lane when it is faster
            carpool_delay = self.lane_delay(carpool, now)
            if carpool_delay < delay:
                lane, delay = carpool, carpool_delay
        lane.entries.append(now)
        lane.total += 1
        if vehicle.departure_time is None:
            vehicle.departure_time = now
        node = vehicle.node = link.to_node
        arrival = vehicle.link_arrival_time = now + delay
        if node == vehicle.agent.destination and type(vehicle) is Vehicle:
            # a regular driver's trip ends at this link's end, where it
            # would change nothing but its own arrival time
            vehicle.arrival_time = arrival
            return
        lane.in_flight += 1
        # the arrival carries the lane it leaves, so its exit needs no lookup
        self.push_event(arrival, EV_ARRIVE_NODE, (vehicle, lane))

    def vehicle_at_node(self, vehicle: Vehicle, node: int, now: float) -> Optional[int]:
        """A regular driver's next link at ``node``; None means stranded.

        The driver takes the first link of ``dijkstra_route`` at the
        current cost snapshot. Where only one outgoing link still reaches
        the destination (``Network.next_hops``) that link is the answer,
        taken without building the snapshot. A vehicle with no feasible
        continuation is recorded as stranded (``vehicle.stranded``), not a
        crash.
        """
        destination = vehicle.agent.destination
        hops = self.network.next_hops(node, destination)
        if len(hops) == 1:
            return hops[0]
        route = dijkstra_route(self.network, self.route_cost_fn(now), node, destination)
        if route is None:
            vehicle.stranded = True
            return None
        return route[0]

    def _drive(self, vehicle: Vehicle, now: float) -> None:
        """Move a regular driver standing at a node short of its
        destination: it enters the link ``vehicle_at_node`` picks, or, with
        none, is stranded there. Its entry and each arrival at a node hand
        it here; it never arrives at its destination by an event, as its
        trip ends when it enters its last link (``enter_link``), and its
        origin is never its destination (``DemandConfig``)."""
        next_link = self.vehicle_at_node(vehicle, vehicle.node, now)
        if next_link is not None:
            self.enter_link(vehicle, next_link, now)

    def _advance(self, vehicle: RideshareVehicle, now: float) -> None:
        """Move a ridesharing driver standing at its node. It serves the
        pins due there, then holds until its plan's next entry step is due
        (``timegrid.step_due``), enters that link, or ends the trip where
        its plan ends, stranded without an arrival time unless that is its
        destination.

        This is the one place that queues a hold: the driver's entry, its
        arrival at a node, a hold that comes due and an accepted commit all
        hand the driver at its node here, and it marks the driver, while it
        is in the offer index, for re-listing (``_moved``)."""
        node = vehicle.node
        self._moved(vehicle)
        if vehicle.pins:
            self._serve_pins(vehicle, node, now)
        pos, plan = vehicle.plan_pos, vehicle.plan
        if pos < len(plan):
            next_link, entry_step = plan[pos]
            if not step_due(entry_step, now, self.dt):
                self.push_event(entry_step * self.dt, EV_DEPART_NODE, (vehicle, plan))
                return
            vehicle.plan_pos = pos + 1
            self.enter_link(vehicle, next_link, now)
        elif node == vehicle.agent.destination:
            vehicle.arrival_time = now
        else:
            vehicle.stranded = True

    def _serve_pins(self, vehicle: RideshareVehicle, node: int, now: float) -> None:
        """Serve the vehicle's pins due at ``node``, in order, up to a
        boarding whose step is not yet due (``timegrid.step_due``). Serving
        changes its pins and riders aboard, so its next stop and later slots
        are then taken from the ``pin_chain`` of the pins left
        (``set_pins``); where the vehicle is, and from which step, never
        enters it."""
        pins = vehicle.pins
        served = 0
        for pin in pins:
            if pin.node != node:
                break
            if pin.action == "board":
                if not step_due(pin.step, now, self.dt):
                    break  # boarding is due at the pinned step; hold first
                vehicle.aboard.add(pin.rider_id)
                self.rider_board_time.setdefault(pin.rider_id, now)
            else:
                vehicle.aboard.discard(pin.rider_id)
                self.rider_alight_time[pin.rider_id] = now
            served += 1
        if served:
            pins = pins[served:]
            vehicle.set_pins(pins, vehicle.chain(pins))

    # ------------------------------------------------------------ event logic

    def _handle_agent_enter(self, agent: VehicleAgent, now: float) -> None:
        role = agent.role
        if role is RIDER:
            self._handle_rider_request(agent, now)
            return
        if role is RIDESHARE_DRIVER:
            vehicle = RideshareVehicle(agent, self.dt)
            self._offer_index[agent.id] = self.vehicles[agent.id] = vehicle
            self._plan_initial_route(vehicle, now)
            self._advance(vehicle, now)
        else:
            vehicle = self.vehicles[agent.id] = Vehicle(agent)
            self._drive(vehicle, now)

    def _plan_initial_route(self, vehicle: RideshareVehicle, now: float) -> None:
        """Unmatched ridesharing drivers stay available at their origin until
        their latest departure, then drive their own best route; a matching
        commit rewrites this plan. The route is ``dijkstra_route``'s at the
        current cost snapshot."""
        agent = vehicle.agent
        path = dijkstra_route(self.network, self.route_cost_fn(now),
                              agent.origin, agent.destination)
        if path is None:
            return  # no path: the empty plan strands the vehicle at its origin
        step = max(ceil_steps(now, self.dt), vehicle.latest_departure_step)
        plan = []
        for link_id in path:
            plan.append((link_id, step))
            delay = self.link_delay(link_id, GENERAL, now)
            step += link_steps(delay, self.dt)
        vehicle.plan = plan

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
            self.push_event(now, EV_AGENT_ENTER, fallback)

    def _handle_arrive(self, payload: tuple, now: float) -> None:
        vehicle, lane = payload
        lane.record_exit()
        vehicle.link_arrival_time = None
        if type(vehicle) is Vehicle:
            self._drive(vehicle, now)
        else:
            self._advance(vehicle, now)

    def _handle_depart(self, payload: tuple, now: float) -> None:
        vehicle, plan = payload
        if plan is not vehicle.plan:
            return  # superseded by a later matching commit
        if (vehicle.arrival_time is not None or vehicle.stranded
                or vehicle.link_arrival_time is not None):
            raise SimulationError(f"vehicle {vehicle.agent.id}: a hold for its current plan "
                                  "finds it finished or on a link")
        self._advance(vehicle, now)

    def _handle_background(self, link_id: int, now: float) -> None:
        # background traffic only loads the carpool lane's entry window that
        # BPR reads; it has no vehicle, so it needs no exit
        self.link_lanes[link_id][1].record_entry(now, background=True)

    # --------------------------------------------------------------- matching

    @property
    def live_drivers(self) -> int:
        """Ridesharing drivers in the offer index. Right after
        ``collect_offers`` that is every driver live at the clock, the
        match trace's ``offers``: the scan evicts a driver at the first
        request at which ``_live_anchor_step`` refuses it."""
        return len(self._offer_index)

    def _moved(self, vehicle: RideshareVehicle) -> None:
        """Mark ``vehicle`` for ``collect_offers`` to re-list, while it is
        in the offer index: one the scan evicted stays out for good. Its
        node, link, departure, pins and riders aboard change only in
        ``_advance`` and in ``commit_itinerary``'s phase two, and both mark
        it here."""
        agent_id = vehicle.agent.id
        if agent_id in self._offer_index:
            self._marked[agent_id] = vehicle

    def collect_offers(self, clock_step: int) -> dict[FreeSchedule, list[int]]:
        """Every live ridesharing driver's free slots, grouped: each distinct
        free schedule (``schedule.FreeSchedule``) with the ids of the drivers
        that have it, which ``build_time_expanded`` reads, so a driver with a
        free slot is listed once and one with none is not listed. The groups
        are the offer index itself, kept from request to request; callers
        must not change them. Neither the groups' order nor their ids'
        follows the drivers' ids: they follow the order in which drivers
        were re-listed, and nothing the build returns depends on it.
        ``clock_step`` is ``ceil_steps`` of the clock, which ``match_rider``
        takes once per request.

        A driver's free schedule is its first slot, if that is free, then its
        ``later_slots``. The first slot runs from its anchor to its
        ``next_stop``, by the chain's rule (``schedule.free_slot``). On a
        link, it starts at the link's end at ``ceil_steps`` of its arrival
        time and holds until it arrives. Standing at its node, the driver has
        an open first slot, (node, None, stop, step, its latest departure
        step, or INF once underway), if it has a free seat: the build starts
        it at the clock's step, so it holds while the driver stands.

        Only the drivers marked since the last call (``_moved``) are asked,
        and re-listed where their free schedules changed. One condition
        turns true with no event: a driver standing at its node past its own
        ``latest_arrival``. A driver stands at its node only while the hold
        ``_advance`` queued for its plan's next entry step runs, so the scan
        that lists a standing driver whose hold ends after its latest
        arrival pushes (latest arrival, id) onto a heap; every scan pops
        the entries the clock has passed and asks those drivers too. A
        driver enters the index when it is created and leaves it, for good,
        at the first scan at which ``_live_anchor_step`` finds it has
        nothing left to offer: the scan at which a scan of every driver
        would evict it, since nothing else changes its answer. Only the
        scan evicts, and only indexed drivers are marked, so every driver
        it asks is in the index. So after the scan the index holds every
        live vehicle (``live_drivers``), with a free seat or not.
        ``commit_itinerary`` looks each leg's driver up here, so an evicted
        vehicle is never given a pin.
        """
        index, marked, deadlines, clock = (self._offer_index, self._marked, self._deadlines,
                                           self.clock)
        while deadlines and deadlines[0][0] < clock:
            agent_id = heapq.heappop(deadlines)[1]
            vehicle = index.get(agent_id)
            if vehicle is not None:
                marked[agent_id] = vehicle
        if not marked:
            return self._offers
        offers, live = self._offers, self._live_anchor_step
        for agent_id, vehicle in marked.items():
            anchor_step = live(vehicle, clock_step)
            if anchor_step is None:
                del index[agent_id]
                schedule = ()
            else:
                stop, step = vehicle.next_stop
                standing = vehicle.link_arrival_time is None  # its first slot is open
                first = free_slot(vehicle.node, None if standing else anchor_step, stop, step,
                                  len(vehicle.aboard), vehicle.agent.seats,
                                  vehicle.latest_departure_step
                                  if vehicle.departure_time is None else INF)
                schedule = vehicle.later_slots if first is None \
                    else (first,) + vehicle.later_slots
                if standing:
                    # it holds until its plan's next entry step; a hold that
                    # ends after its latest arrival needs the heap
                    latest = vehicle.agent.window.latest_arrival
                    if vehicle.plan[vehicle.plan_pos][1] * self.dt > latest:
                        heapq.heappush(deadlines, (latest, agent_id))
            listed = vehicle.listed
            if schedule != listed:
                if listed:
                    ids = offers[listed]
                    ids.remove(agent_id)
                    if not ids:
                        del offers[listed]
                if schedule:
                    offers.setdefault(schedule, []).append(agent_id)
                vehicle.listed = schedule
        marked.clear()
        return offers

    def _live_anchor_step(self, vehicle: RideshareVehicle, clock_step: int) -> Optional[int]:
        """The step from which the indexed vehicle is available at its
        anchor, or None when it has nothing left to offer: finished (arrived
        or stranded), past its own latest arrival, or at its destination
        with no pins. ``clock_step`` is the clock's step, the anchor step of
        a vehicle at its node. The scan asks here for each driver it
        re-lists, and the commit for each leg's driver.

        The anchor is where the vehicle is, or the end of the link it is on.
        None is final, so the vehicle can leave the offer index: a finished
        vehicle never moves again; the anchor time never decreases (the
        clock, or the end of the link the vehicle is on), so one past
        the driver's latest arrival stays past it; and a commit refuses a
        vehicle for which this is None, so one bound for its destination
        with no pins left is never given a route past it. The answer
        changes only where the vehicle moves or takes pins, which marks it
        (``_moved``), or where the clock passes its latest arrival while it
        stands at its node, which the scan's heap catches
        (``collect_offers``).
        """
        if vehicle.arrival_time is not None or vehicle.stranded:
            return None
        agent = vehicle.agent
        anchor_time = vehicle.link_arrival_time
        if anchor_time is None:
            anchor_time, anchor_step = self.clock, clock_step
        else:
            anchor_step = ceil_steps(anchor_time, self.dt)
        if anchor_time > agent.window.latest_arrival:
            return None  # already outside its own schedule
        if vehicle.node == agent.destination and not vehicle.pins:
            return None
        return anchor_step

    def commit_itinerary(self, rider: RiderRequest, itinerary: Itinerary,
                         tau: dict[int, int], clock_step: int) -> bool:
        """Two-phase commit of a solved itinerary onto the drivers involved.

        Phase one takes, for each leg's driver, the ``pin_chain`` of its own
        pins with the rider's added, puts its anchor stop, (node, anchor
        step, False) at the clock (``_live_anchor_step``), in front of the
        chain's stops and walks them (ordering, travel feasibility, seat
        capacity, own window) at ``tau``, the link steps the itinerary was
        solved on, reading the latest departure step, the seats and whether
        it is underway from the vehicle itself; ``clock_step`` is
        ``ceil_steps`` of the clock. Between two stops the driver takes the
        path of ``step_matrix`` at ``tau``, the matrix that built the
        rider's network, read and not searched again. Phase two gives each
        vehicle the new pins with their chain
        (``RideshareVehicle.set_pins``) and replaces its plan, marks it for
        the offer index (``_moved``), and hands a vehicle standing at its
        node to ``_advance`` at the clock, which serves the pins due, then
        holds it or moves it on: the commit queues no event of its own.
        Returns False when any driver cannot honor the plan or is not live
        in the offer index, leaving all drivers untouched.
        """
        steps, paths = step_matrix(self.network, tau)
        updates: list[tuple[RideshareVehicle, tuple[Pin, ...], PinChain,
                            list[tuple[int, int]]]] = []
        for leg in itinerary.legs:
            vehicle = self._offer_index.get(leg.driver)
            anchor_step = (None if vehicle is None
                           else self._live_anchor_step(vehicle, clock_step))
            if anchor_step is None:
                return False
            pins = tuple(sorted(
                vehicle.pins
                + (Pin(leg.board_node, leg.board_step, "board", rider.id),
                   Pin(leg.alight_node, leg.alight_step, "alight", rider.id)),
                key=lambda p: (p.step, 0 if p.action == "alight" else 1, p.rider_id),
            ))
            chain = vehicle.chain(pins)
            if max(chain[1]) > vehicle.agent.seats:
                return False
            stops = ((vehicle.node, anchor_step, False), *chain[0])
            underway = vehicle.departure_time is not None
            plan: list[tuple[int, int]] = []
            cursor = anchor_step  # earliest step the vehicle can leave the stop
            for (from_node, _, _), (to_node, to_step, holds) in zip(stops, stops[1:]):
                travel = steps[from_node][to_node]
                if cursor + travel > to_step:  # INF, no path, fails too
                    return False
                # the first slot, not yet underway, is left just in time,
                # by its leave-by step; a later slot, or a first of no
                # length (a pin at the anchor at the anchor step), at once
                leave_by = (None if underway else
                            leave_by_step(cursor, to_step, vehicle.latest_departure_step))
                step = cursor if leave_by is None else min(to_step - travel, leave_by)
                underway = True
                for lid in paths[from_node][to_node]:
                    plan.append((lid, step))
                    step += tau[lid]
                # a boarding stop pins the onward departure; dropoffs do not
                cursor = max(step, to_step) if holds else step
            updates.append((vehicle, pins, chain, plan))

        for vehicle, pins, chain, plan in updates:
            vehicle.set_pins(pins, chain)
            vehicle.plan, vehicle.plan_pos = plan, 0
            self._moved(vehicle)
            if vehicle.link_arrival_time is None:
                self._advance(vehicle, self.clock)
        return True

    # ------------------------------------------------------------------- runs

    def run(self, horizon: Optional[float] = None) -> None:
        """Process every event with time <= horizon (the scenario's by
        default), in (time, seq) order: the next scheduled agent entry when
        its time is not after the heap's head, else the head ("Determinism"
        in the module docstring). A later call goes on from there. Only
        events are processed: ``build_report``, ``validation_counts`` and
        ``rider_summary`` read the results. ``run_limit`` keeps the latest
        limit any call ran to, the horizon plus 1e-12, by which an event is
        processed; ``build_report`` reports an arrival fixed at entry by the
        same rule. Each event handled is appended to ``record``'s events,
        if there is a record."""
        limit = (self.horizon if horizon is None else horizon) + 1e-12
        self.run_limit = max(self.run_limit, limit)
        log = None if self.record is None else self.record.events
        events, scheduled = self.events, self.population
        i, n = self._next_scheduled, len(scheduled)
        heappop = heapq.heappop
        try:
            while True:
                if i < n and (not events or scheduled[i].request_time <= events[0][0]):
                    payload = scheduled[i]
                    time, kind = payload.request_time, EV_AGENT_ENTER
                    if time > limit:
                        break
                    i += 1
                elif not events or events[0][0] > limit:
                    break
                else:
                    time, _, kind, payload = heappop(events)
                self.clock = time
                if log is not None:
                    log.append((time, kind, payload))
                if kind == EV_AGENT_ENTER:
                    self._handle_agent_enter(payload, time)
                elif kind == EV_ARRIVE_NODE:
                    self._handle_arrive(payload, time)
                elif kind == EV_DEPART_NODE:
                    self._handle_depart(payload, time)
                else:
                    self._handle_background(payload, time)
        finally:
            self._next_scheduled = i

    def validation_counts(self) -> dict[int, int]:
        """Entries per link so far, both lane classes, without the
        background load: the counts the validation compares, in link id
        order."""
        counts: dict[int, int] = {}
        for (link_id, _), lane in self.lanes.items():
            counts[link_id] = counts.get(link_id, 0) + lane.total - lane.background
        return counts

    def rider_summary(self) -> RiderSummary:
        """The riders so far, in one walk over ``agents``: a rider is
        committed when its match result is matched, delivered when it has
        a drop-off time, and on time when that drop-off is at or before its
        ``latest_arrival`` + ``ON_TIME_TOLERANCE``. An unmatched rider's
        fallback driver is an agent of its own, not a rider."""
        riders = committed = delivered = on_time = 0
        results, alights = self.match_results, self.rider_alight_time
        for agent_id, agent in self.agents.items():
            if agent.role is not RIDER:
                continue
            riders += 1
            result = results.get(agent_id)
            committed += result is not None and result.matched
            alight = alights.get(agent_id)
            if alight is not None:
                delivered += 1
                on_time += alight <= agent.window.latest_arrival + ON_TIME_TOLERANCE
        return RiderSummary(riders, committed, delivered, on_time)

    def build_report(self) -> SimReport:
        """The run so far as a report: every agent's outcome in id order,
        each lane class's entries per link, the ``rider_summary`` and the
        match trace. A vehicle's arrival is reported only where it is not
        past ``run_limit``: a regular driver's is set when it enters its
        last link, and is reported exactly where its arrival event, had it
        been queued, would have been processed. The CLI's ``run`` writes
        it; the experiments read only ``validation_counts`` and
        ``rider_summary``."""
        class_counts = {key: lane.total for key, lane in self.lanes.items()}
        limit = self.run_limit
        outcomes = []
        for agent_id in sorted(self.agents):
            agent = self.agents[agent_id]
            if agent.role is RIDER:
                result = self.match_results.get(agent_id)
                matched = result is not None and result.matched
                departure = self.rider_board_time.get(agent_id)
                arrival = self.rider_alight_time.get(agent_id)
                outcomes.append(AgentOutcome(agent_id, agent.role, matched,
                                             departure, arrival))
            else:
                vehicle = self.vehicles.get(agent_id)
                departure = vehicle.departure_time if vehicle else None
                arrival = vehicle.arrival_time if vehicle else None
                if arrival is not None and arrival > limit:
                    arrival = None  # a regular driver's, fixed past the run
                stranded = vehicle.stranded if vehicle else False
                outcomes.append(AgentOutcome(agent_id, agent.role, None,
                                             departure, arrival, stranded))
        return SimReport(
            link_class_counts=class_counts,
            outcomes=outcomes,
            riders=self.rider_summary(),
            stranded_count=sum(o.stranded for o in outcomes),
            match_trace=list(self.match_trace),
        )


def init_simulation(config: ScenarioConfig, network: Network, seed: int,
                    population: Optional[tuple[VehicleAgent, ...]] = None) -> SimState:
    """One replication of a validated scenario, ready to run, drawing its
    population unless one is handed in (``SimState``).

    The experiments build every replication here, and the benchmark times
    set-up by wrapping this function, so it stays the one entry point.
    """
    return SimState(config, network, seed, population)


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
