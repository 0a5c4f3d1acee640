import collections
import contextlib
import copy
import dataclasses
import gc
import heapq
import math
import re
import statistics
import weakref
from pathlib import Path

import pytest
import yaml

import ridesim.experiments as experiments
import ridesim.matching as matching
import ridesim.routing as routing
import ridesim.simulation as simulation
from ridesim.agents import Role, TimeWindow, VehicleAgent
from ridesim.config import DemandConfig, bundled_data_path, load_config
from ridesim.demand import Shares
from ridesim.dp import Itinerary, ItineraryLeg
from ridesim.matching import MatchResult, RiderRequest, match_rider
from ridesim.network import LaneClass, Link, Network, volume_delay
from ridesim.experiments import write_sim_report
from ridesim.schedule import Pin, pin_chain
from ridesim.simulation import (
    EV_AGENT_ENTER,
    EV_ARRIVE_NODE,
    EV_BACKGROUND,
    EV_DEPART_NODE,
    ON_TIME_TOLERANCE,
    RiderSummary,
    SimState,
    SimulationError,
    carpool_background_rates,
    init_simulation,
)
from ridesim.ten import build_time_expanded
from ridesim.timegrid import ceil_steps

from conftest import Driver, free_slots, scenario, slot_groups, step_durations
from test_golden_outputs import write_grid


def empty_sim(testbed, horizon=4.0) -> SimState:
    return SimState(scenario(horizon, {(0, 2): 0.0}), testbed, seed=1)


def seed_agent(sim: SimState, agent: VehicleAgent) -> None:
    sim.agents[agent.id] = agent
    sim.push_event(agent.request_time, EV_AGENT_ENTER, agent.id)
    sim._next_agent_id = max(sim._next_agent_id, agent.id + 1)


def regular(agent_id, origin, dest, t):
    return VehicleAgent(
        id=agent_id, role=Role.REGULAR_DRIVER, origin=origin, destination=dest,
        request_time=t, window=None,
    )


def rideshare(agent_id, origin, dest, t, fft, flex=0.3, seats=4):
    return VehicleAgent(
        id=agent_id, role=Role.RIDESHARE_DRIVER, origin=origin, destination=dest,
        request_time=t, window=TimeWindow(t, t + flex, t + fft, t + fft + flex),
        seats=seats,
    )


def rider(agent_id, origin, dest, t, fft, flex=0.3):
    return VehicleAgent(
        id=agent_id, role=Role.RIDER, origin=origin, destination=dest,
        request_time=t, window=TimeWindow(t, t + flex, t + fft, t + fft + flex),
    )


def record_handled(monkeypatch) -> list:
    """A list that every event any ``SimState`` handles from now on is
    appended to, as (clock, kind, key); an arrival's key names its vehicle,
    link and lane class, a departure's its vehicle and plan."""
    log = []
    keys = {
        "_handle_agent_enter": (EV_AGENT_ENTER, lambda sim, agent: agent.id),
        "_handle_arrive": (EV_ARRIVE_NODE, lambda sim, payload: (
            payload[0].agent.id, payload[1].link.id,
            payload[1].lane_class is LaneClass.CARPOOL)),
        "_handle_depart": (EV_DEPART_NODE, lambda sim, payload: (
            payload[0].agent.id, payload[1])),
        "_handle_background": (EV_BACKGROUND, lambda sim, link_id: link_id),
    }
    for name, (kind, key) in keys.items():
        def recording(sim, payload, now, original=getattr(SimState, name),
                      kind=kind, key=key):
            log.append((now, kind, key(sim, payload)))
            return original(sim, payload, now)
        monkeypatch.setattr(SimState, name, recording)
    return log


def handled_as_one_heap(sim: SimState, reference: SimState, monkeypatch,
                        horizon=None) -> list:
    """Run ``sim`` and ``reference``, built alike, to ``horizon``, with
    ``reference``'s scheduled agent entries moved onto its event heap, each
    as a push would have put it there with seq = agent id: the one queue of
    every event whose order the entry stream must give. Assert they handle
    the same events in the same order and report alike, and return the
    events handled."""
    reference.events.extend((agent.request_time, agent.id, EV_AGENT_ENTER, agent.id)
                            for agent in reference.population)
    heapq.heapify(reference.events)
    reference.population = ()
    log = record_handled(monkeypatch)
    sim.run(horizon)
    handled = log[:]
    log.clear()
    reference.run(horizon)
    assert handled == log
    assert sim.build_report() == reference.build_report()
    assert sim._seq == reference._seq
    return handled


@contextlib.contextmanager
def advances_held(sim: SimState):
    """Hold back the ``_advance`` calls ``sim`` makes inside the block,
    collected as (vehicle, now), and make them in order when it ends
    without an error. A commit's drivers can so be inspected as its phase
    two left them, before any of them moves on; no driver's ``_advance``
    reads another's pins or plan, so the run goes on as it would have."""
    handed = []
    sim._advance = lambda vehicle, now: handed.append((vehicle, now))
    try:
        yield handed
    finally:
        del sim._advance
    for vehicle, now in handed:
        sim._advance(vehicle, now)


def transfer_sim(testbed) -> SimState:
    """Rider 2 (0->2) can only be carried by driver 0 (0->1) and then driver 1
    (1->2); both drivers are already in the system when the rider requests,
    and the second lingers at node 1 long enough for the handoff."""
    sim = empty_sim(testbed, horizon=6.0)
    seed_agent(sim, rideshare(0, 0, 1, t=0.0, fft=0.22, flex=0.1))
    seed_agent(sim, rideshare(1, 1, 2, t=0.0, fft=0.5, flex=0.4))
    seed_agent(sim, rider(2, 0, 2, t=0.0, fft=0.72, flex=0.4))
    return sim


def sweep_and_transfer_sims(testbed) -> list[SimState]:
    """Three bundled sweep replications at 25% unused carpool capacity, then
    the two-driver transfer scenario; none has run yet."""
    from ridesim.config import bundled_data_path, load_config
    from ridesim.experiments import replication_seeds
    from ridesim.simulation import init_simulation

    config = load_config(bundled_data_path("sweep.yaml"), {"unused_capacity": 0.25})
    network = config.make_network()
    sims = [init_simulation(config, network, seed)
            for seed in replication_seeds(config.seed, 3)]
    sims.append(transfer_sim(testbed))
    return sims


class TestBasicRuns:
    def test_zero_demand_all_zero(self, testbed):
        sim = empty_sim(testbed)
        sim.run()
        report = sim.build_report()
        assert all(c == 0 for c in sim.validation_counts().values())
        assert report.outcomes == []

    def test_single_regular_driver_free_flow(self, testbed):
        sim = empty_sim(testbed)
        seed_agent(sim, regular(0, 0, 3, t=0.0))
        sim.run()
        report = sim.build_report()
        assert sim.validation_counts() == {0: 1, 1: 0, 2: 0, 3: 0}
        outcome = report.outcomes[0]
        assert outcome.arrival - outcome.departure == pytest.approx(0.55)

    def test_two_leg_regular_trip(self, testbed):
        sim = empty_sim(testbed)
        seed_agent(sim, regular(0, 0, 2, t=0.0))
        sim.run()
        report = sim.build_report()
        assert sim.validation_counts() == {0: 0, 1: 1, 2: 1, 3: 0}
        outcome = report.outcomes[0]
        assert outcome.arrival - outcome.departure == pytest.approx(0.72)

    def test_invalid_shares_rejected(self, testbed):
        with pytest.raises(ValueError):
            DemandConfig(od_rates={(0, 2): 1.0},
                         shares=Shares(0.2, 0.4, 0.5), window_flexibility=0.25,
                         scale=1.0, seats=4)

    def test_events_do_not_precede_clock(self, testbed):
        sim = empty_sim(testbed)
        sim.clock = 2.0
        with pytest.raises(SimulationError):
            sim.push_event(1.0, EV_AGENT_ENTER, 0)


class TestVehicleAtNode:
    def test_heading_through_node_1(self, testbed):
        sim = empty_sim(testbed)
        agent = regular(0, 1, 2, t=0.0)
        vehicle = simulation.Vehicle(agent)
        assert sim.vehicle_at_node(vehicle, 1, 0.0) == 2

    def test_at_destination_returns_none(self, testbed):
        sim = empty_sim(testbed)
        agent = regular(0, 0, 3, t=0.0)
        vehicle = simulation.Vehicle(agent)
        vehicle.node = 3
        assert sim.vehicle_at_node(vehicle, 3, 0.0) is None
        assert not vehicle.stranded

    def test_congested_direct_link_diverts(self, testbed):
        sim = empty_sim(testbed)
        # flood link 0's sliding window so its delay beats the 0.86 h detour
        window = sim.lanes[0, LaneClass.GENERAL].entries
        for _ in range(3000):
            window.append(0.0)
        agent = regular(0, 0, 3, t=0.0)
        vehicle = simulation.Vehicle(agent)
        assert sim.vehicle_at_node(vehicle, 0, 0.0) == 1

    def test_unreachable_destination_strands(self, testbed):
        sim = empty_sim(testbed)
        seed_agent(sim, regular(0, 2, 3, t=0.0))  # node 2 has no outgoing links
        sim.run()
        report = sim.build_report()
        assert report.stranded_count == 1
        [outcome] = report.outcomes
        assert outcome.stranded
        assert outcome.departure is None and outcome.arrival is None

    def test_replans_only_at_forks(self, tmp_path, monkeypatch):
        """A regular driver searches (``routing.shortest_paths``) only at a
        fork whose branches are not all forced (``Network.route_choices`` is
        None), and the link it picks at every fork is the first of the
        route the search finds at that instant. On the validation run the
        only fork is the LA pair 0 -> 3, whose two branches are forced, so
        it never searches; the grid run searches where its branches merge."""
        config = load_config(bundled_data_path("validation.yaml"), {"horizon": 2.0})
        validation = init_simulation(config, config.make_network(), seed=101)
        visit = SimState.vehicle_at_node
        search = routing.shortest_paths
        searches = []
        forks = collections.Counter()

        def counted_search(network, cost_fn, origin, dest=None):
            searches.append((origin, dest))
            return search(network, cost_fn, origin, dest)

        def checked_visit(sim, vehicle, node, now):
            dest = vehicle.agent.destination
            fork = node != dest and len(sim.network.next_hops(node, dest)) > 1
            if fork:
                route = search(sim.network, sim.route_cost_fn(now), node, dest)[dest][1]
            searches.clear()
            link = visit(sim, vehicle, node, now)
            if not fork:
                assert searches == []
                return link
            open_fork = sim.network.route_choices(node, dest) is None
            assert searches == ([(node, dest)] if open_fork else [])
            assert link == route[0]
            if sim is validation:
                assert (node, dest, open_fork) == (0, 3, False)
            forks[sim is validation, open_fork] += 1
            return link

        monkeypatch.setattr(SimState, "vehicle_at_node", checked_visit)
        monkeypatch.setattr(routing, "shortest_paths", counted_search)
        for sim in (validation, grid_sim(tmp_path)):
            sim.run()
        assert forks[True, False] > 100
        assert forks[False, True] > 20 and forks[False, False] > 20, forks

    def test_initial_plans_search_only_at_forks(self, testbed, tmp_path, monkeypatch):
        """On the sweep, transfer and grid runs, a ridesharing driver's
        initial plan makes one search (``routing.shortest_paths``) where its
        pair's branches are not all forced (``Network.route_choices`` is
        None) and none otherwise, and its links are the route the search
        finds at that instant."""
        search = routing.shortest_paths
        plan_initial_route = SimState._plan_initial_route
        searches = []
        plans = collections.Counter()

        def counted_search(network, cost_fn, origin, dest=None):
            searches.append((origin, dest))
            return search(network, cost_fn, origin, dest)

        def planned(sim, vehicle, now):
            agent = vehicle.agent
            pair = agent.origin, agent.destination
            entry = search(sim.network, sim.route_cost_fn(now), *pair).get(pair[1])
            route = None if entry is None else entry[1]
            searches.clear()
            plan_initial_route(sim, vehicle, now)
            routes = sim.network.route_choices(*pair)
            if routes is None:
                assert searches == [pair]
                plans["searched"] += 1
            else:
                assert searches == []
                plans["forced" if len(routes) == 1 else "priced"] += 1
            assert [link_id for link_id, _ in vehicle.plan] == list(route or ())

        monkeypatch.setattr(routing, "shortest_paths", counted_search)
        monkeypatch.setattr(SimState, "_plan_initial_route", planned)
        for sim in sweep_and_transfer_sims(testbed) + [grid_sim(tmp_path)]:
            sim.run()
        assert plans["forced"] > 1000 and plans["priced"] > 100, plans
        assert plans["searched"] > 50, plans


class TestConservation:
    def test_counts_return_to_zero(self, testbed):
        # background carpool entries have no vehicle and so no exit: they
        # must not count as in flight
        config = scenario(2.0, {(0, 2): 50.0, (0, 3): 30.0, (1, 3): 40.0},
                          unused_capacity=0.25)
        sim = SimState(config, testbed, seed=3)
        sim.run(horizon=10.0)  # past the 2 h demand, so all arrive
        report = sim.build_report()
        assert sim.lanes[2, LaneClass.CARPOOL].background > 0
        assert len(sim.lanes) == 2 * len(testbed.links)
        for lane in sim.lanes.values():
            assert lane.in_flight == 0
        finished = [o for o in report.outcomes if o.arrival is not None]
        assert len(finished) == len(report.outcomes)

    def test_exit_without_entry_names_link(self, testbed):
        lane = simulation.Lane(dataclasses.replace(testbed.link(3), id=7),
                               LaneClass.GENERAL)
        lane.record_entry(0.0, background=False)
        lane.record_exit()
        lane.record_entry(0.1, background=True)  # never in flight
        with pytest.raises(SimulationError, match="link 7: exit without entry"):
            lane.record_exit()
        # an arrival on a lane no vehicle entered is caught the same way
        sim = empty_sim(testbed)
        vehicle = simulation.Vehicle(regular(0, 0, 3, t=0.0))
        with pytest.raises(SimulationError, match="link 3: exit without entry"):
            sim._handle_arrive((vehicle, sim.lanes[3, LaneClass.GENERAL]), 0.0)


class QueuedArrivals(SimState):
    """A reference event loop that queues every arrival: a regular driver's
    trip ends when its arrival at its destination is handled, as a
    ridesharing driver's does, and every vehicle on a link is in flight.
    Its entries go through ``lane_delay`` and ``Lane.record_entry``."""

    def enter_link(self, vehicle, link_id, now):
        lane, carpool = self.link_lanes[link_id]
        delay = self.lane_delay(lane, now)
        if lane.link.has_carpool_lane and vehicle.aboard:
            carpool_delay = self.lane_delay(carpool, now)
            if carpool_delay < delay:
                lane, delay = carpool, carpool_delay
        lane.record_entry(now, background=False)
        if vehicle.departure_time is None:
            vehicle.departure_time = now
        vehicle.node = lane.link.to_node
        vehicle.link_arrival_time = now + delay
        self.push_event(now + delay, EV_ARRIVE_NODE, (vehicle, lane))

    def _drive(self, vehicle, now):
        next_link = self.vehicle_at_node(vehicle, vehicle.node, now)
        if next_link is not None:
            self.enter_link(vehicle, next_link, now)
        elif not vehicle.stranded:
            vehicle.arrival_time = now


def differential_configs(tmp_path) -> dict:
    """The bundled validation at 2 h, the sweep at 1.5 h at full and at 25%
    unused carpool capacity, and the CI grid (1.5 h), by name."""
    validation = load_config(bundled_data_path("validation.yaml"), {"horizon": 2.0})
    sweep = load_config(bundled_data_path("sweep.yaml"), {"horizon": 1.5})
    return {"validation": validation, "sweep-1.0": sweep,
            "sweep-0.25": dataclasses.replace(sweep, unused_capacity=0.25),
            "grid": load_config(write_grid(tmp_path), {"seed": 5})}


class TestUnqueuedLastArrival:
    """A regular driver's trip ends when it enters its last link: no
    arrival is queued at its destination (``SimState.enter_link``), and
    ``build_report`` reads the arrival only once a run has reached it."""

    @staticmethod
    def assert_alike(sim: SimState, reference: QueuedArrivals) -> None:
        assert sim.build_report() == reference.build_report()
        assert sim.validation_counts() == reference.validation_counts()
        assert sim.rider_summary() == reference.rider_summary()
        assert sim.match_trace == reference.match_trace
        for key, lane in sim.lanes.items():
            other = reference.lanes[key]
            assert (lane.total, lane.background, lane.entries) == \
                   (other.total, other.background, other.entries), key
        assert sim.vehicles.keys() == reference.vehicles.keys()
        limit = sim.run_limit
        for agent_id, vehicle in sim.vehicles.items():
            other = reference.vehicles[agent_id]
            arrival = vehicle.arrival_time
            censored = arrival if arrival is not None and arrival <= limit else None
            assert (vehicle.departure_time, vehicle.stranded, censored) == \
                   (other.departure_time, other.stranded, other.arrival_time), agent_id

    @pytest.mark.parametrize("name", ["validation", "sweep-1.0", "sweep-0.25", "grid"])
    @pytest.mark.parametrize("split", [False, True])
    def test_matches_queued_arrivals(self, tmp_path, name, split):
        """To the full horizon, or to mid-run and then on with a second
        ``run()``, the run reports, counts, matches and times every trip as
        the reference that queues every arrival does, with fewer pushes."""
        config = differential_configs(tmp_path)[name]
        network = config.make_network()
        sim = SimState(config, network, config.seed)
        reference = QueuedArrivals(config, network, config.seed)
        if split:
            for state in (sim, reference):
                state.run(config.horizon / 2)
            self.assert_alike(sim, reference)
        for state in (sim, reference):
            state.run()
        self.assert_alike(sim, reference)
        assert any(v.arrival_time is not None for v in reference.vehicles.values())
        assert sim._seq < reference._seq
        if name == "validation":
            # nearly every validation trip is one link: its only arrival went
            assert sim._seq - len(sim.population) < (reference._seq - len(sim.population)) / 4

    def test_arrival_after_the_horizon_is_censored(self, testbed):
        """A regular driver whose last link ends after the horizon has no
        arrival in the report and stays out of the mean travel time; a
        later run past its arrival reports exactly its entry plus the
        link's delay, and one to exactly that time reports it too, as the
        popped arrival was."""
        runs = {}
        for cls in (SimState, QueuedArrivals):
            sim = cls(scenario(4.0, {(0, 2): 0.0}), testbed, seed=1)
            delay = volume_delay(testbed.link(0), LaneClass.GENERAL, 0.0,
                                 sim.bpr_alpha, sim.bpr_beta)
            seed_agent(sim, regular(0, 0, 3, t=0.0))
            seed_agent(sim, regular(1, 0, 3, t=3.7))  # link 0 ends at 3.7 + delay > 4
            sim.run()
            report = sim.build_report()
            assert [o.arrival for o in report.outcomes] == [delay, None]
            assert report.outcomes[1].departure == 3.7
            assert report.mean_travel_time() == delay
            sim.run(3.7 + delay - 1e-9)
            assert sim.build_report().outcomes[1].arrival is None
            sim.run(3.7 + delay)
            runs[cls] = sim.build_report()
            assert runs[cls].outcomes[1].arrival == 3.7 + delay
            sim.run(4.0)  # an earlier horizon takes back no arrival
            assert sim.build_report() == runs[cls]
        assert runs[SimState] == runs[QueuedArrivals]
        assert runs[SimState].mean_travel_time() == pytest.approx(delay)


class TestDeterminism:
    def test_identical_runs(self, testbed):
        config = scenario(3.0, {(0, 2): 80.0, (1, 3): 60.0}, (0.1, 0.4, 0.5))

        def run_once():
            sim = SimState(config, testbed, seed=11)
            sim.run(horizon=6.0)
            return sim

        sim_a, sim_b = run_once(), run_once()
        assert sim_a.validation_counts() == sim_b.validation_counts()
        a, b = sim_a.build_report(), sim_b.build_report()
        assert a.link_class_counts == b.link_class_counts
        assert [(o.agent_id, o.departure, o.arrival) for o in a.outcomes] == \
               [(o.agent_id, o.departure, o.arrival) for o in b.outcomes]
        assert a.riders == b.riders


class TestRidesharing:
    def test_rider_matched_and_carried(self, testbed):
        sim = empty_sim(testbed, horizon=6.0)
        seed_agent(sim, rideshare(0, 0, 2, t=0.0, fft=0.72))
        seed_agent(sim, rider(1, 0, 2, t=0.0, fft=0.72))
        sim.run()
        report = sim.build_report()
        assert sim.match_results[1].matched
        assert report.riders.committed == 1
        outcome = next(o for o in report.outcomes if o.agent_id == 1)
        assert outcome.matched is True
        assert outcome.departure is not None
        assert outcome.arrival is not None
        # at equal class delays the tie keeps the general lanes
        assert report.link_class_counts[(2, LaneClass.GENERAL)] == 1

    def test_hov_vehicle_takes_faster_carpool_lane(self, testbed):
        sim = empty_sim(testbed, horizon=6.0)
        seed_agent(sim, rideshare(0, 0, 2, t=0.0, fft=0.72))
        seed_agent(sim, rider(1, 0, 2, t=0.0, fft=0.72))
        # congest link 2's general lanes so the carpool class is faster
        general = sim.lanes[2, LaneClass.GENERAL].entries
        for _ in range(3000):
            general.append(0.0)
        sim.run()
        report = sim.build_report()
        assert sim.match_results[1].matched
        assert report.link_class_counts[(2, LaneClass.CARPOOL)] == 1

    def test_solo_rideshare_driver_never_uses_carpool(self, testbed):
        sim = empty_sim(testbed, horizon=6.0)
        seed_agent(sim, rideshare(0, 0, 2, t=0.0, fft=0.72))
        general = sim.lanes[2, LaneClass.GENERAL].entries
        for _ in range(3000):
            general.append(0.0)
        sim.run()
        report = sim.build_report()
        assert report.link_class_counts[(2, LaneClass.CARPOOL)] == 0
        assert report.link_class_counts[(2, LaneClass.GENERAL)] == 1

    def test_matching_called_once_per_rider(self, testbed, monkeypatch):
        calls = []
        original = simulation.match_rider

        def counting(sim, request):
            calls.append((request.id, sim.clock))
            return original(sim, request)

        monkeypatch.setattr(simulation, "match_rider", counting)
        sim = empty_sim(testbed, horizon=6.0)
        seed_agent(sim, rideshare(0, 0, 2, t=0.0, fft=0.72))
        seed_agent(sim, rider(1, 0, 2, t=0.05, fft=0.72))
        seed_agent(sim, rider(2, 0, 2, t=0.10, fft=0.72))
        sim.run()
        assert sorted(c[0] for c in calls) == [1, 2]
        for rider_id, at in calls:
            assert at == pytest.approx(sim.agents[rider_id].request_time)

    def test_unmatched_rider_falls_back(self, testbed):
        sim = empty_sim(testbed, horizon=6.0)
        seed_agent(sim, rider(1, 0, 2, t=0.0, fft=0.72))
        sim.run()
        report = sim.build_report()
        assert not sim.match_results[1].matched
        assert report.riders.committed == 0
        # the fallback drives the same trip like any regular driver
        assert sim.validation_counts() == {0: 0, 1: 1, 2: 1, 3: 0}
        [outcome] = [o for o in report.outcomes if o.agent_id != 1]
        assert outcome.role is Role.REGULAR_DRIVER
        assert outcome.arrival is not None

    def test_tight_windows_zero_match_rate_baseline_flows(self, testbed):
        sim = empty_sim(testbed, horizon=8.0)
        seed_agent(sim, rideshare(0, 0, 2, t=0.0, fft=0.72))
        # window admits no path at all: latest arrival before any traversal
        tight = VehicleAgent(
            id=1, role=Role.RIDER, origin=0, destination=2, request_time=0.2,
            window=TimeWindow(0.2, 0.2, 0.21, 0.21),
        )
        seed_agent(sim, tight)
        sim.run()
        report = sim.build_report()
        assert report.riders.match_rate == 0.0
        # driver's own trip plus the fallback's two links
        assert sim.validation_counts() == {0: 0, 1: 2, 2: 2, 3: 0}

    def test_capacity_respected(self, testbed):
        sim = empty_sim(testbed, horizon=6.0)
        seed_agent(sim, rideshare(0, 0, 2, t=0.0, fft=0.72, seats=1))
        seed_agent(sim, rider(1, 0, 2, t=0.0, fft=0.72))
        seed_agent(sim, rider(2, 0, 2, t=0.05, fft=0.72))
        sim.run()
        assert sim.match_results[1].matched
        assert not sim.match_results[2].matched
        vehicle = sim.vehicles[0]
        assert vehicle.arrival_time is not None

    def test_transfer_across_two_drivers(self, testbed):
        sim = transfer_sim(testbed)
        sim.run()
        report = sim.build_report()
        assert sim.match_results[2].matched
        legs = sim.match_results[2].itinerary.legs
        assert [leg.driver for leg in legs] == [0, 1]
        outcome = next(o for o in report.outcomes if o.agent_id == 2)
        assert outcome.arrival is not None

    def test_matched_itinerary_honors_rider_window(self, testbed):
        sim = empty_sim(testbed, horizon=6.0)
        seed_agent(sim, rideshare(0, 0, 2, t=0.0, fft=0.72))
        seed_agent(sim, rider(1, 0, 2, t=0.0, fft=0.72))
        sim.run()
        itinerary = sim.match_results[1].itinerary
        window = sim.agents[1].window
        assert itinerary.legs[0].board_step >= ceil_steps(
            window.earliest_departure, sim.dt)
        assert itinerary.legs[-1].alight_step <= ceil_steps(
            window.latest_arrival, sim.dt)

    def test_driver_window_respected_by_detour(self, testbed):
        # driver 0->3 direct with zero flexibility cannot detour via node 1
        sim = empty_sim(testbed, horizon=6.0)
        seed_agent(sim, rideshare(0, 0, 3, t=0.0, fft=0.55, flex=0.0))
        seed_agent(sim, rider(1, 0, 1, t=0.0, fft=0.22, flex=0.3))
        sim.run()
        assert not sim.match_results[1].matched


class TestRiderSummary:
    # (riders, committed, delivered, on time) of the three sweep
    # replications, the transfer run and the grid run, counted from their
    # match results and drop-off times apart from the summary
    COUNTS = [(129, 65, 59, 53), (124, 55, 51, 46), (139, 62, 55, 52), (1, 1, 1, 1),
              (104, 92, 71, 71)]

    def test_counts_of_pinned_runs(self, testbed, tmp_path):
        """The sweep, transfer and grid runs' summaries are their known
        counts: unmatched riders' fallback drivers are no riders, some
        committed riders are not yet dropped off at the horizon, and some
        are dropped off late."""
        summaries = []
        for sim in sweep_and_transfer_sims(testbed) + [grid_sim(tmp_path)]:
            sim.run()
            summaries.append(sim.rider_summary())
            assert sim.build_report().riders == summaries[-1]
        assert summaries == [RiderSummary(*counts) for counts in self.COUNTS]

    def test_on_time_within_tolerance(self, testbed):
        """A drop-off 0.5e-9 h after the rider's latest arrival is on time,
        one 2e-9 h after is late; a rider with no match result or no
        drop-off is neither committed nor delivered."""
        assert ON_TIME_TOLERANCE == 1e-9
        sim = empty_sim(testbed)
        for agent_id in range(4):
            sim.agents[agent_id] = rider(agent_id, 0, 2, t=0.0, fft=0.72)
        sim.agents[4] = regular(4, 0, 2, t=0.0)
        latest = sim.agents[0].window.latest_arrival
        for agent_id, late in ((0, 0.5e-9), (1, 2e-9)):
            sim.match_results[agent_id] = MatchResult(True)
            sim.rider_alight_time[agent_id] = latest + late
        sim.match_results[2] = MatchResult(False, reason="infeasible")
        summary = sim.rider_summary()
        assert summary == RiderSummary(riders=4, committed=2, delivered=2, on_time=1)
        assert summary.match_rate == 0.5
        assert RiderSummary(0, 0, 0, 0).match_rate == 0.0


class TestInitSimulation:
    def test_default_config_ready_to_run(self, testbed, monkeypatch):
        config = load_config(bundled_data_path("validation.yaml"))
        sim = init_simulation(config, testbed, seed=7)
        assert sim.clock == 0.0
        # every generated agent's entry is scheduled, in (time, id) order,
        # and the heap is empty: the validation has no background load
        population = sim.population
        assert len(population) == len(sim.agents) > 1000
        assert [agent.id for agent in population] == list(range(len(population)))
        assert [a.request_time for a in population] == sorted(a.request_time for a in population)
        assert sim.events == [] and sim._seq == len(population)
        handled = handled_as_one_heap(sim, init_simulation(config, testbed, seed=7),
                                      monkeypatch, horizon=2.0)
        assert {kind for _, kind, _ in handled} == {EV_AGENT_ENTER, EV_ARRIVE_NODE}

    @pytest.mark.parametrize("unused", [1.0, 0.25])
    def test_initial_events_pop_as_pushed(self, testbed, monkeypatch, unused):
        """Scheduled entries beside the heap are handled in the order one
        heap of every push gives, with riders, drivers, holds and background
        load."""
        config = scenario(4.0, {(0, 2): 100.0, (1, 2): 200.0}, (0.1, 0.4, 0.5),
                          unused_capacity=unused)
        sim = SimState(config, testbed, seed=2)
        assert len(sim.population) == len(sim.agents) > 100
        # only the background load is queued, after every entry's seq
        assert all(kind == EV_BACKGROUND and seq >= len(sim.agents)
                   for _, seq, kind, _ in sim.events)
        assert bool(sim.events) == (unused < 1.0)
        handled = handled_as_one_heap(sim, SimState(config, testbed, seed=2), monkeypatch)
        kinds = {kind for _, kind, _ in handled}
        assert kinds == {EV_AGENT_ENTER, EV_ARRIVE_NODE, EV_DEPART_NODE} | (
            {EV_BACKGROUND} if unused < 1.0 else set())
        assert any(result.matched for result in sim.match_results.values())

    def test_entry_tied_with_background_and_fallback(self, testbed, monkeypatch):
        """At one time, scheduled entries go before a queued background
        event and an unmatched rider's fallback entry: an entry's seq is its
        id, below every pushed seq."""
        agents = (rider(0, 0, 2, t=0.5, fft=0.72), regular(1, 0, 2, t=0.5),
                  regular(2, 1, 2, t=0.7))
        monkeypatch.setattr(simulation, "generate_agents", lambda *args: agents)

        def tied():
            sim = empty_sim(testbed)
            sim.push_event(0.5, EV_BACKGROUND, 2)
            return sim

        handled = handled_as_one_heap(tied(), tied(), monkeypatch)
        assert handled[:4] == [(0.5, EV_AGENT_ENTER, 0), (0.5, EV_AGENT_ENTER, 1),
                               (0.5, EV_BACKGROUND, 2), (0.5, EV_AGENT_ENTER, 3)]
        assert (0.7, EV_AGENT_ENTER, 2) in handled

    def test_resumed_run_equals_one_run(self, testbed, tmp_path):
        config = scenario(4.0, {(0, 2): 100.0, (1, 2): 200.0}, (0.1, 0.4, 0.5),
                          unused_capacity=0.25)
        whole = SimState(config, testbed, seed=2)
        whole.run()
        split = SimState(config, testbed, seed=2)
        split.run(horizon=1.3)
        assert 0 < split._next_scheduled < len(split.population)
        split.run()
        assert split.build_report() == whole.build_report()
        for name, sim in (("whole", whole), ("split", split)):
            write_sim_report(sim.build_report(), tmp_path / name, config.fingerprint(), 2)
        written = sorted(path.name for path in (tmp_path / "whole").iterdir())
        assert "match_trace.csv" in written
        assert sorted(path.name for path in (tmp_path / "split").iterdir()) == written
        for name in written:
            assert (tmp_path / "split" / name).read_bytes() == \
                (tmp_path / "whole" / name).read_bytes(), name

    def test_match_trace_collected(self, testbed):
        sim = empty_sim(testbed, horizon=6.0)
        seed_agent(sim, rideshare(0, 0, 2, t=0.0, fft=0.72))
        seed_agent(sim, rider(1, 0, 2, t=0.0, fft=0.72))
        sim.run()
        report = sim.build_report()
        assert len(report.match_trace) == 1
        row = report.match_trace[0]
        assert row["rider_id"] == 1
        assert row["matched"] is True
        assert row["travel_arcs"] > 0


class TestPopulation:
    """A population handed to a replication is shared, not copied, so the
    sweep may hand one to every level of a replication index only because
    no run writes to an agent ("Determinism" in ``ridesim.simulation``)."""

    @staticmethod
    def run_keeps_population(sim: SimState) -> None:
        drawn = copy.deepcopy(sim.population)
        sim.run()
        assert sim.population == drawn

    @pytest.mark.parametrize("unused", [1.0, 0.25])
    def test_sweep_run_writes_no_agent(self, unused):
        config = load_config(bundled_data_path("sweep.yaml"),
                             {"horizon": 1.5, "unused_capacity": unused})
        sim = SimState(config, config.make_network(), config.seed)
        self.run_keeps_population(sim)
        assert any(result.matched for result in sim.match_results.values())
        assert len(sim.agents) > len(sim.population)  # unmatched riders' fallbacks

    def test_grid_run_writes_no_agent(self, tmp_path):
        sim = grid_sim(tmp_path)
        self.run_keeps_population(sim)
        assert any(len(result.itinerary.legs) > 1
                   for result in sim.match_results.values() if result.matched)

    def test_handed_population_is_held_and_runs_as_drawn(self):
        config = load_config(bundled_data_path("sweep.yaml"),
                             {"horizon": 1.0, "unused_capacity": 0.25})
        network = config.make_network()
        drawn = SimState(config, network, config.seed)
        given = SimState(config, network, config.seed, drawn.population)
        assert given.population is drawn.population
        assert given.events == drawn.events  # the background load, from the seed
        drawn.run()
        given.run()
        assert given.build_report() == drawn.build_report()


class TestMatchRetry:
    def test_commit_failure_reports_capacity(self, testbed):
        sim = empty_sim(testbed, horizon=6.0)
        seed_agent(sim, rideshare(0, 0, 2, t=0.0, fft=0.72))
        sim.run(horizon=0.0)  # process the driver's entry only

        commits = []
        original = sim.commit_itinerary
        sim.commit_itinerary = lambda req, it, tau, clock_step: commits.append(1) or False

        agent = rider(1, 0, 2, t=0.0, fft=0.72)
        request = RiderRequest(1, 0, 2, agent.window, 0.0)
        result = match_rider(sim, request)
        assert not result.matched
        assert result.reason == "capacity"
        assert len(commits) == 1  # no retry: it would replay the same instant
        assert len(sim.match_trace) == 1
        assert sim.match_trace[0]["matched"] is False
        sim.commit_itinerary = original

    def test_commit_accepts_every_solved_itinerary(self, testbed):
        solved = 0
        for sim in sweep_and_transfer_sims(testbed):
            sim.run()
            for row in sim.match_trace:
                if row["dp_cost"] is not None:
                    solved += 1
                    assert row["matched"] is True, row
        assert solved > 50


class TestCommitRejections:
    """Each way ``commit_itinerary`` refuses a hand-built itinerary, on a live
    simulation at free flow (link steps 0->1: 5, 1->2: 10), leaving every
    driver's plan and the event queue as they were."""

    @staticmethod
    def plans(sim):
        drivers = {
            agent_id: (list(v.pins), list(v.plan), id(v.plan), v.plan_pos)
            for agent_id, v in sim.vehicles.items()
            if isinstance(v, simulation.RideshareVehicle)
        }
        return drivers, list(sim.events)

    @staticmethod
    def commit(sim, rider_id, *legs):
        agent = rider(rider_id, legs[0][1], legs[-1][3], t=sim.clock, fft=0.72)
        request = RiderRequest(rider_id, agent.origin, agent.destination,
                               agent.window, agent.request_time)
        itinerary = Itinerary(tuple(ItineraryLeg(*leg) for leg in legs), 0.0, 0)
        tau = sim.matching_steps()
        assert (tau[1], tau[2]) == (5, 10)
        return sim.commit_itinerary(request, itinerary, tau, ceil_steps(sim.clock, sim.dt))

    def assert_refused(self, sim, rider_id, *legs):
        before = self.plans(sim)
        assert self.commit(sim, rider_id, *legs) is False
        assert self.plans(sim) == before

    def test_second_leg_driver_without_offer(self, testbed):
        sim = empty_sim(testbed, horizon=6.0)
        seed_agent(sim, rideshare(0, 0, 1, t=0.0, fft=0.22, flex=2.0))
        seed_agent(sim, rideshare(1, 1, 2, t=0.0, fft=0.5, flex=0.0))
        sim.run(horizon=0.6)  # driver 1 arrives at 0.5 h; driver 0 still waits
        arrived, waiting = sim.vehicles[1], sim.vehicles[0]
        assert arrived.arrival_time is not None
        assert waiting.arrival_time is None and not waiting.stranded
        first = (0, 0, 12, 1, 17)
        self.assert_refused(sim, 9, first, (1, 1, 17, 2, 27))
        assert self.commit(sim, 9, first) is True  # the first leg alone fits

    def test_driver_never_indexed(self, testbed):
        # a regular driver with seats: everything but the index would fit
        sim = empty_sim(testbed, horizon=6.0)
        seed_agent(sim, dataclasses.replace(regular(0, 0, 2, t=0.0), seats=4))
        sim.run(horizon=0.0)  # the driver is on link 0->1 until step 5
        vehicle = sim.vehicles[0]
        assert vehicle.arrival_time is None and not vehicle.stranded
        assert 0 not in sim._offer_index
        self.assert_refused(sim, 9, (0, 1, 5, 2, 15))

    def test_seat_overflow(self, testbed):
        sim = empty_sim(testbed, horizon=6.0)
        seed_agent(sim, rideshare(0, 0, 2, t=0.0, fft=0.72, seats=1))
        sim.run(horizon=0.0)
        assert self.commit(sim, 8, (0, 0, 0, 2, 15)) is True
        self.assert_refused(sim, 9, (0, 0, 0, 2, 15))

    def test_stop_no_path_reaches(self, testbed):
        sim = empty_sim(testbed, horizon=6.0)
        seed_agent(sim, rideshare(0, 0, 2, t=0.0, fft=0.72))
        sim.run(horizon=0.0)
        self.assert_refused(sim, 9, (0, 2, 15, 3, 18))  # node 2 has no way out

    def test_stop_reached_after_its_step(self, testbed):
        sim = empty_sim(testbed, horizon=6.0)
        seed_agent(sim, rideshare(0, 0, 2, t=0.0, fft=0.72))
        sim.run(horizon=0.0)
        self.assert_refused(sim, 9, (0, 1, 4, 2, 14))  # node 1 is 5 steps away


class TestStaleHold:
    def test_hold_for_a_replaced_plan_does_nothing(self, testbed):
        """A hold queued for a plan that a commit has since replaced is
        dropped when it comes due: the vehicle stays where its new plan
        has it, and nothing is queued. The commit hands the driver to
        ``_advance``, which queues the hold for the new plan at its first
        entry step; that hold moves it. Once the driver is on a link, the
        stale hold still does nothing."""
        sim = empty_sim(testbed, horizon=6.0)
        seed_agent(sim, rideshare(0, 0, 2, t=0.0, fft=0.72))
        sim.run(horizon=0.0)  # the driver holds at its origin
        vehicle = sim.vehicles[0]
        (hold_time, _, _, stale), = sim.events
        assert hold_time > 0 and stale[0] is vehicle and stale[1] is vehicle.plan
        # the rider boards at step 2: the driver holds at its origin until then
        assert TestCommitRejections.commit(sim, 9, (0, 0, 2, 2, 17)) is True
        plan, queued = vehicle.plan, list(sim.events)
        assert plan is not stale[1] and len(queued) == 2
        (new_time, _, kind, current), = (event for event in queued if event[3] is not stale)
        assert kind == EV_DEPART_NODE and new_time == plan[0][1] * sim.dt == 2 * sim.dt
        assert current[0] is vehicle and current[1] is plan
        sim._handle_depart(stale, hold_time)
        assert sim.events == queued
        assert vehicle.node == 0 and vehicle.plan is plan and vehicle.plan_pos == 0
        sim._handle_depart(current, new_time)
        assert vehicle.plan_pos == 1 and len(sim.events) == 3
        assert vehicle.link_arrival_time is not None and vehicle.aboard == {9}
        sim._handle_depart(stale, hold_time)
        assert len(sim.events) == 3 and vehicle.plan_pos == 1

    @pytest.mark.parametrize("state", ["on a link", "arrived", "stranded"])
    def test_hold_for_the_current_plan_off_its_node_raises(self, testbed, state):
        """A hold for the vehicle's current plan was queued by ``_advance``
        while the vehicle stood at its node, and nothing moves it before the
        hold comes due: one that finds it on a link or finished is an
        error, not a hold to skip."""
        sim = empty_sim(testbed, horizon=6.0)
        seed_agent(sim, rideshare(0, 0, 2, t=0.0, fft=0.72))
        sim.run(horizon=0.0)  # the driver holds at its origin
        vehicle = sim.vehicles[0]
        (hold_time, _, _, hold), = sim.events
        assert hold[1] is vehicle.plan
        if state == "on a link":
            sim.enter_link(vehicle, vehicle.plan[0][0], 0.0)
        elif state == "arrived":
            vehicle.arrival_time = 0.0
        else:
            vehicle.stranded = True
        with pytest.raises(SimulationError, match="vehicle 0: a hold for its current plan"):
            sim._handle_depart(hold, hold_time)


def seat_free_slots(driver):
    """``driver``'s slots with a free seat that end after they start
    (s < t), from its stops and occupancies: (a, s, b, t, leave_by),
    leave_by capping the first slot of a driver not yet underway, at s once
    its latest departure step has passed."""
    stops, occupancies = driver.stops(), driver.chain()[1]
    return tuple(
        (a, s, b, t, max(driver.latest_departure_step, s)
         if slot == 0 and not driver.departed else float("inf"))
        for slot, ((a, s, _), (b, t, _)) in enumerate(zip(stops, stops[1:]))
        if occupancies[slot] < driver.seats and s < t)


def fresh_driver(sim, vehicle):
    """The ridesharing ``vehicle`` as a ``Driver`` record at the clock,
    from its current pins and riders aboard, or None when it has nothing
    left to offer: what the scan must agree with."""
    anchor_step = sim._live_anchor_step(vehicle, ceil_steps(sim.clock, sim.dt))
    if anchor_step is None:
        return None
    agent = vehicle.agent
    return Driver(agent.id, vehicle.node, agent.destination, anchor_step,
                  vehicle.latest_departure_step, vehicle.latest_arrival_step,
                  agent.seats, vehicle.pins, len(vehicle.aboard),
                  vehicle.departure_time is not None)


def grid_sim(tmp_path, seats=None) -> SimState:
    """The 4x4 grid run of the multi-leg golden test (seed 5), with
    ``demand.seats`` set to ``seats`` if given; it has not run yet."""
    path = write_grid(tmp_path)
    if seats is not None:
        raw = yaml.safe_load(path.read_text())
        raw["demand"]["seats"] = seats
        path.write_text(yaml.safe_dump(raw))
    config = load_config(path, {"seed": 5})
    return init_simulation(config, config.make_network(), config.seed)


def ten_key(ten):
    return sorted(ten.travel_arcs), ten.twins, ten.node_intervals


def test_patch_points_called_once_per_request(tmp_path, monkeypatch):
    """A wrapper set on ``simulation.match_rider``, or on one of the three
    stages ``match_rider`` looks up in ``matching``, sees every request of
    a run: each is called once per row of the match trace."""
    calls = collections.Counter()

    def counted(name, original):
        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counting

    points = [(matching, "build_time_expanded"), (matching, "preprocess"),
              (matching, "solve_itinerary"), (simulation, "match_rider")]
    for owner, name in points:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    sim = grid_sim(tmp_path)
    sim.run(horizon=1.0)
    assert len(sim.match_trace) > 10
    assert calls == {name: len(sim.match_trace) for _, name in points}


def resolved(groups, clock_step):
    """The offer index's ``groups`` as the slots they stand for at
    ``clock_step``: each free schedule's open slot (a, None, b, t, latest
    departure) by ``free_slot``'s rule, none once t <= clock_step and else
    left by the later of its latest departure and ``clock_step``; a schedule
    left with no slot dropped, the ids of groups that come to one schedule
    merged, each schedule's ids sorted."""
    schedules = {}
    for schedule, ids in groups.items():
        slots = []
        for a, s, b, t, leave_by in schedule:
            if s is None:
                if t <= clock_step:
                    continue
                s, leave_by = clock_step, max(leave_by, clock_step)
            slots.append((a, s, b, t, leave_by))
        if slots:
            schedules.setdefault(tuple(slots), []).extend(ids)
    return {schedule: sorted(ids) for schedule, ids in schedules.items()}


DENSE_SCENARIO = (Path(__file__).resolve().parent.parent
                  / "perfbench" / "scenarios" / "rideshare_dense.yaml")


class TestOfferIndex:
    def test_index_equals_full_scan(self, testbed, tmp_path, monkeypatch):
        """At every request of the sweep, transfer and grid runs, the kept
        index's groups, open slots resolved at the clock's step, are those
        of fresh offers built from every live driver's current pins, and
        build the same network; each live driver is listed under one free
        schedule, and some requests list a schedule of two or more slots;
        every live vehicle's next stop and later slots are its fresh
        offer's; the trace counts every live driver. Pins are served
        mid-route, with pins left, and those vehicles are scanned; open
        slots that resolve to no slot are among the groups."""
        requests = grouped = multi_slot = pinned = carrying = served_mid_route = evicted = 0
        open_slots = closed_open_slots = 0
        riders = []
        match = simulation.match_rider
        serve = SimState._serve_pins

        def recording(sim, rider):
            riders.append(rider)
            return match(sim, rider)

        def serving(sim, vehicle, node, now):
            nonlocal served_mid_route
            before = vehicle.pins
            serve(sim, vehicle, node, now)
            served_mid_route += vehicle.pins != before and len(vehicle.pins) > 0

        monkeypatch.setattr(simulation, "match_rider", recording)
        monkeypatch.setattr(SimState, "_serve_pins", serving)
        for sim in sweep_and_transfer_sims(testbed) + [grid_sim(tmp_path)]:
            indexed = sim.collect_offers
            live = {}

            def checked(clock_step, sim=sim, indexed=indexed, live=live):
                nonlocal requests, grouped, multi_slot, pinned, carrying, open_slots, \
                    closed_open_slots
                assert clock_step == ceil_steps(sim.clock, sim.dt)
                # only indexed drivers are marked: the scan asks no evicted one
                assert sim._marked.keys() <= sim._offer_index.keys()
                groups = indexed(clock_step)
                full = []
                for agent_id in sorted(sim.vehicles):
                    vehicle = sim.vehicles[agent_id]
                    if vehicle.agent.role is Role.RIDESHARE_DRIVER:
                        # an evicted vehicle is asked too
                        offer = fresh_driver(sim, vehicle)
                        if offer is None:
                            continue
                        full.append(offer)
                        assert free_slots(offer) == seat_free_slots(offer), offer
                        assert vehicle.next_stop == offer.stops()[1][:2], offer
                        assert vehicle.later_slots == offer.chain()[2], offer
                        pinned += len(offer.pins) > 0
                        carrying += len(offer.pins) > 0 and offer.aboard > 0
                # each indexed driver is listed under one key, and each
                # driver with a free slot is listed; the groups, resolved at
                # the clock's step, are the full scan's
                listed = collections.Counter(i for ids in groups.values() for i in ids)
                assert set(listed.values()) <= {1}
                assert listed.keys() <= sim._offer_index.keys()
                assert {offer.id for offer in full if free_slots(offer)} <= listed.keys()
                assert resolved(groups, clock_step) == slot_groups(full)
                multi_slot += any(len(schedule) > 1 for schedule in groups)
                for a, s, b, t, _ in (slot for schedule in groups for slot in schedule):
                    open_slots += s is None
                    closed_open_slots += s is None and t <= clock_step
                rider = riders[-1]
                tau = sim.matching_steps()
                assert ten_key(build_time_expanded(rider, groups, sim.network, tau, sim.dt,
                                                   clock_step=clock_step)) \
                    == ten_key(build_time_expanded(rider, slot_groups(full), sim.network,
                                                   tau, sim.dt)), rider
                live[rider.id] = len(full)
                requests += 1
                grouped += sum(map(len, groups.values()))
                return groups

            sim.collect_offers = checked
            sim.run()
            # the trace's offers is the full scan's count
            assert {row["rider_id"]: row["offers"] for row in sim.match_trace} == live
            rideshare = sum(v.agent.role is Role.RIDESHARE_DRIVER
                            for v in sim.vehicles.values())
            evicted += rideshare - len(sim._offer_index)
        assert requests > 50
        assert grouped > requests and multi_slot > 0
        assert pinned > requests and carrying > requests
        assert served_mid_route > 100
        assert evicted > 0
        assert open_slots > requests and closed_open_slots > 0

    def test_scan_asks_only_marked_and_due_drivers(self, monkeypatch):
        """Each scan asks ``_live_anchor_step`` no more often than there
        are drivers marked since the last scan (``_moved``) and latest
        arrivals it pops from its heap. Over a ``rideshare-dense`` run the
        scans ask at most 30% as often as a walk of the whole index at
        every request would visit a driver."""
        config = load_config(DENSE_SCENARIO)
        sim = init_simulation(config, config.make_network(), config.seed)
        asked = scans = walked = total = 0
        ask = SimState._live_anchor_step

        def counting(sim, vehicle, clock_step):
            nonlocal asked
            asked += 1
            return ask(sim, vehicle, clock_step)

        monkeypatch.setattr(SimState, "_live_anchor_step", counting)
        scan = sim.collect_offers

        def bounded(clock_step):
            nonlocal asked, scans, walked, total
            # the scan pops every entry whose latest arrival the clock passed
            due = len(sim._marked) + sum(latest < sim.clock for latest, _ in sim._deadlines)
            walked += len(sim._offer_index)
            assert sim._marked.keys() <= sim._offer_index.keys()
            asked = 0
            groups = scan(clock_step)
            assert asked <= due
            scans += 1
            total += asked
            return groups

        sim.collect_offers = bounded
        sim.run()
        assert scans == len(sim.match_trace) > 100
        assert 0 < total <= 0.3 * walked

    def test_driver_holding_past_latest_arrival_leaves_on_time(self):
        """Driver 0's latest departure step, 7 (0.35 h), lies after its own
        latest arrival, 0.32 h, so it holds at its origin past that with no
        event between. The scan at its ``latest_arrival`` still counts it,
        and, listing it standing with a hold that ends after its latest
        arrival, puts it on the heap of latest arrivals; the scan 5e-13 h
        later, with no event in between, pops it and counts it no more
        (``collect_offers``)."""
        from conftest import make_network
        net = make_network([(0, 1, 0.01), (1, 0, 0.01)])
        sim = SimState(scenario(2.0, {(0, 1): 0.0}), net, seed=1)
        driver = rideshare(0, 0, 1, t=0.0, fft=0.01, flex=0.31)
        latest_arrival = driver.window.latest_arrival
        seed_agent(sim, driver)
        seed_agent(sim, rider(1, 1, 0, t=latest_arrival, fft=0.01))
        seed_agent(sim, rider(2, 1, 0, t=latest_arrival + 5e-13, fft=0.01))
        sim.run()
        vehicle = sim.vehicles[0]
        assert vehicle.departure_time == 7 * sim.dt > latest_arrival + 5e-13
        assert [row["request_time"] for row in sim.match_trace] == [
            latest_arrival, latest_arrival + 5e-13]
        assert [row["offers"] for row in sim.match_trace] == [1, 0]
        assert sim.live_drivers == 0

    def test_commit_runs_no_search(self, testbed, tmp_path, monkeypatch):
        """A commit routes each driver along the step matrix's paths: no
        ``dijkstra_route`` call happens while one runs, on the sweep,
        transfer and grid runs, and accepted commits are among them."""
        committing = False
        commits = accepted = 0
        search = simulation.dijkstra_route
        commit = SimState.commit_itinerary

        def guarded_search(*args):
            assert not committing, "a commit searched for a route"
            return search(*args)

        def watched(sim, rider, itinerary, tau, clock_step):
            nonlocal committing, commits, accepted
            committing = True
            try:
                ok = commit(sim, rider, itinerary, tau, clock_step)
            finally:
                committing = False
            commits += 1
            accepted += ok
            return ok

        monkeypatch.setattr(simulation, "dijkstra_route", guarded_search)
        monkeypatch.setattr(SimState, "commit_itinerary", watched)
        for sim in sweep_and_transfer_sims(testbed) + [grid_sim(tmp_path)]:
            sim.run()
        assert commits > 100 and accepted > 0

    def test_commit_builds_one_chain_per_leg(self, testbed, tmp_path, monkeypatch):
        """Each accepted commit calls ``pin_chain`` once per leg, and the
        leg's vehicle takes that chain's pins, next stop and later slots;
        every other indexed vehicle keeps its own. Pin-free and multi-leg
        commits are among them."""
        commits = pin_free = multi_leg = 0
        chains = []

        def recorded(driver, pins, *args):
            chain = pin_chain(driver, pins, *args)
            chains.append((driver, pins, chain))
            return chain

        def stored(vehicle):
            return vehicle.pins, vehicle.next_stop, vehicle.later_slots

        monkeypatch.setattr(simulation, "pin_chain", recorded)
        for sim in (transfer_sim(testbed), grid_sim(tmp_path)):
            def checked(rider, itinerary, tau, clock_step, sim=sim,
                        commit=sim.commit_itinerary):
                nonlocal commits, pin_free, multi_leg
                drivers = [leg.driver for leg in itinerary.legs]
                others = {agent_id: stored(vehicle)
                          for agent_id, vehicle in sim._offer_index.items()
                          if agent_id not in drivers}
                pin_free += any(not sim.vehicles[d].pins for d in drivers)
                at_node = [sim.vehicles[d] for d in drivers
                           if sim.vehicles[d].link_arrival_time is None]
                chains.clear()
                # the drivers as phase two leaves them, before any serves
                # a pin or moves on (which builds chains of its own)
                with advances_held(sim) as handed:
                    assert commit(rider, itinerary, tau, clock_step) is True
                    assert [driver for driver, _, _ in chains] == drivers, itinerary
                    for driver, pins, (stops, _, later) in chains:
                        assert stored(sim.vehicles[driver]) == (pins, stops[0][:2], later)
                    assert all(stored(sim._offer_index[agent_id]) == before
                               for agent_id, before in others.items())
                    # each driver at its node is handed on at the clock
                    assert handed == [(vehicle, sim.clock) for vehicle in at_node]
                commits += 1
                multi_leg += len(itinerary.legs) > 1
                return True

            sim.commit_itinerary = checked
            sim.run()
        assert commits > 10 and pin_free > 0 and multi_leg > 0

    def test_zero_seat_drivers_counted_never_built(self, tmp_path, monkeypatch):
        """``demand.seats: 0`` drivers have no free slot: every live one is
        in the trace's offers, none reaches the network build, and every
        rider is infeasible."""
        sim = grid_sim(tmp_path, seats=0)
        built = []
        build = matching.build_time_expanded

        def recording(rider, slots, *args, **kwargs):
            built.extend(slots)
            return build(rider, slots, *args, **kwargs)

        monkeypatch.setattr(matching, "build_time_expanded", recording)
        live = []
        indexed = sim.collect_offers

        def counted(clock_step):
            live.append(sum(fresh_driver(sim, vehicle) is not None
                            for vehicle in sim._offer_index.values()))
            return indexed(clock_step)

        sim.collect_offers = counted
        sim.run()
        assert built == []
        assert [row["offers"] for row in sim.match_trace] == live
        assert sum(live) > len(live) > 10
        riders = [agent_id for agent_id, agent in sim.agents.items()
                  if agent.role is Role.RIDER]
        assert riders and all(sim.match_results[agent_id].reason == "infeasible"
                              for agent_id in riders)

    def test_pin_free_drivers_grouped_by_slot(self):
        """Drivers 0 and 1 wait at node 0 for node 2 with one window and
        share an open slot; driver 3, with the same window, has driven round
        the 0-1 loop, so its slot differs only in ``leave_by``; driver 2 has
        no seat and no slot, but is live. The open slots start at the
        clock's step, and hold as the clock moves on with no driver
        marked."""
        from conftest import make_network
        net = make_network([(0, 1, 0.01), (1, 0, 0.01), (0, 2, 0.5)])
        sim = SimState(scenario(2.0, {(0, 2): 0.0}), net, seed=1)
        for agent_id in (0, 1, 3):
            seed_agent(sim, rideshare(agent_id, 0, 2, t=0.0, fft=0.5))
        seed_agent(sim, rideshare(2, 0, 2, t=0.0, fft=0.5, seats=0))
        sim.run(horizon=0.0)  # the drivers enter and wait at node 0
        vehicle = sim.vehicles[3]
        sim.enter_link(vehicle, 0, 0.0)
        vehicle.link_arrival_time = None
        sim.enter_link(vehicle, 1, 0.01)
        vehicle.link_arrival_time = None  # back at node 0, now underway
        sim._moved(vehicle)  # moved by hand, not by a handler
        sim.clock = 0.03
        groups = sim.collect_offers(1)
        waiting, departed = (free_slots(fresh_driver(sim, sim._offer_index[i]))
                             for i in (0, 3))
        assert waiting[0][:4] == departed[0][:4] == (0, 1, 2, 16)
        assert departed[0][4] == float("inf") != waiting[0][4]
        assert groups == {((0, None, 2, 16, 6),): [0, 1],
                          ((0, None, 2, 16, float("inf")),): [3]}
        assert resolved(groups, 1) == {waiting: [0, 1], departed: [3]}
        assert free_slots(fresh_driver(sim, sim._offer_index[1])) == waiting
        assert free_slots(fresh_driver(sim, sim._offer_index[2])) == ()
        assert sim.live_drivers == 4
        # past the waiting drivers' latest departure step (6), their slot is
        # left by the anchor step, as their offers' first slot is
        sim.clock = 0.33
        waiting = free_slots(fresh_driver(sim, sim._offer_index[0]))
        assert waiting[0][1] == waiting[0][4] == 7
        listed = {slot: list(ids) for slot, ids in groups.items()}
        groups = sim.collect_offers(7)  # no driver was marked: nothing re-listed
        assert groups == listed
        assert resolved(groups, 7)[waiting] == [0, 1]

    def test_alight_at_destination_adds_no_empty_slot(self):
        """A vehicle at its destination whose one pin is an alight there at
        the anchor step s has stops (2, s), (2, s), (2, t): its open first
        slot resolves to none at the clock's step, so its one schedule, the
        open slot then the later slot, resolves to the later slot alone; at
        its latest arrival step (t == s) it has no slot, yet stays live in
        the index."""
        from conftest import make_network
        net = make_network([(0, 2, 0.5)])
        sim = SimState(scenario(2.0, {(0, 2): 0.0}), net, seed=1)
        agent = rideshare(0, 0, 2, t=0.0, fft=0.5)
        seed_agent(sim, agent)
        sim.run(horizon=0.0)  # the driver enters and waits at node 0
        vehicle = sim.vehicles[0]
        assert sim._offer_index[0] is vehicle
        sim.enter_link(vehicle, 0, 0.0)
        vehicle.link_arrival_time = None  # at node 2, its destination
        vehicle.aboard.add(9)
        latest_arrival_step = vehicle.latest_arrival_step

        def alight_due(now):
            sim.clock = now
            step = ceil_steps(now, sim.dt)
            pins = (Pin(2, step, "alight", 9),)
            vehicle.set_pins(pins, pin_chain(agent.id, pins, len(vehicle.aboard), agent.seats,
                                             agent.destination, latest_arrival_step))
            sim._moved(vehicle)  # pinned by hand, not by a commit
            return step

        s = alight_due(0.5)
        assert s < latest_arrival_step
        offer = fresh_driver(sim, vehicle)
        assert offer.stops() == ((2, s, False), (2, s, False),
                                 (2, latest_arrival_step, False))
        assert free_slots(offer) == seat_free_slots(offer) == vehicle.later_slots \
            == ((2, s, 2, latest_arrival_step, float("inf")),)
        groups = sim.collect_offers(s)
        assert groups == {((2, None, 2, s, float("inf")), *vehicle.later_slots): [0]}
        assert resolved(groups, s) == {vehicle.later_slots: [0]}
        assert alight_due(agent.window.latest_arrival) == latest_arrival_step
        offer = fresh_driver(sim, vehicle)
        assert offer.stops() == ((2, latest_arrival_step, False),) * 3
        assert free_slots(offer) == seat_free_slots(offer) == ()
        groups = sim.collect_offers(latest_arrival_step)
        assert groups == {((2, None, 2, latest_arrival_step, float("inf")),): [0]}
        assert resolved(groups, latest_arrival_step) == {}
        assert sim.live_drivers == 1

    def test_offer_dropped_once_past_latest_arrival(self, testbed):
        sim = empty_sim(testbed)
        agent = rideshare(0, 0, 2, t=0.0, fft=0.72)
        seed_agent(sim, agent)
        sim.run(horizon=0.0)  # the driver enters and waits at its origin
        vehicle = sim._offer_index[0]
        sim.clock = agent.window.latest_arrival
        assert fresh_driver(sim, vehicle) is not None
        # any later anchor is one the offer's own TimeWindow would reject
        sim.clock = agent.window.latest_arrival + 5e-13
        assert fresh_driver(sim, vehicle) is None


class TestVehicleRoles:
    def test_each_role_keeps_only_its_own_state(self, testbed, tmp_path, monkeypatch):
        """On the sweep, transfer and grid runs, each time a ridesharing
        vehicle's plan is set (at its entry and at each accepted commit) its
        links chain from the vehicle's node and its entry steps strictly
        increase; every regular driver's vehicle, generated or an unmatched
        rider's fallback, is a plain ``Vehicle`` whose agent has no window."""
        plans = commits = generated = fallbacks = 0
        plan_initial_route = SimState._plan_initial_route
        commit = SimState.commit_itinerary

        def check_plan(sim, vehicle):
            nonlocal plans
            assert vehicle.plan_pos == 0
            node, last_step = vehicle.node, -1
            for link_id, step in vehicle.plan:
                link = sim.network.link(link_id)
                assert link.from_node == node and step > last_step, vehicle.plan
                node, last_step = link.to_node, step
            plans += 1

        def planned(sim, vehicle, now):
            plan_initial_route(sim, vehicle, now)
            check_plan(sim, vehicle)

        def committed(sim, rider, itinerary, tau, clock_step):
            nonlocal commits
            # each plan as the commit sets it, before its driver moves on
            with advances_held(sim):
                ok = commit(sim, rider, itinerary, tau, clock_step)
                if ok:
                    commits += 1
                    for leg in itinerary.legs:
                        check_plan(sim, sim.vehicles[leg.driver])
            return ok

        monkeypatch.setattr(SimState, "_plan_initial_route", planned)
        monkeypatch.setattr(SimState, "commit_itinerary", committed)
        for sim in sweep_and_transfer_sims(testbed) + [grid_sim(tmp_path)]:
            sim.run()
            for vehicle in sim.vehicles.values():
                agent = vehicle.agent
                if agent.role is Role.RIDESHARE_DRIVER:
                    assert type(vehicle) is simulation.RideshareVehicle
                    continue
                assert type(vehicle) is simulation.Vehicle
                assert agent.window is None
                if agent.id < len(sim.population):
                    generated += 1
                else:
                    fallbacks += 1
        assert commits > 100 and plans > 1000
        assert generated > 1000 and fallbacks > 100


class TestKnownAnswerBPR:
    """The simulated BPR delay against its closed form on one link with
    Poisson entries. An entry at rate lambda sees N ~ Poisson(m), m =
    lambda * w, earlier entries in its flow window w (Poisson arrivals see
    time averages: Wolff, Operations Research 30(2), 1982), so its mean
    delay is t0 (1 + alpha E[(N / (w c))^4]) at beta = 4, with E[N^4] = m^4
    + 6 m^3 + 7 m^2 + m."""

    T0, CAPACITY, HORIZON, REPLICATIONS = 0.2, 20.0, 50.0, 20

    @pytest.mark.parametrize("v_over_c", [0.5, 1.0, 1.5])
    def test_mean_delay_matches_closed_form(self, v_over_c):
        """Regular drivers only, on one one-lane link of capacity 20 veh/h
        and free-flow time 0.2 h, over 20 replications of 50 h: the mean
        delay of the entries made after the first window lies within 4
        standard errors, taken across replications, of the closed form."""
        network = Network(nodes=(0, 1), links=(Link(
            id=0, from_node=0, to_node=1, length=self.T0 * 50.0, free_flow_time=self.T0,
            has_carpool_lane=False, general_lanes=1, lane_capacity=self.CAPACITY),))
        rate = v_over_c * self.CAPACITY
        config = scenario(self.HORIZON, {(0, 1): rate})
        w, alpha = config.flow_window, config.bpr.alpha
        assert (w, alpha, config.bpr.beta) == (0.25, 0.15, 4.0)
        m = rate * w
        expected = self.T0 * (1.0 + alpha * (m**4 + 6 * m**3 + 7 * m**2 + m)
                              / (w * self.CAPACITY) ** 4)
        means = []
        for seed in range(self.REPLICATIONS):
            sim = SimState(config, network, seed)
            sim.run(horizon=self.HORIZON + 10.0)  # every trip entered ends
            delays = [o.arrival - o.departure for o in sim.build_report().outcomes
                      if o.departure >= w]
            assert len(delays) > 200
            means.append(statistics.fmean(delays))
        error = statistics.stdev(means) / math.sqrt(len(means))
        assert abs(statistics.fmean(means) - expected) <= 4 * error, (expected, means)


class TestKnownAnswerRouteChoice:
    """Regular drivers split between two parallel links by the delay each
    sees at its entry, so the long-run share on the longer link settles
    where the two BPR delays are equal: the user equilibrium of the pair."""

    T0, CAPACITY, HORIZON, REPLICATIONS = (0.2, 0.3), 20.0, 50.0, 10

    @pytest.mark.parametrize("rate", [60.0, 80.0])
    def test_share_where_delays_equalise(self, rate):
        """Two one-lane links 0 -> 1 of free-flow time 0.2 h and 0.3 h and
        capacity 20 veh/h, demand ``rate`` veh/h over 10 replications of
        50 h: the share of entries on the longer link lies within one
        vehicle per flow window, 1 / (w rate), of the share at which the
        two links' BPR delays are equal, found by bisection."""
        network = Network(nodes=(0, 1), links=tuple(
            Link(id=i, from_node=0, to_node=1, length=t0 * 50.0, free_flow_time=t0,
                 has_carpool_lane=False, general_lanes=1, lane_capacity=self.CAPACITY)
            for i, t0 in enumerate(self.T0)))
        config = scenario(self.HORIZON, {(0, 1): rate})
        w, alpha, beta = config.flow_window, config.bpr.alpha, config.bpr.beta

        def delay(t0, share):
            return t0 * (1.0 + alpha * (share * rate / self.CAPACITY) ** beta)

        low, high = 0.0, 1.0  # the longer link's share
        for _ in range(60):
            mid = (low + high) / 2
            if delay(self.T0[0], 1.0 - mid) > delay(self.T0[1], mid):
                low = mid
            else:
                high = mid
        counts = collections.Counter()
        for seed in range(self.REPLICATIONS):
            sim = SimState(config, network, seed)
            sim.run()
            counts.update(sim.validation_counts())
        share = counts[1] / (counts[0] + counts[1])
        assert abs(share - low) <= 1.0 / (w * rate), (share, low)


class TestKnownAnswerLaneWindow:
    """A lane's flow is the count of its entries in the flow window ending
    now, over the window's length."""

    T0, CAPACITY = 0.2, 20.0

    def test_delay_at_the_count_in_the_window(self):
        """Entries at known times on one one-lane link of capacity 20 veh/h,
        read at rising times: each ``lane_delay`` equals ``volume_delay`` at
        the count of entries in [now - w, now], counted from the times
        themselves, over w."""
        network = Network(nodes=(0, 1), links=(Link(
            id=0, from_node=0, to_node=1, length=self.T0 * 50.0, free_flow_time=self.T0,
            has_carpool_lane=False, general_lanes=1, lane_capacity=self.CAPACITY),))
        sim = SimState(scenario(4.0, {(0, 1): 0.0}), network, seed=1)
        w = sim.flow_window
        assert w == 0.25
        lane = sim.lanes[0, LaneClass.GENERAL]
        # binary fractions of an hour, so every window's start is exact; the
        # entries come closer together as time goes on, so the count over
        # twice the window is not twice the count over the window
        times = [0.0, 0.125, 0.25, 0.25, 0.5, 0.625, 0.75, 0.8125, 0.875, 0.875,
                 0.9375, 1.0, 1.25]
        recorded, at_start = [], 0
        for now in [0.5, 0.75, 1.0, 1.0625, 1.25, 1.5]:
            while times and times[0] <= now:
                lane.record_entry(times[0], True)
                recorded.append(times.pop(0))
            count = sum(now - w <= t <= now for t in recorded)
            at_start += (now - w) in recorded
            expected = volume_delay(lane.link, lane.lane_class, count / w,
                                    sim.bpr_alpha, sim.bpr_beta)
            assert sim.lane_delay(lane, now) == expected, (now, count)
        assert at_start >= 3  # entries exactly at the window's start count


class TestLinkDelayMemo:
    def test_memoised_delays_equal_fresh(self, testbed, monkeypatch):
        """On a congested sweep replication every delay a lane gives, to a
        vehicle's entry, which reads its lane's memo in place, or through
        ``lane_delay`` to a route cost, a plan, the matcher's steps or an
        entry's memo miss, is the BPR delay at its window's count; each
        entry's delay is read before the entry itself is counted; the lane
        classes stay apart at equal counts; and every ``matching_steps``
        equals the steps of those delays."""
        sim = sweep_and_transfer_sims(testbed)[0]
        network = sim.network
        calls = 0

        def fresh(lane, now):
            """The BPR delay at the count of the lane's entries in the flow
            window ending ``now``, counted from their times."""
            count = sum(t >= now - sim.flow_window for t in lane.entries)
            return volume_delay(lane.link, lane.lane_class, count / sim.flow_window,
                                sim.bpr_alpha, sim.bpr_beta)

        memoised = SimState.lane_delay
        enter_link = SimState.enter_link
        entries = carpool_entries = 0

        def delay_checked(self, lane, now):
            nonlocal calls
            delay = memoised(self, lane, now)
            assert delay == fresh(lane, now), (lane.link.id, lane.lane_class)
            calls += 1
            return delay

        def entry_checked(self, vehicle, link_id, now):
            nonlocal calls, entries, carpool_entries
            lanes = self.link_lanes[link_id]
            before = [(lane.total, fresh(lane, now)) for lane in lanes]
            enter_link(self, vehicle, link_id, now)
            entered = [lane for lane, (total, _) in zip(lanes, before)
                       if lane.total == total + 1]
            assert len(entered) == 1 and entered[0].entries[-1] == now, link_id
            # the delay at the count without this entry: read before it
            delay = before[lanes.index(entered[0])][1]
            assert vehicle.link_arrival_time == now + delay, (link_id, now)
            calls += 1
            entries += 1
            carpool_entries += entered[0] is lanes[1]

        def min_delay(link):
            delay = fresh(sim.lanes[link.id, LaneClass.GENERAL], sim.clock)
            if link.has_carpool_lane:
                delay = min(delay, fresh(sim.lanes[link.id, LaneClass.CARPOOL], sim.clock))
            return delay

        steps_memoised = SimState.matching_steps

        def steps_checked(self):
            steps = steps_memoised(self)
            assert steps == step_durations(network, min_delay, sim.dt), sim.clock
            return steps

        monkeypatch.setattr(SimState, "lane_delay", delay_checked)
        monkeypatch.setattr(SimState, "enter_link", entry_checked)
        monkeypatch.setattr(SimState, "matching_steps", steps_checked)
        sim.run()
        assert entries > 1000
        assert carpool_entries > 0
        # every lane's memo, keyed as one table: (link id, lane class, count)
        delays = {(link_id, lane_class, count): delay
                  for (link_id, lane_class), lane in sim.lanes.items()
                  for count, delay in lane.delays.items()}
        assert calls > 10 * len(delays)
        # congested: the load raised some delays above free flow
        assert any(delay > network.link(link_id).free_flow_time
                   for (link_id, _, _), delay in delays.items())
        # at one link and count the lane classes have keys and delays apart
        shared = [(link_id, count) for link_id, lane_class, count in delays
                  if count > 0 and lane_class is LaneClass.CARPOOL
                  and (link_id, LaneClass.GENERAL, count) in delays]
        assert shared
        assert all(delays[link_id, LaneClass.GENERAL, count]
                   != delays[link_id, LaneClass.CARPOOL, count]
                   for link_id, count in shared)


class TestBackgroundLoad:
    RATES = {(0, 2): 100.0, (1, 2): 200.0}

    def test_full_unused_injects_nothing(self, testbed):
        sim = SimState(scenario(4.0, self.RATES, unused_capacity=1.0), testbed, seed=2)
        assert EV_BACKGROUND not in [kind for _, _, kind, _ in sim.events]
        sim.run()
        assert sim.lanes[2, LaneClass.CARPOOL].background == 0

    def test_rates_scale_with_unused_fraction(self, testbed):
        r25 = carpool_background_rates(testbed, self.RATES, 1.0, 0.25)
        r50 = carpool_background_rates(testbed, self.RATES, 1.0, 0.50)
        assert r50[2] == pytest.approx(r25[2] * (1 - 0.5) / (1 - 0.25))

    def test_anchor_equals_per_lane_general_flow(self, testbed):
        rates = carpool_background_rates(testbed, self.RATES, 1.0, 0.25)
        per_lane = 300.0 / testbed.link(2).general_lanes  # both ODs use link 2
        assert rates[2] == pytest.approx(per_lane)

    def test_background_excluded_from_validation_counts(self, testbed):
        sim = SimState(scenario(4.0, self.RATES, unused_capacity=0.25), testbed, seed=2)
        sim.run()
        report = sim.build_report()
        background = sim.lanes[2, LaneClass.CARPOOL].background
        assert background > 0
        total_on_2 = (report.link_class_counts[(2, LaneClass.GENERAL)]
                      + report.link_class_counts[(2, LaneClass.CARPOOL)])
        assert sim.validation_counts()[2] == total_on_2 - background


class TestCollectorPause:
    """The experiments pause the cyclic garbage collector while a
    replication is built, run and read ("Memory" in the
    ``ridesim.experiments`` docstring), and a replication builds no
    reference cycle ("Memory" in the ``ridesim.simulation`` docstring)."""

    @pytest.fixture()
    def riders(self):
        return scenario(1.0, {(0, 2): 60.0}, shares=(0.3, 0.3, 0.4))

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_state_restored(self, enabled):
        if enabled:
            gc.enable()
        else:
            gc.disable()
        sim, report = experiments.run_single(scenario(2.0, {(0, 2): 100.0}), seed=2)
        assert report.outcomes
        assert gc.isenabled() is enabled

    def test_restored_when_construction_or_run_raises(self, riders, monkeypatch):
        def fail(*args):
            raise SimulationError("handler failed")

        for owner, name in ((SimState, "_handle_agent_enter"),
                            (simulation, "generate_agents")):
            with monkeypatch.context() as patch:
                patch.setattr(owner, name, fail)
                for enabled in (True, False):
                    if enabled:
                        gc.enable()
                    else:
                        gc.disable()
                    with pytest.raises(SimulationError, match="handler failed"):
                        experiments.run_single(riders)
                    assert gc.isenabled() is enabled, name

    def test_off_while_agents_are_drawn_and_riders_matched(self, riders, monkeypatch):
        gc.enable()
        seen = []

        def recording(inner):
            def wrapped(*args):
                seen.append((inner.__name__, gc.isenabled()))
                return inner(*args)
            return wrapped

        for name in ("generate_agents", "match_rider"):
            monkeypatch.setattr(simulation, name, recording(getattr(simulation, name)))
        experiments.run_single(riders)
        assert seen[0] == ("generate_agents", False)
        assert len(seen) > 1 and set(seen[1:]) == {("match_rider", False)}
        assert gc.isenabled()

    @pytest.mark.parametrize("experiment", ["validation", "sweep", "single"])
    def test_experiments_pass_no_collection_over_replications(self, monkeypatch,
                                                             experiment):
        """``run_validation`` and ``run_capacity_sweep`` build, run, read
        and drop each replication inside one pause: the collector makes no
        pass while a replication is alive, and, once a first call has
        filled the interpreter's free lists (whose frees the collector's
        allocation count does not see), none from the first replication's
        build to the last one's drop. ``run_single`` returns its
        replication, which outlives the call: no pass runs from its build
        to the return."""
        log = []
        if experiment == "validation":
            config = load_config(bundled_data_path("validation.yaml"),
                                 {"horizon": 3.0, "replications": 2})
            run, replications = experiments.run_validation, 2
        elif experiment == "sweep":
            config = load_config(bundled_data_path("sweep.yaml"),
                                 {"horizon": 1.0, "replications": 2})
            run, replications = experiments.run_capacity_sweep, 2 * len(config.levels)
        else:
            config = load_config(bundled_data_path("sweep.yaml"), {"horizon": 1.0})
            replications = 1

            def run(config):
                result = experiments.run_single(config)
                log.append("r")  # returned; the caller still holds the replication
                assert result[1].riders.riders
        # build, drop, pass: one replication at a time, no pass while one is
        # alive, nor before run_single has returned
        pattern, end = ("p*brp*dp*", "r") if experiment == "single" else ("p*(bdp*)+", "d")
        build = experiments.init_simulation

        def recording(*args):
            log.append("b")
            sim = build(*args)
            weakref.finalize(sim, log.append, "d")
            return sim

        def on_pass(phase, info):
            if phase == "start":
                log.append("p")

        monkeypatch.setattr(experiments, "init_simulation", recording)
        gc.enable()
        gc.collect()  # this also empties the free lists
        gc.callbacks.append(on_pass)
        try:
            for _ in range(2):
                log.clear()
                run(config)
                events = "".join(log)
                assert re.fullmatch(pattern, events), events
                assert events.count("b") == replications
        finally:
            gc.callbacks.remove(on_pass)
        assert "p" not in events[events.index("b"):events.rindex(end)], events

    def test_replication_leaves_no_cyclic_garbage(self, tmp_path):
        """The premise of the pause: reference counting alone frees all
        that building, running and dropping a replication allocates, on the
        bundled validation scenario and on the multi-leg grid."""
        validation = load_config(bundled_data_path("validation.yaml"),
                                 {"horizon": 3.0}).with_shares(0.0, 0.0, 1.0)
        grid = load_config(write_grid(tmp_path), {"seed": 5})
        for config in (validation, grid):
            network = config.make_network()
            gc.collect()
            gc.disable()  # so any cyclic garbage made below stays to be counted
            sim = SimState(config, network, config.seed)
            sim.run()
            report = sim.build_report()
            assert report.outcomes
            del sim, report
            assert gc.collect() == 0, config.network
