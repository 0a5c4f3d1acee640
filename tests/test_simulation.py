import heapq

import pytest

import ridesim.simulation as simulation
from ridesim.agents import Role, TimeWindow, VehicleAgent
from ridesim.demand import DemandSpec, Shares
from ridesim.matching import Pin
from ridesim.network import LaneClass
from ridesim.simulation import (
    EV_AGENT_ENTER,
    EV_BACKGROUND,
    SimState,
    SimulationError,
    carpool_background_rates,
)

from conftest import scenario


def empty_sim(testbed, horizon=4.0) -> SimState:
    return SimState(scenario(horizon, {(0, 2): 0.0}), testbed, seed=1)


def seed_agent(sim: SimState, agent: VehicleAgent) -> None:
    sim.agents[agent.id] = agent
    sim.push_event(agent.request_time, EV_AGENT_ENTER, agent.id)
    sim._next_agent_id = max(sim._next_agent_id, agent.id + 1)


def regular(agent_id, origin, dest, t, flex=0.25, fft=1.0):
    return VehicleAgent(
        id=agent_id, role=Role.REGULAR_DRIVER, origin=origin, destination=dest,
        request_time=t, window=TimeWindow(t, t + flex, t + fft, t + fft + flex),
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
        report = empty_sim(testbed).run()
        assert all(c == 0 for c in report.validation_counts.values())
        assert report.outcomes == []

    def test_single_regular_driver_free_flow(self, testbed):
        sim = empty_sim(testbed)
        seed_agent(sim, regular(0, 0, 3, t=0.0))
        report = sim.run()
        assert report.validation_counts == {0: 1, 1: 0, 2: 0, 3: 0}
        outcome = report.outcomes[0]
        assert outcome.arrival - outcome.departure == pytest.approx(0.55)

    def test_two_leg_regular_trip(self, testbed):
        sim = empty_sim(testbed)
        seed_agent(sim, regular(0, 0, 2, t=0.0))
        report = sim.run()
        assert report.validation_counts == {0: 0, 1: 1, 2: 1, 3: 0}
        outcome = report.outcomes[0]
        assert outcome.arrival - outcome.departure == pytest.approx(0.72)

    def test_invalid_shares_rejected(self, testbed):
        with pytest.raises(ValueError):
            DemandSpec(od_rates={(0, 2): 1.0},
                       shares=Shares(0.2, 0.4, 0.5), window_flexibility=0.25,
                       horizon=24.0, scale=1.0, seats=4)

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
        window = sim.link_states[0].window[LaneClass.GENERAL]
        for _ in range(3000):
            window.append(0.0)
        agent = regular(0, 0, 3, t=0.0)
        vehicle = simulation.Vehicle(agent)
        assert sim.vehicle_at_node(vehicle, 0, 0.0) == 1

    def test_unreachable_destination_strands(self, testbed):
        sim = empty_sim(testbed)
        seed_agent(sim, regular(0, 2, 3, t=0.0))  # node 2 has no outgoing links
        report = sim.run()
        assert report.stranded_count == 1
        [outcome] = report.outcomes
        assert outcome.stranded
        assert outcome.departure is None and outcome.arrival is None

    def test_replans_only_at_forks(self, monkeypatch):
        from ridesim.config import bundled_data_path, load_config
        from ridesim.simulation import init_simulation

        config = load_config(bundled_data_path("validation.yaml"), {"horizon": 2.0})
        sim = init_simulation(config, config.make_network(), seed=101)
        forks, replans = [], []
        visit = SimState.vehicle_at_node
        search = simulation.dijkstra_route

        def counted_visit(self, vehicle, node, now):
            dest = vehicle.agent.destination
            if (vehicle.agent.role is Role.REGULAR_DRIVER and node != dest
                    and len(self.network.next_hops(node, dest)) > 1):
                forks.append((node, dest))
            return visit(self, vehicle, node, now)

        def counted_search(network, cost_fn, origin, dest):
            replans.append((origin, dest))
            return search(network, cost_fn, origin, dest)

        monkeypatch.setattr(SimState, "vehicle_at_node", counted_visit)
        monkeypatch.setattr(simulation, "dijkstra_route", counted_search)
        sim.run()
        # on the testbed only 0 -> 3 has two links that reach the destination
        assert set(replans) == {(0, 3)}
        assert replans == forks


class TestConservation:
    def test_counts_return_to_zero(self, testbed):
        # background carpool entries have no vehicle and so no exit: they
        # must not count as in flight
        config = scenario(2.0, {(0, 2): 50.0, (0, 3): 30.0, (1, 3): 40.0},
                          unused_capacity=0.25)
        sim = SimState(config, testbed, seed=3)
        report = sim.run(horizon=10.0)  # past the 2 h demand, so all arrive
        assert sim.link_states[2].background_totals[LaneClass.CARPOOL] > 0
        for state in sim.link_states.values():
            for lane_class in LaneClass:
                assert state.counts[lane_class] == 0
        finished = [o for o in report.outcomes if o.arrival is not None]
        assert len(finished) == len(report.outcomes)


class TestDeterminism:
    def test_identical_runs(self, testbed):
        config = scenario(3.0, {(0, 2): 80.0, (1, 3): 60.0}, (0.1, 0.4, 0.5))

        def run_once():
            return SimState(config, testbed, seed=11).run(horizon=6.0)

        a, b = run_once(), run_once()
        assert a.link_class_counts == b.link_class_counts
        assert a.validation_counts == b.validation_counts
        assert [(o.agent_id, o.departure, o.arrival) for o in a.outcomes] == \
               [(o.agent_id, o.departure, o.arrival) for o in b.outcomes]
        assert a.riders_matched == b.riders_matched


class TestRidesharing:
    def test_rider_matched_and_carried(self, testbed):
        sim = empty_sim(testbed, horizon=6.0)
        seed_agent(sim, rideshare(0, 0, 2, t=0.0, fft=0.72))
        seed_agent(sim, rider(1, 0, 2, t=0.0, fft=0.72))
        report = sim.run()
        assert sim.match_results[1].matched
        assert report.riders_matched == 1
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
        general = sim.link_states[2].window[LaneClass.GENERAL]
        for _ in range(3000):
            general.append(0.0)
        report = sim.run()
        assert sim.match_results[1].matched
        assert report.link_class_counts[(2, LaneClass.CARPOOL)] == 1

    def test_solo_rideshare_driver_never_uses_carpool(self, testbed):
        sim = empty_sim(testbed, horizon=6.0)
        seed_agent(sim, rideshare(0, 0, 2, t=0.0, fft=0.72))
        general = sim.link_states[2].window[LaneClass.GENERAL]
        for _ in range(3000):
            general.append(0.0)
        report = sim.run()
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
        report = sim.run()
        assert not sim.match_results[1].matched
        assert report.riders_matched == 0
        # the fallback drives the same trip like any regular driver
        assert report.validation_counts == {0: 0, 1: 1, 2: 1, 3: 0}
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
        report = sim.run()
        assert report.match_rate == 0.0
        # driver's own trip plus the fallback's two links
        assert report.validation_counts == {0: 0, 1: 2, 2: 2, 3: 0}

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
        report = sim.run()
        assert sim.match_results[2].matched
        legs = sim.match_results[2].itinerary.legs
        assert [leg.driver for leg in legs] == [0, 1]
        outcome = next(o for o in report.outcomes if o.agent_id == 2)
        assert outcome.arrival is not None
        # committed routes stay contiguous after the matching rewrite
        for driver_id in (0, 1):
            links = [sim.network.link(lid) for lid in sim.vehicles[driver_id].route]
            for a, b in zip(links, links[1:]):
                assert a.to_node == b.from_node

    def test_matched_itinerary_honors_rider_window(self, testbed):
        from ridesim.matching import ceil_steps

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


class TestInitSimulation:
    def test_default_config_ready_to_run(self, testbed):
        from ridesim.config import bundled_data_path, load_config
        from ridesim.simulation import init_simulation

        config = load_config(bundled_data_path("validation.yaml"))
        sim = init_simulation(config, testbed, seed=7)
        assert sim.clock == 0.0
        assert sim.events

    @pytest.mark.parametrize("unused", [1.0, 0.25])
    def test_initial_events_pop_as_pushed(self, testbed, unused):
        # agent entries are laid down as a ready heap, not pushed one by one
        config = scenario(4.0, {(0, 2): 100.0, (1, 2): 200.0}, (0.1, 0.4, 0.5),
                          unused_capacity=unused)
        sim = SimState(config, testbed, seed=2)
        kinds = [kind for _, _, kind, _ in sim.events]
        assert kinds.count(EV_AGENT_ENTER) == len(sim.agents) > 100
        assert (EV_BACKGROUND in kinds) == (unused < 1.0)
        pushed = empty_sim(testbed)
        for time, _, kind, payload in sorted(sim.events, key=lambda e: e[1]):
            pushed.push_event(time, kind, payload)
        ready = list(sim.events)
        assert ([heapq.heappop(ready) for _ in range(len(kinds))]
                == [heapq.heappop(pushed.events) for _ in range(len(kinds))])
        assert sim._seq == pushed._seq

    def test_match_trace_collected(self, testbed):
        sim = empty_sim(testbed, horizon=6.0)
        seed_agent(sim, rideshare(0, 0, 2, t=0.0, fft=0.72))
        seed_agent(sim, rider(1, 0, 2, t=0.0, fft=0.72))
        report = sim.run()
        assert len(report.match_trace) == 1
        row = report.match_trace[0]
        assert row["rider_id"] == 1
        assert row["matched"] is True
        assert row["travel_arcs"] > 0


class TestMatchRetry:
    def test_commit_failure_reports_capacity(self, testbed):
        from ridesim.matching import RiderRequest, match_rider

        sim = empty_sim(testbed, horizon=6.0)
        seed_agent(sim, rideshare(0, 0, 2, t=0.0, fft=0.72))
        sim.run(horizon=0.0)  # process the driver's entry only

        commits = []
        original = sim.commit_itinerary
        sim.commit_itinerary = lambda req, it, tau: commits.append(1) or False

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
            agent_id: (list(v.pins), list(v.route), list(v.planned_entry_steps),
                       v.route_pos, v.plan_version)
            for agent_id, v in sim.vehicles.items()
        }
        return drivers, list(sim.events)

    @staticmethod
    def commit(sim, rider_id, *legs):
        from ridesim.matching import Itinerary, ItineraryLeg, RiderRequest

        agent = rider(rider_id, legs[0][1], legs[-1][3], t=sim.clock, fft=0.72)
        request = RiderRequest(rider_id, agent.origin, agent.destination,
                               agent.window, agent.request_time)
        itinerary = Itinerary(tuple(ItineraryLeg(*leg) for leg in legs), 0.0, 0)
        tau = sim.matching_steps()
        assert (tau[1], tau[2]) == (5, 10)
        return sim.commit_itinerary(request, itinerary, tau)

    def assert_refused(self, sim, rider_id, *legs):
        before = self.plans(sim)
        assert self.commit(sim, rider_id, *legs) is False
        assert self.plans(sim) == before

    def test_second_leg_driver_without_offer(self, testbed):
        sim = empty_sim(testbed, horizon=6.0)
        seed_agent(sim, rideshare(0, 0, 1, t=0.0, fft=0.22, flex=2.0))
        seed_agent(sim, rideshare(1, 1, 2, t=0.0, fft=0.5, flex=0.0))
        sim.run(horizon=0.6)  # driver 1 arrives at 0.5 h; driver 0 still waits
        assert not sim.vehicles[1].active and sim.vehicles[0].active
        first = (0, 0, 12, 1, 17)
        self.assert_refused(sim, 9, first, (1, 1, 17, 2, 27))
        assert self.commit(sim, 9, first) is True  # the first leg alone fits

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


class TestOfferIndex:
    def test_index_equals_full_scan(self, testbed):
        requests = offers = evicted = 0
        for sim in sweep_and_transfer_sims(testbed):
            indexed = sim.collect_offers

            def checked(rider, sim=sim, indexed=indexed):
                nonlocal requests, offers
                expected = []
                for agent_id in sorted(sim.vehicles):
                    vehicle = sim.vehicles[agent_id]
                    if (vehicle.agent.role is Role.RIDESHARE_DRIVER
                            and vehicle.active):
                        offer = sim._offer(vehicle)
                        if offer is not None:
                            expected.append(offer)
                result = indexed(rider)
                assert result == expected, rider
                requests += 1
                offers += len(result)
                return result

            sim.collect_offers = checked
            sim.run()
            rideshare = sum(v.agent.role is Role.RIDESHARE_DRIVER
                            for v in sim.vehicles.values())
            evicted += rideshare - len(sim._offer_index)
        assert requests > 50
        assert offers > requests
        assert evicted > 0

    def test_cached_offers_equal_fresh(self, testbed, monkeypatch):
        hits = rebuilt = 0
        match = simulation.match_rider

        def checked(sim, request):
            nonlocal hits, rebuilt
            for entry in sim._offer_index.values():
                if not entry.vehicle.active:
                    continue
                before = entry.offer
                cached = sim._offer(entry.vehicle)
                entry.key = None  # the next call builds the offer afresh
                assert cached == sim._offer(entry.vehicle), request
                hits += before is not None and cached is before
                rebuilt += before is not None and cached is not before
            return match(sim, request)

        monkeypatch.setattr(simulation, "match_rider", checked)
        for sim in sweep_and_transfer_sims(testbed):
            sim.run()
        # offers were reused across requests, and rebuilt as vehicles moved
        assert hits > 100 and rebuilt > 100

    def test_cache_key_covers_each_change(self):
        """Links far shorter than a step let every part of the key change
        alone while the anchor step stays at 1."""
        from conftest import make_network
        net = make_network([(0, 1, 0.01), (1, 0, 0.01), (2, 3, 0.5), (1, 2, 0.01)])
        sim = SimState(scenario(2.0, {(0, 3): 0.0}), net, seed=1)
        seed_agent(sim, rideshare(0, 0, 3, t=0.0, fft=0.53))
        sim.run(horizon=0.0)  # the driver enters and waits at its origin
        vehicle = sim.vehicles[0]
        entry = sim._offer_index[0]
        offers = []

        def offer_at(now):
            sim.clock = now
            cached = sim._offer(vehicle)
            entry.key = None  # the next call builds the offer afresh
            assert cached == sim._offer(vehicle)
            offers.append(cached)

        def travel(link_id, now):
            vehicle.link_arrival_time = None
            sim.enter_link(vehicle, link_id, now)

        offer_at(0.01)
        travel(0, 0.01)
        travel(1, 0.02)
        offer_at(0.03)  # back at its origin, now departed
        travel(0, 0.03)
        offer_at(0.035)  # another node
        vehicle.pins = [Pin(2, 10, "board", 9), Pin(3, 15, "alight", 9)]
        vehicle.plan_version += 1
        offer_at(0.04)  # a commit adds pins
        vehicle.pins = [Pin(2, 11, "board", 9), Pin(3, 15, "alight", 9)]
        vehicle.plan_version += 1
        offer_at(0.04)  # a commit replaces them, keeping their count
        vehicle.aboard.add(vehicle.pins.pop(0).rider_id)
        offer_at(0.04)  # a pin is served
        assert len(set(offers)) == len(offers)

    def test_offer_dropped_once_past_latest_arrival(self, testbed):
        sim = empty_sim(testbed)
        agent = rideshare(0, 0, 2, t=0.0, fft=0.72)
        vehicle = simulation.Vehicle(agent)
        sim.clock = agent.window.latest_arrival
        assert sim._offer(vehicle) is not None
        # any later anchor is one the offer's own TimeWindow would reject
        sim.clock = agent.window.latest_arrival + 5e-13
        assert sim._offer(vehicle) is None


class TestBackgroundLoad:
    RATES = {(0, 2): 100.0, (1, 2): 200.0}

    def test_full_unused_injects_nothing(self, testbed):
        sim = SimState(scenario(4.0, self.RATES, unused_capacity=1.0), testbed, seed=2)
        assert EV_BACKGROUND not in [kind for _, _, kind, _ in sim.events]
        sim.run()
        assert sim.link_states[2].background_totals[LaneClass.CARPOOL] == 0

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
        report = sim.run()
        background = sim.link_states[2].background_totals[LaneClass.CARPOOL]
        assert background > 0
        total_on_2 = (report.link_class_counts[(2, LaneClass.GENERAL)]
                      + report.link_class_counts[(2, LaneClass.CARPOOL)])
        assert report.validation_counts[2] == total_on_2 - background
