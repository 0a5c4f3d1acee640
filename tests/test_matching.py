import random

import pytest

import ridesim.matching as matching
from ridesim.agents import TimeWindow
from ridesim.config import bundled_data_path, load_config
from ridesim.experiments import replication_seeds
from ridesim.matching import (
    DriverOffer,
    EnumerationBudgetError,
    Pin,
    RiderRequest,
    brute_force_itinerary,
    build_time_expanded,
    ceil_steps,
    preprocess,
    solve_itinerary,
)
from ridesim.simulation import init_simulation

from conftest import DT_EXACT, random_instance


def pipeline(rider, offers, net, tt, dt=DT_EXACT, penalty=DT_EXACT):
    ten = build_time_expanded(rider, offers, net, tt, dt)
    graph = preprocess(ten)
    itinerary = solve_itinerary(graph, rider, penalty) if graph.feasible else None
    return ten, graph, itinerary


def assert_itinerary_invariants(itinerary, rider, offers_by_id, dt):
    legs = itinerary.legs
    assert legs, "itineraries carry at least one leg"
    assert legs[0].board_node == rider.origin
    assert legs[-1].alight_node == rider.destination
    # contiguity in space and time
    for a, b in zip(legs, legs[1:]):
        assert a.alight_node == b.board_node
        assert a.alight_step <= b.board_step
    for leg in legs:
        assert leg.board_step <= leg.alight_step
    # no re-boarding a driver after leaving the vehicle
    drivers = [leg.driver for leg in legs]
    assert len(set(drivers)) == len(drivers)
    # rider window compliance
    w = rider.window
    assert legs[0].board_step >= ceil_steps(w.earliest_departure, dt)
    assert legs[-1].alight_step <= ceil_steps(w.latest_arrival, dt)
    # driver window compliance
    for leg in legs:
        offer = offers_by_id[leg.driver]
        assert leg.board_step >= ceil_steps(offer.window.earliest_departure, dt)
        assert leg.alight_step <= ceil_steps(offer.window.latest_arrival, dt)


class TestCeilSteps:
    def test_exact_multiples_stay(self):
        assert ceil_steps(0.15, 0.05) == 3
        assert ceil_steps(0.25, 0.05) == 5

    def test_rounds_up(self):
        assert ceil_steps(0.72, 0.05) == 15
        assert ceil_steps(0.22, 0.05) == 5

    def test_zero(self):
        assert ceil_steps(0.0, 0.05) == 0


class TestBuildTimeExpanded:
    def test_exact_window_intervals(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.0, 0.72, 0.72), 0.0)
        driver = DriverOffer(id=9, origin=0, destination=2,
                             window=TimeWindow(0.0, 0.0, 0.72, 0.72), seats=2)
        ten = build_time_expanded(rider, [driver], testbed, free_flow, 0.05)
        assert ten.node_intervals[0] == (0, 0)
        assert ten.node_intervals[1] == (5, 5)
        assert ten.node_intervals[2] == (15, 15)
        assert 3 not in ten.node_intervals

    def test_arc_durations_are_rounded_up_travel_times(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.2, 0.72, 1.0), 0.0)
        driver = DriverOffer(id=9, origin=0, destination=2,
                             window=TimeWindow(0.0, 0.2, 0.72, 1.0), seats=2)
        ten = build_time_expanded(rider, [driver], testbed, free_flow, 0.05)
        for arc in ten.travel_arcs:
            link = next(l for l in testbed.links
                        if (l.from_node, l.to_node) == (arc.tail[0], arc.head[0]))
            assert arc.head[1] - arc.tail[1] == ceil_steps(link.free_flow_time, 0.05)

    def test_infeasible_window_empty(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.0, 0.5, 0.5), 0.0)
        ten = build_time_expanded(rider, [], testbed, free_flow, 0.05)
        assert not ten.node_intervals

    def test_no_drivers_no_travel_arcs(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.1, 0.72, 0.9), 0.0)
        ten = build_time_expanded(rider, [], testbed, free_flow, 0.05)
        assert ten.travel_arcs == []
        assert len(ten.vertices()) > 0

    def test_links_without_capable_driver_carry_no_arcs(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.2, 0.72, 1.0), 0.0)
        # driver only covers 0->1 within its window
        driver = DriverOffer(id=9, origin=0, destination=1,
                             window=TimeWindow(0.0, 0.1, 0.22, 0.35), seats=2)
        ten = build_time_expanded(rider, [driver], testbed, free_flow, 0.05)
        assert {(a.tail[0], a.head[0]) for a in ten.travel_arcs} == {(0, 1)}

    def test_full_vehicle_offers_no_arcs(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.2, 0.72, 1.0), 0.0)
        driver = DriverOffer(id=9, origin=0, destination=2,
                             window=TimeWindow(0.0, 0.2, 0.72, 1.0), seats=1,
                             aboard=1)
        ten = build_time_expanded(rider, [driver], testbed, free_flow, 0.05)
        assert ten.travel_arcs == []

    def test_seat_frees_after_alight_pin(self, testbed, free_flow):
        rider = RiderRequest(0, 1, 2, TimeWindow(0.3, 0.6, 0.8, 1.2), 0.3)
        # vehicle full until it drops its rider at node 1 at step 8 (0.4 h)
        driver = DriverOffer(id=9, origin=0, destination=2,
                             window=TimeWindow(0.0, 0.2, 0.72, 1.2), seats=1,
                             aboard=1, pins=(Pin(1, 8, "alight", 55),))
        ten = build_time_expanded(rider, [driver], testbed, free_flow, 0.05)
        assert ten.travel_arcs  # the 1->2 leg after the dropoff is offerable
        assert all(arc.tail[1] >= 8 for arc in ten.travel_arcs)


class TestMinStepMemo:
    def test_memo_follows_step_durations(self, testbed):
        tau = {link.id: 3 for link in testbed.links}
        first = matching._shared_min_step_matrix(testbed, tau)
        assert matching._shared_min_step_matrix(testbed, dict(tau)) is first
        slower = {**tau, testbed.links[0].id: 40}
        memo = matching._shared_min_step_matrix(testbed, slower)
        assert memo == matching._min_step_matrix(testbed, slower)
        assert memo != first

    def test_rebuilds_only_when_step_durations_change(self, monkeypatch):
        config = load_config(bundled_data_path("sweep.yaml"),
                             {"unused_capacity": 0.25})
        sim = init_simulation(config, config.make_network(),
                              replication_seeds(config.seed, 1)[0])
        keys, builds = [], []
        build_ten = matching.build_time_expanded
        fresh_matrix = matching._min_step_matrix

        def recording_build(rider, drivers, network, travel_time, dt, **kwargs):
            keys.append(tuple(
                max(1, ceil_steps(travel_time(link.id, rider.request_time), dt))
                for link in network.links
            ))
            return build_ten(rider, drivers, network, travel_time, dt, **kwargs)

        def counting_matrix(network, tau):
            builds.append(tau)
            return fresh_matrix(network, tau)

        monkeypatch.setattr(matching, "build_time_expanded", recording_build)
        monkeypatch.setattr(matching, "_min_step_matrix", counting_matrix)
        sim.run()
        changes = sum(key != prev for prev, key in zip([None] + keys, keys))
        assert len(builds) == changes
        assert 1 < changes < len(keys)


class TestPreprocess:
    def test_exact_window_survivors(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.0, 0.72, 0.72), 0.0)
        driver = DriverOffer(id=9, origin=0, destination=2,
                             window=TimeWindow(0.0, 0.0, 0.72, 0.72), seats=2)
        ten = build_time_expanded(rider, [driver], testbed, free_flow, 0.05)
        graph = preprocess(ten)
        assert graph.feasible
        assert sorted({v[0] for v in graph.vertices}) == [0, 1, 2]

    def test_empty_ten_infeasible(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.0, 0.5, 0.5), 0.0)
        ten = build_time_expanded(rider, [], testbed, free_flow, 0.05)
        graph = preprocess(ten)
        assert not graph.feasible
        assert graph.vertices == []

    def test_unreachable_cluster_removed(self, testbed, free_flow):
        # without drivers every non-origin vertex is unreachable
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.1, 0.72, 0.9), 0.0)
        ten = build_time_expanded(rider, [], testbed, free_flow, 0.05)
        graph = preprocess(ten)
        assert not graph.feasible
        assert all(v[0] == 0 for v in graph.vertices) or graph.vertices == []

    def test_topological_order(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.2, 0.72, 1.1), 0.0)
        driver = DriverOffer(id=9, origin=0, destination=2,
                             window=TimeWindow(0.0, 0.2, 0.72, 1.1), seats=2)
        ten = build_time_expanded(rider, [driver], testbed, free_flow, 0.05)
        graph = preprocess(ten)
        position = {v: i for i, v in enumerate(graph.vertices)}
        for tail, arcs in graph.adjacency.items():
            for head, _, _ in arcs:
                assert position[tail] < position[head]


class TestSolveExamples:
    def test_single_driver_exact_cover(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.0, 0.72, 0.72), 0.0)
        driver = DriverOffer(id=9, origin=0, destination=2,
                             window=TimeWindow(0.0, 0.0, 0.72, 0.72), seats=2)
        _, graph, itinerary = pipeline(rider, [driver], testbed, free_flow,
                                       dt=0.05, penalty=0.05)
        assert itinerary is not None
        assert len(itinerary.legs) == 1
        assert itinerary.total_cost == pytest.approx(0.75)  # 15 steps of 0.05
        assert itinerary.wait_steps == 0

    def test_transfer_with_wait_costs_penalty(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.3, 0.72, 1.2), 0.0)
        a = DriverOffer(id=1, origin=0, destination=1,
                        window=TimeWindow(0.0, 0.0, 0.22, 0.25), seats=2)
        b = DriverOffer(id=2, origin=1, destination=2,
                        window=TimeWindow(0.30, 0.30, 0.8, 0.82), seats=2)
        _, _, itinerary = pipeline(rider, [a, b], testbed, free_flow,
                                   dt=0.05, penalty=0.05)
        assert itinerary is not None
        assert [leg.driver for leg in itinerary.legs] == [1, 2]
        assert itinerary.wait_steps == 1
        assert itinerary.total_cost == pytest.approx(0.25 + 0.05 + 0.5)

    def test_faster_of_two_full_covers_wins(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 3, TimeWindow(0.0, 0.4, 0.55, 1.1), 0.0)
        direct = DriverOffer(id=1, origin=0, destination=3,
                             window=TimeWindow(0.0, 0.1, 0.55, 0.8), seats=2)
        detour = DriverOffer(id=2, origin=0, destination=3,
                             window=TimeWindow(0.0, 0.4, 0.55, 1.2), seats=2)
        ten = build_time_expanded(rider, [direct, detour], testbed, free_flow, 0.05)
        graph = preprocess(ten)
        itinerary = solve_itinerary(graph, rider, 0.05)
        assert itinerary.legs[0].driver == 1
        assert itinerary.legs[0].alight_step - itinerary.legs[0].board_step == 11

    def test_empty_graph_returns_none(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.0, 0.5, 0.5), 0.0)
        _, graph, itinerary = pipeline(rider, [], testbed, free_flow)
        assert not graph.feasible
        assert itinerary is None


class TestBruteForce:
    def test_empty_infeasible(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.0, 0.5, 0.5), 0.0)
        ten = build_time_expanded(rider, [], testbed, free_flow, 0.05)
        assert brute_force_itinerary(ten, rider, 0.05) is None

    def test_single_arc(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 1, TimeWindow(0.0, 0.0, 0.22, 0.22), 0.0)
        driver = DriverOffer(id=3, origin=0, destination=1,
                             window=TimeWindow(0.0, 0.0, 0.22, 0.22), seats=1)
        ten = build_time_expanded(rider, [driver], testbed, free_flow, 0.05)
        assert len(ten.travel_arcs) == 1
        itinerary = brute_force_itinerary(ten, rider, 0.05)
        assert itinerary.legs[0].driver == 3

    def test_budget_error(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.5, 0.72, 1.5), 0.0)
        offers = [
            DriverOffer(id=i, origin=0, destination=2,
                        window=TimeWindow(0.0, 0.5, 0.72, 1.5), seats=2)
            for i in range(4)
        ]
        ten = build_time_expanded(rider, offers, testbed, free_flow, 0.05)
        with pytest.raises(EnumerationBudgetError):
            brute_force_itinerary(ten, rider, 0.05, budget=50)


class TestOracleEquivalence:
    def test_100_random_instances(self):
        rng = random.Random(20140717)
        agree = 0
        attempts = 0
        while agree < 100 and attempts < 2000:
            attempts += 1
            instance = random_instance(rng)
            if instance is None:
                continue
            rider, offers, net, tt = instance
            penalty = rng.choice([0.0, DT_EXACT / 2, DT_EXACT, 2 * DT_EXACT])
            ten = build_time_expanded(rider, offers, net, tt, DT_EXACT)
            try:
                oracle = brute_force_itinerary(ten, rider, penalty)
            except EnumerationBudgetError:
                continue
            graph = preprocess(ten)
            solved = solve_itinerary(graph, rider, penalty) if graph.feasible else None
            if oracle is None:
                assert solved is None
            else:
                assert solved is not None
                assert solved.total_cost == oracle.total_cost
                offers_by_id = {o.id: o for o in offers}
                assert_itinerary_invariants(solved, rider, offers_by_id, DT_EXACT)
                assert_itinerary_invariants(oracle, rider, offers_by_id, DT_EXACT)
            agree += 1
        assert agree == 100

    def test_pruning_soundness_on_random_instances(self):
        rng = random.Random(900913)
        checked = 0
        attempts = 0
        while checked < 100 and attempts < 2000:
            attempts += 1
            instance = random_instance(rng)
            if instance is None:
                continue
            rider, offers, net, tt = instance
            ten = build_time_expanded(rider, offers, net, tt, DT_EXACT)
            graph = preprocess(ten)
            try:
                on_paths = vertices_on_feasible_paths(ten)
            except EnumerationBudgetError:
                continue
            assert not (graph.removed & on_paths)
            checked += 1
        assert checked == 100


def vertices_on_feasible_paths(ten, budget: int = 200_000):
    """Union of vertices on any labelled origin->destination path."""
    start = ten.start_vertex
    if start is None:
        return set()
    dests = set(ten.dest_vertices())
    forward = {}
    from ridesim.matching import _all_arcs

    for tail, head, driver, cost in _all_arcs(ten):
        forward.setdefault(tail, []).append((head, driver))
    onpath = set()
    expansions = 0
    stack = [(start, None, frozenset(), (start,))]
    while stack:
        vertex, last, used, path = stack.pop()
        if vertex in dests and any(True for _ in path):
            onpath.update(path)
        for head, driver in forward.get(vertex, ()):
            expansions += 1
            if expansions > budget:
                raise EnumerationBudgetError("path enumeration budget")
            if driver is None:
                stack.append((head, last, used, path + (head,)))
            else:
                if last is not None and driver != last and driver in used:
                    continue
                stack.append((head, driver, used | {driver}, path + (head,)))
    return onpath


class TestPenaltyMonotonicity:
    def test_cost_and_waits_monotone_in_penalty(self):
        rng = random.Random(555)
        checked = 0
        attempts = 0
        while checked < 40 and attempts < 1500:
            attempts += 1
            instance = random_instance(rng)
            if instance is None:
                continue
            rider, offers, net, tt = instance
            ten = build_time_expanded(rider, offers, net, tt, DT_EXACT)
            graph = preprocess(ten)
            if not graph.feasible:
                continue
            penalties = [0.0, DT_EXACT, 4 * DT_EXACT]
            results = [solve_itinerary(graph, rider, p) for p in penalties]
            if any(r is None for r in results):
                continue
            for low, high in zip(results, results[1:]):
                assert high.total_cost >= low.total_cost
                assert high.wait_steps <= low.wait_steps
            checked += 1
        assert checked >= 20
