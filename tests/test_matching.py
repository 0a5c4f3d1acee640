import dataclasses
import hashlib
import random

import pytest

import ridesim.matching as matching
from ridesim.agents import TimeWindow
from ridesim.config import bundled_data_path, load_config
from ridesim.experiments import replication_seeds
from ridesim.matching import (
    DriverOffer,
    Pin,
    RiderRequest,
    TimeExpandedNetwork,
    build_time_expanded,
    ceil_steps,
    decode,
    preprocess,
    solve_itinerary,
)
from ridesim.simulation import init_simulation

from conftest import DT_EXACT, random_instance
from oracle import (EnumerationBudgetError, brute_force_itinerary,
                    vertices_on_feasible_paths)


def pipeline(rider, offers, net, tau, dt=DT_EXACT, penalty=DT_EXACT):
    ten = build_time_expanded(rider, offers, net, tau, dt)
    graph = preprocess(ten)
    itinerary = solve_itinerary(graph, penalty) if graph.feasible else None
    return ten, graph, itinerary


def code(ten, node, step):
    """The vertex of ``node`` at ``step`` in ``ten``, by the documented rule."""
    return step * len(ten.nodes) + ten.nodes.index(node)


def decoded_arcs(ten):
    """``ten``'s travel arcs with (node, step) tail and head."""
    return [(decode(tail, ten.nodes), decode(head, ten.nodes), driver, cost)
            for tail, head, driver, cost in ten.travel_arcs]


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
        assert leg.board_step >= offer.anchor_step
        assert leg.alight_step <= offer.latest_arrival_step


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
                             anchor_step=0, latest_departure_step=0,
                             latest_arrival_step=15, seats=2)
        ten = build_time_expanded(rider, [driver], testbed, free_flow, 0.05)
        assert ten.node_intervals[0] == (0, 0)
        assert ten.node_intervals[1] == (5, 5)
        assert ten.node_intervals[2] == (15, 15)
        assert 3 not in ten.node_intervals

    def test_arc_durations_are_rounded_up_travel_times(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.2, 0.72, 1.0), 0.0)
        driver = DriverOffer(id=9, origin=0, destination=2,
                             anchor_step=0, latest_departure_step=4,
                             latest_arrival_step=20, seats=2)
        ten = build_time_expanded(rider, [driver], testbed, free_flow, 0.05)
        for tail, head, _, _ in decoded_arcs(ten):
            link = next(l for l in testbed.links
                        if (l.from_node, l.to_node) == (tail[0], head[0]))
            assert head[1] - tail[1] == ceil_steps(link.free_flow_time, 0.05)

    def test_infeasible_window_empty(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.0, 0.5, 0.5), 0.0)
        ten = build_time_expanded(rider, [], testbed, free_flow, 0.05)
        assert not ten.node_intervals

    def test_no_drivers_no_travel_arcs(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.1, 0.72, 0.9), 0.0)
        ten = build_time_expanded(rider, [], testbed, free_flow, 0.05)
        assert ten.travel_arcs == []
        assert len(ten.forward()) > 0

    def test_links_without_capable_driver_carry_no_arcs(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.2, 0.72, 1.0), 0.0)
        # driver only covers 0->1 within its window
        driver = DriverOffer(id=9, origin=0, destination=1,
                             anchor_step=0, latest_departure_step=2,
                             latest_arrival_step=7, seats=2)
        ten = build_time_expanded(rider, [driver], testbed, free_flow, 0.05)
        assert {(tail[0], head[0]) for tail, head, _, _ in decoded_arcs(ten)} == {(0, 1)}

    def test_full_vehicle_offers_no_arcs(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.2, 0.72, 1.0), 0.0)
        driver = DriverOffer(id=9, origin=0, destination=2,
                             anchor_step=0, latest_departure_step=4,
                             latest_arrival_step=20, seats=1, aboard=1)
        ten = build_time_expanded(rider, [driver], testbed, free_flow, 0.05)
        assert ten.travel_arcs == []

    def test_seat_frees_after_alight_pin(self, testbed, free_flow):
        rider = RiderRequest(0, 1, 2, TimeWindow(0.3, 0.6, 0.8, 1.2), 0.3)
        # vehicle full until it drops its rider at node 1 at step 8 (0.4 h)
        driver = DriverOffer(id=9, origin=0, destination=2,
                             anchor_step=0, latest_departure_step=4,
                             latest_arrival_step=24, seats=1,
                             aboard=1, pins=(Pin(1, 8, "alight", 55),))
        ten = build_time_expanded(rider, [driver], testbed, free_flow, 0.05)
        assert ten.travel_arcs  # the 1->2 leg after the dropoff is offerable
        assert all(tail[1] >= 8 for tail, _, _, _ in decoded_arcs(ten))


def with_pins(rng, offer, net, dt):
    """``offer`` with up to ``seats`` riders aboard, 1-3 board/alight pins in
    step order at random nodes, a later latest arrival so pins can fit, and
    sometimes already underway."""
    first = offer.anchor_step
    last = offer.latest_arrival_step + rng.randint(0, 6)
    aboard = rng.randint(0, offer.seats)
    occupancy = aboard
    pins = []
    for step in sorted(rng.randint(first, last) for _ in range(rng.randint(1, 3))):
        action = "alight" if occupancy and rng.random() < 0.5 else "board"
        occupancy += 1 if action == "board" else -1
        pins.append(Pin(rng.choice(net.node_ids()), step, action, 100 + len(pins)))
    return dataclasses.replace(offer, latest_arrival_step=last, pins=tuple(pins),
                               aboard=aboard, departed=rng.random() < 0.3)


def with_slack(rng, rider, dt):
    """``rider`` with up to three more steps before its latest arrival, an
    earliest arrival that may take some of them up and a latest departure
    that may come earlier, so both can bind before the minimum-time bounds."""
    w = rider.window
    slack = rng.randint(0, 3)
    window = TimeWindow(
        w.earliest_departure,
        rng.randint(0, ceil_steps(w.latest_departure, dt)) * dt,
        w.earliest_arrival + rng.randint(0, slack) * dt,
        w.latest_arrival + slack * dt,
    )
    return dataclasses.replace(rider, window=window)


def reference_ten(rider, offers, net, tau, dt):
    """(vertices, {(tail, head, driver, cost): slot}) of the rider's network,
    by testing every step against the rider's window and each driver's
    ``stops`` chain one at a time; ``full`` counts seat-full slots that would
    otherwise carry an arc."""
    m = matching._min_step_matrix(net, tau)
    w = rider.window
    ed, ld, ea, la = (ceil_steps(t, dt) for t in (
        w.earliest_departure, w.latest_departure, w.earliest_arrival,
        w.latest_arrival))

    def rider_at(node, k):
        return (ed + m[rider.origin][node] <= k <= la - m[node][rider.destination]
                and (node != rider.origin or k <= ld)
                and (node != rider.destination or k >= ea))

    vertices = {(n, k) for n in net.node_ids() for k in range(la + 1)
                if rider_at(n, k)}
    if not {rider.origin, rider.destination} <= {n for n, _ in vertices}:
        return set(), {}, 0

    def driver_at(offer, stops, slot, node, k):
        (a, a_step, _), (b, b_step, _) = stops[slot], stops[slot + 1]
        if (slot == 0 and not offer.departed and node == offer.origin
                and k > offer.latest_departure_step):
            return False
        return a_step + m[a][node] <= k <= b_step - m[node][b]

    arcs, full = {}, 0
    for offer in offers:
        stops = offer.stops()
        occupancies = offer.slot_occupancies()
        for slot in range(len(stops) - 1):
            found = [
                ((link.from_node, k), (link.to_node, k + tau[link.id]), offer.id,
                 tau[link.id] * dt)
                for link in net.links for k in range(la + 1)
                if (link.from_node, k) in vertices
                and (link.to_node, k + tau[link.id]) in vertices
                and driver_at(offer, stops, slot, link.from_node, k)
                and driver_at(offer, stops, slot, link.to_node, k + tau[link.id])
            ]
            if occupancies[slot] >= offer.seats:
                full += bool(found)
                continue
            for arc in found:
                arcs.setdefault(arc, slot)
    return vertices, arcs, full


class TestMultiSlotArcs:
    def test_arcs_match_per_step_reference(self):
        rng = random.Random(4242)
        later_slot_arcs = full_slots = congested_arcs = checked = 0
        while checked < 300:
            instance = random_instance(rng)
            if instance is None:
                continue
            rider, offers, net, tau = instance
            # the build's arc rule rests on the triangle inequality, which
            # holds for any tau: raise each link's steps on some instances
            congested = rng.random() < 0.5
            if congested:
                tau = {lid: steps + rng.randint(0, 2) for lid, steps in tau.items()}
            rider = with_slack(rng, rider, DT_EXACT)
            offers = [with_pins(rng, o, net, DT_EXACT) for o in offers]
            ten = build_time_expanded(rider, offers, net, tau, DT_EXACT)
            vertices, arcs, full = reference_ten(rider, offers, net, tau, DT_EXACT)
            assert {decode(v, ten.nodes) for v in ten.forward()} == vertices
            assert sorted(decoded_arcs(ten)) == sorted(arcs)
            later_slot_arcs += sum(slot > 0 for slot in arcs.values())
            full_slots += full
            if congested:
                congested_arcs += len(arcs)
            checked += 1
        # the instances reach arcs past the first pin, seat-full slots and
        # arcs under congested durations
        assert later_slot_arcs > 0 and full_slots > 0 and congested_arcs > 0


def exactness_instance(seed):
    """The first ``random_instance`` drawn from ``Random(seed)``; an odd
    seed also gives the rider slack and the drivers pins."""
    rng = random.Random(seed)
    instance = None
    while instance is None:
        instance = random_instance(rng)
    rider, offers, net, tau = instance
    if seed % 2:
        rider = with_slack(rng, rider, DT_EXACT)
        offers = [with_pins(rng, o, net, DT_EXACT) for o in offers]
    return rider, offers, net, tau


class TestBoundPruning:
    PENALTIES = (0.0, DT_EXACT / 2, DT_EXACT, 2 * DT_EXACT, 10 * DT_EXACT)
    # found by search over seeds: if buckets are visited in creation order,
    # pruning changes which of two exactly tied itineraries it returns
    # (at penalties 2 dt and 10 dt)
    CREATION_ORDER_SENSITIVE = 29760

    def test_pruned_equals_unpruned(self, monkeypatch):
        incumbent = matching._incumbent
        insert = matching._insert_label
        pruning = True
        inserted = {True: 0, False: 0}

        def counting_insert(bucket, label):
            inserted[pruning] += 1
            return insert(bucket, label)

        monkeypatch.setattr(matching, "_insert_label", counting_insert)
        monkeypatch.setattr(matching, "_incumbent",
                            lambda *args: incumbent(*args) if pruning else matching.INF)
        solved = 0
        for seed in [*range(400), self.CREATION_ORDER_SENSITIVE]:
            rider, offers, net, tau = exactness_instance(seed)
            graph = preprocess(build_time_expanded(rider, offers, net, tau, DT_EXACT))
            for penalty in self.PENALTIES:
                pruning = True
                pruned = solve_itinerary(graph, penalty)
                pruning = False
                assert pruned == solve_itinerary(graph, penalty), (seed, penalty)
                solved += pruned is not None
        assert solved > 500
        assert inserted[True] < inserted[False]


class TestTieChoices:
    # SHA-256 over repr(solve_itinerary(...)) for each instance and penalty
    # below, in order. It pins every exact tie the DP resolves on them: a
    # change to the DP's visiting order or to its labels' keys moves it.
    DIGEST = "c54c9fba353862f28bba8ffd219864030138da29d8c9d3cd7e7ca8584e235143"

    def test_results_match_recorded_digest(self):
        digest = hashlib.sha256()
        for seed in [*range(400), TestBoundPruning.CREATION_ORDER_SENSITIVE]:
            rider, offers, net, tau = exactness_instance(seed)
            graph = preprocess(build_time_expanded(rider, offers, net, tau, DT_EXACT))
            for penalty in TestBoundPruning.PENALTIES:
                digest.update(repr(solve_itinerary(graph, penalty)).encode())
        assert digest.hexdigest() == self.DIGEST


class TestNoReboarding:
    """A chain of 70 drivers with sparse ids above 10**9, so the used set
    of a label runs past 64 bits. The cheapest last hop re-boards the
    first driver; the only other one waits a step for a fresh driver."""

    DRIVERS = [10**9 + 7919 * k + 13 for k in range(70)]
    FRESH = 3 * 10**9 + 1

    def chain(self, fresh=True):
        hops = len(self.DRIVERS)
        intervals = {k: (k, k) for k in range(hops)}
        intervals[hops] = (hops, hops + 1)
        intervals[hops + 1] = (hops + 1, hops + 2)
        ten = TimeExpandedNetwork(0, hops + 1, intervals, [])
        ten.travel_arcs.extend(
            (code(ten, k, k), code(ten, k + 1, k + 1), driver, DT_EXACT)
            for k, driver in enumerate(self.DRIVERS))
        ten.travel_arcs.append((code(ten, hops, hops), code(ten, hops + 1, hops + 1),
                                self.DRIVERS[0], DT_EXACT))
        if fresh:
            ten.travel_arcs.append((code(ten, hops, hops + 1),
                                    code(ten, hops + 1, hops + 2), self.FRESH, DT_EXACT))
        return ten

    def test_refuses_cheaper_reboarding(self):
        ten = self.chain()
        penalty = DT_EXACT
        solved = solve_itinerary(preprocess(ten), penalty)
        assert solved.driver_sequence() == (*self.DRIVERS, self.FRESH)
        assert solved.wait_steps == 1
        # the re-boarding path would have cost one wait less
        assert solved.total_cost == (len(self.DRIVERS) + 1) * DT_EXACT + penalty
        oracle = brute_force_itinerary(ten, penalty)
        assert ((solved.total_cost, solved.wait_steps, len(solved.legs),
                 solved.legs[-1].alight_step, solved.driver_sequence())
                == (oracle.total_cost, oracle.wait_steps, len(oracle.legs),
                    oracle.legs[-1].alight_step, oracle.driver_sequence()))

    def test_reboarding_alone_is_infeasible(self):
        ten = self.chain(fresh=False)
        graph = preprocess(ten)
        assert graph.feasible  # the path exists in the graph
        assert solve_itinerary(graph, DT_EXACT) is None
        assert brute_force_itinerary(ten, DT_EXACT) is None


class TestPinChain:
    def test_decreasing_pin_steps_raise(self):
        offer = DriverOffer(id=1, origin=0, destination=2, anchor_step=0,
                            latest_departure_step=0, latest_arrival_step=20, seats=2,
                            pins=(Pin(1, 9, "board", 5), Pin(2, 8, "alight", 5)))
        with pytest.raises(ValueError, match="pin steps decrease"):
            offer.stops()
        with pytest.raises(ValueError, match="pin steps decrease"):
            offer.slot_occupancies()
        unpinned = dataclasses.replace(offer, pins=())
        assert unpinned.stops() == ((0, 0, False), (2, 20, False))
        with pytest.raises(ValueError, match="pin steps decrease"):
            dataclasses.replace(unpinned, pins=offer.pins).stops()


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

        def recording_build(rider, drivers, network, tau, dt, **kwargs):
            keys.append(tuple(tau[link.id] for link in network.links))
            return build_ten(rider, drivers, network, tau, dt, **kwargs)

        def counting_matrix(network, tau):
            builds.append(tau)
            return fresh_matrix(network, tau)

        monkeypatch.setattr(matching, "build_time_expanded", recording_build)
        monkeypatch.setattr(matching, "_min_step_matrix", counting_matrix)
        sim.run()
        changes = sum(key != prev for prev, key in zip([None] + keys, keys))
        assert len(builds) == changes
        assert 1 < changes < len(keys)


class TestForward:
    """``forward`` alone orders the search graph; the DP's exact ties and
    the oracle's enumeration follow this order."""

    def hand_built(self):
        ten = TimeExpandedNetwork(0, 2, {2: (1, 3), 0: (0, 1), 1: (1, 2)}, [])
        # travel arcs deliberately out of order: by driver, head and tail
        ten.travel_arcs.extend(
            (code(ten, *tail), code(ten, *head), driver, cost)
            for tail, head, driver, cost in [
                ((1, 1), (2, 3), 4, 0.5),
                ((0, 0), (2, 1), 3, 0.25),
                ((0, 0), (1, 1), 9, 0.25),
                ((0, 1), (1, 2), 5, 0.25),
                ((0, 0), (1, 2), 1, 0.5),
                ((0, 0), (1, 1), 3, 0.25),
            ])
        return ten

    def decoded(self, ten, arcs):
        return [(decode(head, ten.nodes), driver, cost) for head, driver, cost in arcs]

    def test_codes_decode_to_node_and_step(self):
        ten = self.hand_built()
        assert ten.nodes == (0, 1, 2)
        for node, (lo, hi) in ten.node_intervals.items():
            for step in range(lo, hi + 1):
                assert decode(code(ten, node, step), ten.nodes) == (node, step)
        assert ten.start_vertex == code(ten, 0, 0)

    def test_vertices_in_step_then_node_order(self):
        ten = self.hand_built()
        forward = list(ten.forward())
        assert forward == sorted(forward)
        assert [decode(v, ten.nodes) for v in forward] == [
            (0, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (2, 3)]

    def test_wait_first_then_travel_arcs_by_head_and_driver(self):
        ten = self.hand_built()
        graph = ten.forward()
        assert self.decoded(ten, graph[code(ten, 0, 0)]) == [
            ((0, 1), None, 0.0),
            ((1, 1), 3, 0.25), ((1, 1), 9, 0.25),
            ((2, 1), 3, 0.25),
            ((1, 2), 1, 0.5),
        ]
        # no wait past the interval
        assert self.decoded(ten, graph[code(ten, 0, 1)]) == [((1, 2), 5, 0.25)]
        assert self.decoded(ten, graph[code(ten, 1, 1)]) == [
            ((1, 2), None, 0.0), ((2, 3), 4, 0.5)]
        assert graph[code(ten, 2, 3)] == []

    def test_preprocess_keeps_forward_order(self):
        ten = self.hand_built()
        graph = preprocess(ten)
        forward = ten.forward()
        assert graph.vertices == [v for v in forward if v in graph.adjacency]
        for vertex in graph.vertices:
            assert graph.adjacency[vertex] == [
                arc for arc in forward[vertex] if arc[0] in graph.adjacency]
        assert graph.ten_vertices == len(forward)


class TestPreprocess:
    def test_exact_window_survivors(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.0, 0.72, 0.72), 0.0)
        driver = DriverOffer(id=9, origin=0, destination=2,
                             anchor_step=0, latest_departure_step=0,
                             latest_arrival_step=15, seats=2)
        ten = build_time_expanded(rider, [driver], testbed, free_flow, 0.05)
        graph = preprocess(ten)
        assert graph.feasible
        assert sorted({decode(v, graph.nodes)[0] for v in graph.vertices}) == [0, 1, 2]

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
        assert (all(decode(v, graph.nodes)[0] == 0 for v in graph.vertices)
                or graph.vertices == [])

    def test_topological_order(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.2, 0.72, 1.1), 0.0)
        driver = DriverOffer(id=9, origin=0, destination=2,
                             anchor_step=0, latest_departure_step=4,
                             latest_arrival_step=22, seats=2)
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
                             anchor_step=0, latest_departure_step=0,
                             latest_arrival_step=15, seats=2)
        _, graph, itinerary = pipeline(rider, [driver], testbed, free_flow,
                                       dt=0.05, penalty=0.05)
        assert itinerary is not None
        assert len(itinerary.legs) == 1
        assert itinerary.total_cost == pytest.approx(0.75)  # 15 steps of 0.05
        assert itinerary.wait_steps == 0

    def test_transfer_with_wait_costs_penalty(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.3, 0.72, 1.2), 0.0)
        a = DriverOffer(id=1, origin=0, destination=1,
                        anchor_step=0, latest_departure_step=0,
                        latest_arrival_step=5, seats=2)
        b = DriverOffer(id=2, origin=1, destination=2,
                        anchor_step=6, latest_departure_step=6,
                        latest_arrival_step=17, seats=2)
        _, _, itinerary = pipeline(rider, [a, b], testbed, free_flow,
                                   dt=0.05, penalty=0.05)
        assert itinerary is not None
        assert [leg.driver for leg in itinerary.legs] == [1, 2]
        assert itinerary.wait_steps == 1
        assert itinerary.total_cost == pytest.approx(0.25 + 0.05 + 0.5)

    def test_faster_of_two_full_covers_wins(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 3, TimeWindow(0.0, 0.4, 0.55, 1.1), 0.0)
        direct = DriverOffer(id=1, origin=0, destination=3,
                             anchor_step=0, latest_departure_step=2,
                             latest_arrival_step=16, seats=2)
        detour = DriverOffer(id=2, origin=0, destination=3,
                             anchor_step=0, latest_departure_step=8,
                             latest_arrival_step=24, seats=2)
        ten = build_time_expanded(rider, [direct, detour], testbed, free_flow, 0.05)
        graph = preprocess(ten)
        itinerary = solve_itinerary(graph, 0.05)
        assert itinerary.legs[0].driver == 1
        assert itinerary.legs[0].alight_step - itinerary.legs[0].board_step == 11

    @pytest.mark.parametrize("penalty", [float("nan"), float("inf"), -0.05])
    def test_bad_penalty_rejected(self, testbed, free_flow, penalty):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.0, 0.72, 0.72), 0.0)
        _, graph, _ = pipeline(rider, [], testbed, free_flow, dt=0.05, penalty=0.05)
        with pytest.raises(ValueError, match="penalty"):
            solve_itinerary(graph, penalty)

    def test_empty_graph_returns_none(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.0, 0.5, 0.5), 0.0)
        _, graph, itinerary = pipeline(rider, [], testbed, free_flow)
        assert not graph.feasible
        assert itinerary is None


class TestBruteForce:
    def test_empty_infeasible(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.0, 0.5, 0.5), 0.0)
        ten = build_time_expanded(rider, [], testbed, free_flow, 0.05)
        assert brute_force_itinerary(ten, 0.05) is None

    def test_single_arc(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 1, TimeWindow(0.0, 0.0, 0.22, 0.22), 0.0)
        driver = DriverOffer(id=3, origin=0, destination=1,
                             anchor_step=0, latest_departure_step=0,
                             latest_arrival_step=5, seats=1)
        ten = build_time_expanded(rider, [driver], testbed, free_flow, 0.05)
        assert len(ten.travel_arcs) == 1
        itinerary = brute_force_itinerary(ten, 0.05)
        assert itinerary.legs[0].driver == 3

    def test_budget_error(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.5, 0.72, 1.5), 0.0)
        offers = [
            DriverOffer(id=i, origin=0, destination=2,
                        anchor_step=0, latest_departure_step=10,
                        latest_arrival_step=30, seats=2)
            for i in range(4)
        ]
        ten = build_time_expanded(rider, offers, testbed, free_flow, 0.05)
        with pytest.raises(EnumerationBudgetError):
            brute_force_itinerary(ten, 0.05, budget=50)


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
                oracle = brute_force_itinerary(ten, penalty)
            except EnumerationBudgetError:
                continue
            graph = preprocess(ten)
            solved = solve_itinerary(graph, penalty) if graph.feasible else None
            if oracle is None:
                assert solved is None
            else:
                assert solved is not None
                # exact ties on these five keys may still differ in their legs
                assert ((solved.total_cost, solved.wait_steps, len(solved.legs),
                         solved.legs[-1].alight_step, solved.driver_sequence())
                        == (oracle.total_cost, oracle.wait_steps, len(oracle.legs),
                            oracle.legs[-1].alight_step, oracle.driver_sequence()))
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
            assert not ((set(ten.forward()) - set(graph.vertices)) & on_paths)
            checked += 1
        assert checked == 100


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
            results = [solve_itinerary(graph, p) for p in penalties]
            if any(r is None for r in results):
                continue
            for low, high in zip(results, results[1:]):
                assert high.total_cost >= low.total_cost
                assert high.wait_steps <= low.wait_steps
            checked += 1
        assert checked >= 20
