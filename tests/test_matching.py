import dataclasses
import hashlib
import random
import weakref
from unittest import mock
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ridesim.dp as dp
from ridesim.agents import Role, TimeWindow, VehicleAgent
from ridesim.config import bundled_data_path, load_config
from ridesim.dp import ItineraryLeg, StepCosts, solve_itinerary
from ridesim.experiments import replication_seeds
from ridesim.matching import RiderRequest
from ridesim.network import Network
from ridesim.schedule import Pin, pin_chain
from ridesim.simulation import RideshareVehicle, RunRecord, SimState
from ridesim.ten import (STEP_MATRICES_KEPT, PrunedGraph, TimeExpandedNetwork,
                         _min_step_matrix, build_time_expanded, decode, preprocess,
                         step_matrix)
from ridesim.timegrid import INF, STEP_TOLERANCE, ceil_steps, link_steps, step_due, window_steps

from conftest import (DT_EXACT, Driver, free_slots, make_network, random_instance,
                      recorded_networks, slot_groups, step_digraphs)
from oracle import (EnumerationBudgetError, brute_force_itinerary, cost_bound, expanded,
                    layout, start_vertex, vertices_on_feasible_paths)
from test_golden_outputs import write_grid
from test_simulation import DENSE_SCENARIO


def pipeline(rider, offers, net, tau, dt=DT_EXACT, penalty=DT_EXACT):
    ten = build_time_expanded(rider, slot_groups(offers), net, tau, dt)
    graph = preprocess(ten)
    itinerary = solve_itinerary(graph, StepCosts(dt, penalty)) if graph.feasible else None
    return ten, graph, itinerary


def code(ten, node, step):
    """The vertex of ``node`` at ``step`` in ``ten``, by the documented rule."""
    return step * len(ten.nodes) + ten.nodes.index(node)


def decoded_arcs(ten):
    """``ten``'s travel arcs, each driver's own (the oracle's ``expanded``),
    with (node, step) tail and head."""
    return [(decode(tail, ten.nodes), decode(head, ten.nodes), driver)
            for tail, head, driver in expanded(ten).travel_arcs]


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


def trip_windows():
    """Trip windows within a day whose latest arrival is at least 2 h after
    the earliest departure, so the testbed's 0 -> 2 trip (15 steps of 0.05
    h at free flow) fits at every step size below 0.1 h."""
    hours = st.floats(0.0, 2.0)
    return st.builds(lambda ed, slack, ride, late: TimeWindow(
        ed, ed + slack, ed + ride, ed + 2.0 + ride + late),
        st.floats(0.0, 20.0), hours, hours, hours)


step_sizes = st.floats(0.005, 0.1)


class TestTimeGrid:
    """The three rules by which hours become steps (``timegrid``'s module
    docstring), and the callers that must agree with them."""

    @settings(max_examples=300, deadline=None)
    @given(window=trip_windows(), dt=step_sizes)
    def test_window_steps_round_each_bound_up(self, window, dt):
        bounds = (window.earliest_departure, window.latest_departure,
                  window.earliest_arrival, window.latest_arrival)
        steps = window_steps(window, dt)
        assert steps == tuple(ceil_steps(hours, dt) for hours in bounds)
        for step, hours in zip(steps, bounds):
            # never earlier than the hours it rounds, within the tolerance
            assert step >= hours / dt - STEP_TOLERANCE

    @settings(max_examples=300, deadline=None)
    @given(delay=st.floats(0.0, 10.0), dt=step_sizes)
    def test_link_steps_at_least_one(self, delay, dt):
        steps = link_steps(delay, dt)
        assert steps >= 1 and steps >= ceil_steps(delay, dt)

    @settings(max_examples=300, deadline=None)
    @given(step=st.integers(0, 10**5), dt=step_sizes)
    def test_step_due_at_its_step_not_before(self, step, dt):
        assert step_due(step, step * dt, dt)
        assert not step_due(step, (step - 1) * dt, dt)

    @settings(max_examples=200, deadline=None)
    @given(window=trip_windows(), dt=step_sizes)
    def test_callers_round_windows_by_window_steps(self, testbed, free_flow, window, dt):
        """A ridesharing driver's latest departure and arrival steps, and
        the start of a rider's origin interval, are ``window_steps``'."""
        ed, ld, _, la = window_steps(window, dt)
        agent = VehicleAgent(0, Role.RIDESHARE_DRIVER, 0, 2, window.earliest_departure,
                             window, seats=2)
        vehicle = RideshareVehicle(agent, dt)
        assert (vehicle.latest_departure_step, vehicle.latest_arrival_step) == (ld, la)
        assert vehicle.next_stop == (2, la)
        rider = RiderRequest(1, 0, 2, window, window.earliest_departure)
        ten = build_time_expanded(rider, {}, testbed, free_flow, dt)
        assert ten.node_intervals[0][0] == ed


class TestBuildTimeExpanded:
    def test_exact_window_intervals(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.0, 0.72, 0.72), 0.0)
        driver = Driver(id=9, origin=0, destination=2,
                        anchor_step=0, latest_departure_step=0,
                        latest_arrival_step=15, seats=2)
        ten = build_time_expanded(rider, slot_groups([driver]), testbed, free_flow, 0.05)
        assert ten.node_intervals[0] == (0, 0)
        assert ten.node_intervals[1] == (5, 5)
        assert ten.node_intervals[2] == (15, 15)
        assert 3 not in ten.node_intervals

    def test_arc_durations_are_rounded_up_travel_times(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.2, 0.72, 1.0), 0.0)
        driver = Driver(id=9, origin=0, destination=2,
                        anchor_step=0, latest_departure_step=4,
                        latest_arrival_step=20, seats=2)
        ten = build_time_expanded(rider, slot_groups([driver]), testbed, free_flow, 0.05)
        for tail, head, _ in decoded_arcs(ten):
            link = next(l for l in testbed.links
                        if (l.from_node, l.to_node) == (tail[0], head[0]))
            assert head[1] - tail[1] == ceil_steps(link.free_flow_time, 0.05)

    def test_infeasible_window_empty(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.0, 0.5, 0.5), 0.0)
        ten = build_time_expanded(rider, {}, testbed, free_flow, 0.05)
        assert not ten.node_intervals

    def test_no_drivers_no_travel_arcs(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.1, 0.72, 0.9), 0.0)
        ten = build_time_expanded(rider, {}, testbed, free_flow, 0.05)
        assert ten.travel_arcs == []
        assert len(layout(ten)) > 0

    def test_links_without_capable_driver_carry_no_arcs(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.2, 0.72, 1.0), 0.0)
        # driver only covers 0->1 within its window
        driver = Driver(id=9, origin=0, destination=1,
                        anchor_step=0, latest_departure_step=2,
                        latest_arrival_step=7, seats=2)
        ten = build_time_expanded(rider, slot_groups([driver]), testbed, free_flow, 0.05)
        assert {(tail[0], head[0]) for tail, head, _ in decoded_arcs(ten)} == {(0, 1)}

    def test_full_vehicle_offers_no_arcs(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.2, 0.72, 1.0), 0.0)
        driver = Driver(id=9, origin=0, destination=2,
                        anchor_step=0, latest_departure_step=4,
                        latest_arrival_step=20, seats=1, aboard=1)
        ten = build_time_expanded(rider, slot_groups([driver]), testbed, free_flow, 0.05)
        assert ten.travel_arcs == []

    def test_seat_frees_after_alight_pin(self, testbed, free_flow):
        rider = RiderRequest(0, 1, 2, TimeWindow(0.3, 0.6, 0.8, 1.2), 0.3)
        # vehicle full until it drops its rider at node 1 at step 8 (0.4 h)
        driver = Driver(id=9, origin=0, destination=2,
                        anchor_step=0, latest_departure_step=4,
                        latest_arrival_step=24, seats=1,
                        aboard=1, pins=(Pin(1, 8, "alight", 55),))
        ten = build_time_expanded(rider, slot_groups([driver]), testbed, free_flow, 0.05)
        assert ten.travel_arcs  # the 1->2 leg after the dropoff is offerable
        assert all(tail[1] >= 8 for tail, _, _ in decoded_arcs(ten))


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
    """(vertices, {(tail, head, driver): slot}) of the rider's network,
    by testing every step against the rider's window and each driver's
    stops one at a time; ``full`` counts seat-full slots that would
    otherwise carry an arc."""
    m = _min_step_matrix(net, tau)[0]
    w = rider.window
    # a reference keeps its own copy of ``window_steps``'s rule
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
                and k > max(offer.latest_departure_step, a_step)):
            return False
        return a_step + m[a][node] <= k <= b_step - m[node][b]

    arcs, full = {}, 0
    for offer in offers:
        stops = offer.stops()
        occupancies = offer.chain()[1]
        for slot in range(len(stops) - 1):
            found = [
                ((link.from_node, k), (link.to_node, k + tau[link.id]), offer.id)
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
            ten = build_time_expanded(rider, slot_groups(offers), net, tau, DT_EXACT)
            vertices, arcs, full = reference_ten(rider, offers, net, tau, DT_EXACT)
            assert {decode(v, ten.nodes) for v in layout(ten)} == vertices
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


def exactness_graphs(twinned=False):
    """Each ``exactness_instance``'s pruned graph, its offers also twinned
    under new ids when ``twinned``, as ``TestTieChoices`` and
    ``TestTwinnedTies`` solve them."""
    for seed in [*range(400), TestBoundPruning.CREATION_ORDER_SENSITIVE]:
        rider, offers, net, tau = exactness_instance(seed)
        if twinned:
            offers = offers + [dataclasses.replace(o, id=o.id + 100) for o in offers]
        yield seed, preprocess(build_time_expanded(
            rider, slot_groups(offers), net, tau, DT_EXACT))


def arc_units(graph, vertex, head, driver, costs):
    """The cost of an arc of ``graph`` in ``costs.units``: a wait's, or a
    travel step's times the steps between its ends."""
    travel, wait = costs.units
    if driver is None:
        return wait
    return travel * (decode(head, graph.nodes)[1] - decode(vertex, graph.nodes)[1])


def reference_cost_to_go(graph, costs):
    """By plain recursion over the arcs of ``graph``: the least (cost,
    waits) from each vertex to a destination vertex in lexicographic order,
    the cost in ``costs.units``; the drivers of the arcs reachable from it;
    and the classes (by representative) that carry the rider from it to a
    destination vertex with no transfer along arcs that attain the least
    (cost, waits), every class of the graph at a destination vertex."""
    least, drivers, carriers = {}, {}, {}
    classes = {driver for arcs in graph.adjacency.values() for _, driver in arcs} - {None}

    def cost_to_go(vertex):
        if vertex not in least:
            values = {}  # (head, driver) -> the least (cost, waits) along the arc
            for head, driver in graph.adjacency[vertex]:
                cost, waits = cost_to_go(head)
                values[head, driver] = (cost + arc_units(graph, vertex, head, driver, costs),
                                        waits + (driver is None))
            ends = [(0, 0)] if vertex in graph.dests else []
            least[vertex] = min([*values.values(), *ends], default=(INF, 0))
            drivers[vertex] = {driver for _, driver in graph.adjacency[vertex]
                               if driver is not None}.union(
                *(drivers[head] for head, _ in graph.adjacency[vertex]))
            carriers[vertex] = set(classes) if vertex in graph.dests else {
                rep for (head, driver), value in values.items() if value == least[vertex]
                for rep in carriers[head] if driver in (None, rep)}
        return least[vertex]

    for vertex in graph.vertices:
        cost_to_go(vertex)
    return least, drivers, carriers


def packed(graph, cost, waits, legs=0):
    """(cost, waits, legs) as one key of ``graph``, by the documented rule."""
    radix = len(graph.vertices)
    return (cost * radix + waits) * radix + legs


def reference_incumbent(graph, costs):
    """The walk ``_incumbent`` documents, spelled out over
    ``reference_cost_to_go``, as a packed key: once the class on board
    carries the rider, the rest at the least (cost, waits) and no further
    leg; before that, the first arc that attains the least (cost, waits)
    and boards a class that carries from its head and has a member not yet
    ridden, or else, among such arcs that are a wait, of the class on board
    or of a class with a member not yet ridden, the least by (not a wait,
    not the class on board), the first in arc order among equals; INF when
    there is none, or when the start is a destination vertex."""
    least, _, carriers = reference_cost_to_go(graph, costs)
    vertex, cost, waits, legs, riding, used = graph.start, 0, 0, 0, None, set()

    def free(driver):
        return {driver, *graph.twins.get(driver, ())} - used

    while riding is None or riding not in carriers[vertex]:
        if vertex in graph.dests:
            return INF
        ties = [(head, driver) for head, driver in graph.adjacency[vertex]
                if (arc_units(graph, vertex, head, driver, costs) + least[head][0],
                    (driver is None) + least[head][1]) == least[vertex]
                and (driver in (None, riding) or free(driver))]
        boards = [(head, driver) for head, driver in ties
                  if driver not in (None, riding) and driver in carriers[head]]
        if not ties:
            return INF
        head, driver = boards[0] if boards else min(
            ties, key=lambda t: (t[1] is not None, t[1] != riding))
        if driver not in (None, riding):
            riding = driver
            used.add(min(free(driver)))
            legs += 1
        cost += arc_units(graph, vertex, head, driver, costs)
        waits += driver is None
        vertex = head
    return packed(graph, cost + least[vertex][0], waits + least[vertex][1], legs)


def itinerary_key(graph, itinerary, costs):
    """The packed key of ``itinerary``, found over ``graph``."""
    travel, wait = costs.units
    steps = itinerary.legs[-1].alight_step - decode(graph.start, graph.nodes)[1]
    waits = itinerary.wait_steps
    return packed(graph, travel * (steps - waits) + wait * waits, waits, len(itinerary.legs))


def reversed_arcs(graph):
    """``graph`` with every vertex's arcs in reverse order."""
    return dataclasses.replace(graph, adjacency={
        vertex: arcs[::-1] for vertex, arcs in graph.adjacency.items()})


class TestBoundPruning:
    PENALTIES = (0.0, DT_EXACT / 2, DT_EXACT, 2 * DT_EXACT, 10 * DT_EXACT)
    COSTS = tuple(StepCosts(DT_EXACT, penalty) for penalty in PENALTIES)
    CREATION_ORDER_SENSITIVE = 29760

    def test_pruned_equals_unpruned(self, monkeypatch):
        incumbent = dp._incumbent
        insert = dp._insert_label
        pruning = True
        inserted = {True: 0, False: 0}

        def counting_insert(*args):
            inserted[pruning] += 1
            return insert(*args)

        monkeypatch.setattr(dp, "_insert_label", counting_insert)
        monkeypatch.setattr(dp, "_incumbent",
                            lambda *args: incumbent(*args) if pruning else INF)
        solved = 0
        for seed, graph in exactness_graphs():
            for costs in self.COSTS:
                pruning = True
                pruned = solve_itinerary(graph, costs)
                pruning = False
                assert pruned == solve_itinerary(graph, costs), (seed, costs)
                solved += pruned is not None
        assert solved > 500
        assert inserted[True] < inserted[False]

    @given(rng=st.randoms(use_true_random=False),
           penalty=st.floats(0.0, 10 * DT_EXACT, allow_subnormal=False),
           twinned=st.booleans(), pinned=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_pruned_equals_unpruned_and_oracle_on_drawn_instances(self, rng, penalty, twinned,
                                                                   pinned):
        """A ``random_instance`` at a penalty drawn from [0, 10 dt], its
        offers maybe twinned under new ids, maybe with slack and pins as
        ``exactness_instance`` gives them: the pruned solve equals the solve
        with the incumbent at INF, which prunes nothing, and the oracle's
        itinerary wherever the oracle's enumeration fits its budget."""
        instance = None
        while instance is None:
            instance = random_instance(rng)
        rider, offers, net, tau = instance
        if pinned:
            rider = with_slack(rng, rider, DT_EXACT)
            offers = [with_pins(rng, o, net, DT_EXACT) for o in offers]
        if twinned:
            offers = offers + [dataclasses.replace(o, id=o.id + 100) for o in offers]
        ten = build_time_expanded(rider, slot_groups(offers), net, tau, DT_EXACT)
        graph = preprocess(ten)
        costs = StepCosts(DT_EXACT, penalty)
        pruned = solve_itinerary(graph, costs)
        with mock.patch.object(dp, "_incumbent", lambda *args: INF):
            assert solve_itinerary(graph, costs) == pruned
        try:
            oracle = brute_force_itinerary(ten, costs)
        except EnumerationBudgetError:
            return
        assert pruned == oracle

    def test_cost_to_go_equals_recursion(self):
        """The bound, reach and carriers are the recursion's; each class's
        bits are one run, a bit per member, disjoint from every other
        class's, and keyed by its representative; the offers as drawn and
        twinned."""
        checked = 0
        for twinned in (False, True):
            for seed, graph in exactness_graphs(twinned):
                for costs in self.COSTS:
                    togo, reach, bits, carry = dp._cost_to_go(graph, costs)
                    least, drivers, carriers = reference_cost_to_go(graph, costs)
                    assert togo == {vertex: packed(graph, *least[vertex])
                                    for vertex in graph.vertices}, (seed, costs)
                    assert reach == {vertex: sum(bits[driver] for driver in drivers[vertex])
                                     for vertex in graph.vertices}, (seed, costs)
                    assert carry == {vertex: -1 if vertex in graph.dests else
                                     sum(bits[rep] for rep in carriers[vertex])
                                     for vertex in graph.vertices}, (seed, costs)
                    reps = {driver for arcs in graph.adjacency.values()
                            for _, driver in arcs} - {None}
                    assert set(bits) == reps, (seed, costs)
                    for rep, bit in bits.items():
                        size = 1 + len(graph.twins.get(rep, ()))
                        assert bit == ((1 << size) - 1) * (bit & -bit), (seed, rep)
                    assert sum(bits.values()) == (1 << sum(map(int.bit_count, bits.values()))) - 1
                    checked += len(graph.vertices)
        assert checked > 10000

    def test_incumbent_equals_reference_walk(self):
        """The incumbent is the reference walk's key, no less than the
        optimum's, and equal to it when a class carries the rider from the
        start, as on every request whose optimum rides one leg at the
        bound."""
        walks = single = 0
        for twinned in (False, True):
            for seed, graph in exactness_graphs(twinned):
                if not graph.feasible:
                    continue
                for costs in self.COSTS:
                    togo, _, bits, carry = dp._cost_to_go(graph, costs)
                    limit = dp._incumbent(graph, togo, bits, carry, costs)
                    assert limit == reference_incumbent(graph, costs), (seed, twinned, costs)
                    optimum = solve_itinerary(graph, costs)
                    if optimum is None:
                        assert limit == INF
                        continue
                    key = itinerary_key(graph, optimum, costs)
                    assert key <= limit, (seed, twinned, costs)
                    if carry[graph.start]:
                        assert limit == togo[graph.start] + 1, (seed, twinned, costs)
                    if len(optimum.legs) == 1 and key == togo[graph.start] + 1:
                        assert limit == key, (seed, twinned, costs)
                        single += 1
                    walks += 1
        assert walks > 1000 and single > 500


class TestCanonicalOrder:
    """The optimum is one itinerary whatever order the DP meets the graph
    in: with every vertex's arcs reversed, the buckets are created, the
    labels inserted and the driver bits given in other orders."""

    def test_reversed_arcs_same_itinerary(self):
        solved = 0
        for twinned in (False, True):
            for seed, graph in exactness_graphs(twinned):
                for costs in TestBoundPruning.COSTS:
                    itinerary = solve_itinerary(graph, costs)
                    assert solve_itinerary(reversed_arcs(graph), costs) == itinerary, (
                        seed, twinned, costs)
                    solved += itinerary is not None
        assert solved > 1000

    def test_exact_costs_break_float_ties(self):
        """One leg of 6 steps after a wait, and a transfer: 1 step, a wait,
        5 steps. At a penalty equal to the step cost both cost 7 steps'
        worth, though float sums of their step costs differ (the transfer's
        is smaller); the one leg wins on legs, and its reported cost is 7
        times the step cost."""
        dt = 0.05
        ten = TimeExpandedNetwork(0, 2, {0: (0, 1), 1: (1, 2), 2: (7, 7)}, [])
        ten.travel_arcs += [(code(ten, 0, 1), code(ten, 2, 7), 7),
                            (code(ten, 0, 0), code(ten, 1, 1), 8),
                            (code(ten, 1, 2), code(ten, 2, 7), 9)]
        assert 1 * dt + dt + 5 * dt < dt + 6 * dt
        costs = StepCosts(dt, dt)
        itinerary = solve_itinerary(preprocess(ten), costs)
        assert [leg.driver for leg in itinerary.legs] == [7]
        assert itinerary == brute_force_itinerary(ten, costs)
        assert itinerary.total_cost == 7 * dt

    def test_seat_time_breaks_remaining_ties(self):
        """Driver 4 carries the rider from node 0 to node 1 leaving at step 0
        or at step 1, and driver 5 on from node 1 at step 2: either way the
        itinerary spans 3 steps with one wait, two legs and the drivers
        (4, 5). The later boarding, which waits before it, wins."""
        ten = TimeExpandedNetwork(0, 2, {0: (0, 1), 1: (1, 2), 2: (3, 3)}, [])
        ten.travel_arcs += [(code(ten, 0, 0), code(ten, 1, 1), 4),
                            (code(ten, 0, 1), code(ten, 1, 2), 4),
                            (code(ten, 1, 2), code(ten, 2, 3), 5)]
        costs = StepCosts(DT_EXACT, DT_EXACT)
        itinerary = solve_itinerary(preprocess(ten), costs)
        assert itinerary.legs == (ItineraryLeg(4, 0, 1, 1, 2),
                                  ItineraryLeg(5, 1, 2, 2, 3))
        assert itinerary == brute_force_itinerary(ten, costs)
        assert solve_itinerary(reversed_arcs(preprocess(ten)), costs) == itinerary


class TestStepCosts:
    def test_units_keep_the_exact_ratio(self):
        assert StepCosts(0.05, 0.05).units == (1, 1)
        assert StepCosts(DT_EXACT, DT_EXACT / 2).units == (2, 1)
        assert StepCosts(DT_EXACT, 0.0).units == (1, 0)
        assert StepCosts(0.0, 0.0).units == (0, 0)
        travel, wait = StepCosts(0.05, 0.1 / 3).units
        assert Fraction(wait, travel) == Fraction(0.1 / 3) / Fraction(0.05)

    @pytest.mark.parametrize("travel, wait", [(0.05, float("nan")), (0.05, -0.05),
                                              (float("inf"), 0.05), (-0.05, 0.05)])
    def test_bad_costs_rejected(self, travel, wait):
        with pytest.raises(ValueError):
            StepCosts(travel, wait)


class TestTieChoices:
    # SHA-256 over repr(solve_itinerary(...)) for each instance and penalty
    # below, in order. It pins every tie the canonical order resolves on
    # them: a change to that order or to the costs moves it.
    DIGEST = "f46f6830b6a752288ed3e5684dec2e3b8886420928615ee799422c53e8caae2c"

    def test_results_match_recorded_digest(self):
        digest = hashlib.sha256()
        for _, graph in exactness_graphs():
            for costs in TestBoundPruning.COSTS:
                digest.update(repr(solve_itinerary(graph, costs)).encode())
        assert digest.hexdigest() == self.DIGEST


class TestTwinnedTies:
    # SHA-256 over repr(solve_itinerary(...)) for TestTieChoices' instances
    # and penalties, every offer twinned under a new id as in TestBuildDigest.
    # A twin rides every arc its original rides, so single-leg finalists tie
    # in pairs, which the driver sequence decides. It equals
    # TestTieChoices.DIGEST: every tie goes to the original's smaller id.
    DIGEST = "f46f6830b6a752288ed3e5684dec2e3b8886420928615ee799422c53e8caae2c"

    def test_results_match_recorded_digest(self):
        digest = hashlib.sha256()
        for _, graph in exactness_graphs(twinned=True):
            for costs in TestBoundPruning.COSTS:
                digest.update(repr(solve_itinerary(graph, costs)).encode())
        assert digest.hexdigest() == self.DIGEST

    def test_single_leg_tie_goes_to_smaller_id_visited_second(self):
        """Both routes from node 0 to node 3 take 3 steps. Driver 20 may take
        either; driver 10, pinned to board another rider at node 2 by step
        2, only the one through node 2. At the destination vertex driver
        20's label arrives first, from the tail at node 1, yet the tie goes
        to the smaller driver sequence."""
        net = make_network([(0, 1, DT_EXACT), (1, 3, 2 * DT_EXACT),
                            (0, 2, 2 * DT_EXACT), (2, 3, DT_EXACT)])
        tau = {link.id: round(link.free_flow_time / DT_EXACT) for link in net.links}
        rider = RiderRequest(0, 0, 3, TimeWindow(0.0, 0.0, 3 * DT_EXACT, 3 * DT_EXACT), 0.0)
        free = Driver(id=20, origin=0, destination=3, anchor_step=0,
                      latest_departure_step=0, latest_arrival_step=3, seats=2)
        pinned = dataclasses.replace(free, id=10, pins=(
            Pin(2, 2, "board", 77), Pin(3, 3, "alight", 77)))
        graph = preprocess(build_time_expanded(
            rider, slot_groups([free, pinned]), net, tau, DT_EXACT))
        head = code(graph, 3, 3)
        assert [driver for _, driver in graph.adjacency[code(graph, 1, 1)]] == [20]
        assert [driver for _, driver in graph.adjacency[code(graph, 2, 2)]] == [10, 20]
        assert all(arc[0] == head for v in (code(graph, 1, 1), code(graph, 2, 2))
                   for arc in graph.adjacency[v])
        itinerary = solve_itinerary(graph, StepCosts(DT_EXACT, DT_EXACT))
        assert [leg.driver for leg in itinerary.legs] == [10]


class TestBuildDigest:
    # SHA-256 over the sorted travel arcs, each driver's own (the oracle's
    # ``expanded``), and sorted(ten.node_intervals.items()) for each
    # instance below, built from its offers and again with every offer
    # twinned under a new id, so that slots repeat. It was recorded from
    # the build that ran the arc rule once per slot of every offer, whose
    # arcs were (tail, head, driver, cost) with the cost steps * dt; the
    # build that runs it once per slot of each distinct free schedule, with
    # arcs (tail, head, driver), must match it, each arc hashed with the
    # cost its vertex codes give.
    DIGEST = "8c1e65163499b66cbc47178a51acb825f11c4daebff84a85f1886c1c378d3ba6"

    def test_networks_match_recorded_digest(self):
        digest = hashlib.sha256()
        for seed in [*range(400), TestBoundPruning.CREATION_ORDER_SENSITIVE]:
            rider, offers, net, tau = exactness_instance(seed)
            twins = [dataclasses.replace(o, id=o.id + 100) for o in offers]
            for drivers in (offers, offers + twins):
                ten = build_time_expanded(rider, slot_groups(drivers), net, tau, DT_EXACT)
                n = len(ten.nodes)
                digest.update(repr(sorted(
                    (tail, head, driver, (head // n - tail // n) * DT_EXACT)
                    for tail, head, driver in expanded(ten).travel_arcs)).encode())
                digest.update(repr(sorted(ten.node_intervals.items())).encode())
        assert digest.hexdigest() == self.DIGEST


class TestSharedSlots:
    def test_drivers_sharing_a_slot_get_its_arcs(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.3, 0.75, 1.2), 0.0)
        shared = Driver(id=3, origin=0, destination=2, anchor_step=0,
                        latest_departure_step=4, latest_arrival_step=22, seats=2)
        # a pinned driver whose first slot, (0, 0) to the pin (2, 22) left
        # by step 4, is the pin-free drivers' one slot
        pinned = Driver(id=5, origin=0, destination=2, anchor_step=0,
                        latest_departure_step=4, latest_arrival_step=30, seats=2,
                        pins=(Pin(2, 22, "board", 77),))
        # the same stops, but underway: no latest departure caps its slot
        departed = dataclasses.replace(shared, id=9, departed=True)
        offers = [dataclasses.replace(shared, id=12), pinned, shared, departed,
                  dataclasses.replace(shared, id=7)]
        assert free_slots(pinned)[0] == free_slots(shared)[0]
        assert free_slots(departed) != free_slots(shared)
        ten = build_time_expanded(rider, slot_groups(offers), testbed, free_flow, 0.05)
        _, arcs, _ = reference_ten(rider, offers, testbed, free_flow, 0.05)
        assert sorted(decoded_arcs(ten)) == sorted(arcs)
        by_driver = {offer.id: set() for offer in offers}
        for tail, head, driver in decoded_arcs(ten):
            by_driver[driver].add((tail, head))
        assert by_driver[3]
        assert by_driver[3] == by_driver[5] == by_driver[7] == by_driver[12]
        assert by_driver[3] < by_driver[9]


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
            (code(ten, k, k), code(ten, k + 1, k + 1), driver)
            for k, driver in enumerate(self.DRIVERS))
        ten.travel_arcs.append((code(ten, hops, hops), code(ten, hops + 1, hops + 1),
                                self.DRIVERS[0]))
        if fresh:
            ten.travel_arcs.append((code(ten, hops, hops + 1),
                                    code(ten, hops + 1, hops + 2), self.FRESH))
        return ten

    def test_refuses_cheaper_reboarding(self):
        ten = self.chain()
        costs = StepCosts(DT_EXACT, DT_EXACT)
        solved = solve_itinerary(preprocess(ten), costs)
        assert [leg.driver for leg in solved.legs] == [*self.DRIVERS, self.FRESH]
        assert solved.wait_steps == 1
        # the re-boarding path would have cost one wait less
        assert solved.total_cost == (len(self.DRIVERS) + 1) * DT_EXACT + DT_EXACT
        assert solved == brute_force_itinerary(ten, costs)

    def test_reboarding_alone_is_infeasible(self):
        ten = self.chain(fresh=False)
        graph = preprocess(ten)
        assert graph.feasible  # the path exists in the graph
        costs = StepCosts(DT_EXACT, DT_EXACT)
        assert solve_itinerary(graph, costs) is None
        assert brute_force_itinerary(ten, costs) is None


def copies(offers, count):
    """``offers`` and ``count - 1`` copies of each, the k-th under id + 100 k."""
    return [dataclasses.replace(offer, id=offer.id + 100 * k)
            for k in range(count) for offer in offers]


@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory):
    """``recorded_networks`` of the run of one scenario, "grid" (``write_grid``)
    or "rideshare-dense", at a seed and, when given, a horizon, with the
    run's step costs, made once per module."""
    runs = {}

    def recorded(scenario, seed, horizon=None):
        key = scenario, seed, horizon
        if key not in runs:
            path = (write_grid(tmp_path_factory.mktemp("grid")) if scenario == "grid"
                    else DENSE_SCENARIO)
            kept, sim = recorded_networks(load_config(path, {"seed": seed, "horizon": horizon}))
            runs[key] = kept, sim.step_costs
        return runs[key]

    return recorded


class TestInterchangeableDrivers:
    """Drivers with the same travel arcs form one class, written once under
    its lowest id; the DP boards a class's lowest free member and rides on
    within it, and finds the optimum over every driver: the one the oracle
    and the DP find on the ``expanded`` network, where every driver is its
    own class."""

    def test_copied_offers_form_classes_and_solve_exactly(self):
        """Every ``exactness_instance`` with each offer twinned and then
        tripled: each offer with an arc shares its class with its copies,
        and the DP's itinerary is the oracle's at every penalty."""
        checked = skipped = classes = 0
        for seed in [*range(400), TestBoundPruning.CREATION_ORDER_SENSITIVE]:
            rider, offers, net, tau = exactness_instance(seed)
            for count in (2, 3):
                ten = build_time_expanded(rider, slot_groups(copies(offers, count)), net, tau,
                                          DT_EXACT)
                class_of = {member: rep for rep, members in ten.twins.items()
                            for member in (rep, *members)}
                riding = {driver for _, _, driver in expanded(ten).travel_arcs}
                for offer in offers:
                    if offer.id in riding:
                        assert {class_of[offer.id + 100 * k] for k in range(count)} == {
                            class_of[offer.id]}, (seed, count, offer.id)
                        classes += 1
                graph = preprocess(ten)
                for costs in TestBoundPruning.COSTS:
                    try:
                        oracle = brute_force_itinerary(ten, costs)
                    except EnumerationBudgetError:
                        skipped += 1
                        continue
                    assert solve_itinerary(graph, costs) == oracle, (seed, count, costs)
                    checked += 1
        assert classes > 700
        assert checked > 4000 and skipped <= 10

    def test_rides_a_twin_after_another_driver(self):
        """A carries the rider from node 0 to 1, X from 1 to 2, and A's class
        alone from 2 to 3: A cannot be boarded again, so the rider takes
        A's lowest twin, A' (A -> X -> A'). Without twins there is no
        itinerary."""
        a, x = 40, 30
        ten = TimeExpandedNetwork(0, 3, {k: (k, k) for k in range(4)}, [])
        ten.travel_arcs += [(code(ten, 0, 0), code(ten, 1, 1), a),
                            (code(ten, 1, 1), code(ten, 2, 2), x),
                            (code(ten, 2, 2), code(ten, 3, 3), a)]
        costs = StepCosts(DT_EXACT, DT_EXACT)
        assert solve_itinerary(preprocess(ten), costs) is None
        ten.twins[a] = (41, 55)
        solved = solve_itinerary(preprocess(ten), costs)
        assert [leg.driver for leg in solved.legs] == [a, x, 41]
        assert solved == brute_force_itinerary(ten, costs)

    def test_rides_on_with_a_twin_it_boarded(self):
        """As above, but A's class carries the rider on for two hops, 2 -> 3
        -> 4: the rider boards A' at node 2 and rides on with it, one leg,
        rather than boarding A's next twin at node 3."""
        a, x = 40, 30
        ten = TimeExpandedNetwork(0, 4, {k: (k, k) for k in range(5)}, [], {a: (41, 55)})
        ten.travel_arcs += [(code(ten, 0, 0), code(ten, 1, 1), a),
                            (code(ten, 1, 1), code(ten, 2, 2), x),
                            (code(ten, 2, 2), code(ten, 3, 3), a),
                            (code(ten, 3, 3), code(ten, 4, 4), a)]
        costs = StepCosts(DT_EXACT, DT_EXACT)
        solved = solve_itinerary(preprocess(ten), costs)
        assert solved.legs[-1] == ItineraryLeg(41, 2, 2, 4, 4)
        assert [leg.driver for leg in solved.legs] == [a, x, 41]
        assert solved == brute_force_itinerary(ten, costs)

    def test_chain_of_twins_past_64_bits(self):
        """``TestNoReboarding``'s chain with every tenth driver twinned, so
        that the used set runs past 64 bits with twins in it: the cheapest
        last hop, in the first driver's class, now boards that driver's
        twin, with no wait."""
        chain = TestNoReboarding()
        ten = chain.chain()
        ten.twins.update({driver: (driver + 1,) for driver in chain.DRIVERS[::10]})
        graph = preprocess(ten)
        costs = StepCosts(DT_EXACT, DT_EXACT)
        bits = dp._cost_to_go(graph, costs)[2]
        assert max(bits.values()).bit_length() > 64 + len(ten.twins)
        solved = solve_itinerary(graph, costs)
        assert [leg.driver for leg in solved.legs] == [*chain.DRIVERS, chain.DRIVERS[0] + 1]
        assert solved.wait_steps == 0
        assert solved.total_cost == (len(chain.DRIVERS) + 1) * DT_EXACT
        assert solved == brute_force_itinerary(ten, costs)

    def test_class_key_reads_later_slots(self):
        """Drivers 3 and 5 share their first slot, 0 -> 1 by step 1, but 5
        has a pin there and a later slot on to node 2: the two are not
        interchangeable, and only 5 carries the rider on."""
        net = make_network([(0, 1, DT_EXACT), (1, 2, DT_EXACT)])
        tau = {link.id: 1 for link in net.links}
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.0, 2 * DT_EXACT, 2 * DT_EXACT), 0.0)
        short = Driver(id=3, origin=0, destination=1, anchor_step=0,
                       latest_departure_step=0, latest_arrival_step=1, seats=2)
        pinned = dataclasses.replace(short, id=5, destination=2, latest_arrival_step=2,
                                     pins=(Pin(1, 1, "board", 77),))
        assert free_slots(short)[0] == free_slots(pinned)[0]
        offers = [short, pinned]
        ten = build_time_expanded(rider, slot_groups(offers), net, tau, DT_EXACT)
        assert ten.twins == {}
        assert sorted(decoded_arcs(ten)) == sorted(reference_ten(rider, offers, net, tau,
                                                                 DT_EXACT)[1])
        solved = solve_itinerary(preprocess(ten), StepCosts(DT_EXACT, DT_EXACT))
        assert [leg.driver for leg in solved.legs] == [5]

    @pytest.mark.parametrize("scenario, seed", [("grid", 101), ("rideshare-dense", 7)])
    def test_live_networks_equal_their_expansion(self, recorded_run, scenario, seed):
        """Every request's network from a 4 h grid run and a ``rideshare
        -dense`` run solves as its ``expanded`` network does, with every
        driver its own class, with no enumeration budget; both runs form
        classes of more than one driver."""
        tens, costs = recorded_run(scenario, seed, 4.0 if scenario == "grid" else None)
        twinned = solved = 0
        for ten in tens:
            result = solve_itinerary(preprocess(ten), costs)
            assert result == solve_itinerary(preprocess(expanded(ten)), costs), ten
            assert ten.driver_arcs == len(expanded(ten).travel_arcs)
            twinned += bool(ten.twins)
            solved += result is not None
        assert len(tens) > 250 and solved > 100 and twinned > 100


class TestCostCertificate:
    """The oracle's driver-blind bound (``oracle.cost_bound``), a backward
    pass over its own layout, certifies the DP's (cost, waits) on every
    request of a live run, with no enumeration budget."""

    @pytest.mark.parametrize("scenario, seed, horizon", [("grid", 5, None), ("grid", 101, 4.0)])
    def test_optimum_is_at_the_bound(self, recorded_run, scenario, seed, horizon):
        """The multi-leg golden run (the grid at seed 5) and the 4 h grid at
        seed 101: a request is feasible exactly when the bound exists, and
        the DP's (cost, waits) is never below it. A request where it is
        above, or where the DP finds no itinerary, is one where the rule
        against re-boarding binds; it is listed, and none is expected.
        Prints how many requests were certified."""
        tens, costs = recorded_run(scenario, seed, horizon)
        travel, wait = Fraction(costs.travel), Fraction(costs.wait)
        certified, binding = 0, []
        for k, ten in enumerate(tens):
            graph = preprocess(ten)
            bound = cost_bound(ten, costs)
            assert (bound is not None) == graph.feasible, k
            if bound is None:
                continue
            itinerary = solve_itinerary(graph, costs)
            if itinerary is None:
                binding.append((k, bound, None))
                continue
            waits = itinerary.wait_steps
            steps = itinerary.legs[-1].alight_step - ten.node_intervals[ten.origin][0]
            found = travel * (steps - waits) + wait * waits, waits
            assert found >= bound, (k, found, bound)
            if found == bound:
                certified += 1
            else:
                binding.append((k, bound, found))
        print(f"{scenario} seed {seed}: {certified} of {len(tens)} requests certified, "
              f"re-boarding binds on {binding}")
        assert binding == []
        assert certified > 50


class TestPinChain:
    """``pin_chain`` refuses pins no valid commit can make, naming the
    driver, and derives a driver's stops, occupancies and later slots."""

    def test_decreasing_pin_steps_raise(self):
        pins = (Pin(1, 9, "board", 5), Pin(2, 8, "alight", 5))
        with pytest.raises(ValueError, match="driver 1: pin steps decrease"):
            pin_chain(1, pins, 0, 2, 2, 20)
        assert pin_chain(1, (), 0, 2, 2, 20) == (((2, 20, False),), (0,), ())

    def test_negative_occupancy_raises(self):
        pins = (Pin(1, 9, "alight", 5),)
        with pytest.raises(ValueError, match="driver 1: negative occupancy"):
            pin_chain(1, pins, 0, 2, 2, 20)
        served = Driver(id=1, origin=0, destination=2, anchor_step=0,
                        latest_departure_step=0, latest_arrival_step=20, seats=2,
                        pins=pins, aboard=1)
        assert served.chain() == (((1, 9, False), (2, 20, False)), (1, 0),
                                  ((1, 9, 2, 20, INF),))
        assert free_slots(served) == ((0, 0, 1, 9, 0), (1, 9, 2, 20, INF))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_drawn_pins(self, data):
        """Pins drawn as (board, alight) pairs, sorted by the commit's key
        and sometimes shuffled: the occupancies are the running count from
        ``aboard``, the stops are the pins' and then the destination by the
        latest arrival step, the later slots are a per-slot reference's over
        the stops after the first, and ValueError comes exactly when a step
        decreases or an occupancy goes negative."""
        pairs = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 12),
                                             st.integers(0, 3), st.integers(0, 4)),
                                   max_size=4))
        pins = []
        for rider, (board_node, board_step, alight_node, ride) in enumerate(pairs):
            pins += [Pin(board_node, board_step, "board", rider),
                     Pin(alight_node, board_step + ride, "alight", rider)]
        pins.sort(key=lambda p: (p.step, 0 if p.action == "alight" else 1, p.rider_id))
        if data.draw(st.booleans()):
            pins = data.draw(st.permutations(pins))
        pins = tuple(pins)
        aboard, seats, destination = (data.draw(st.integers(0, 3)) for _ in range(3))
        latest_arrival_step = data.draw(st.integers(0, 20))
        running = tuple(accumulate((1 if p.action == "board" else -1 for p in pins),
                                   initial=aboard))

        def chain():
            return pin_chain(7, pins, aboard, seats, destination, latest_arrival_step)

        if any(p.step > q.step for p, q in zip(pins, pins[1:])):
            with pytest.raises(ValueError, match="driver 7: pin steps decrease"):
                chain()
        elif min(running) < 0:
            with pytest.raises(ValueError, match="driver 7: negative occupancy"):
                chain()
        else:
            stops, occupancies, later = chain()
            assert occupancies == running
            assert stops == (*((p.node, p.step, p.action == "board") for p in pins),
                             (destination, latest_arrival_step, False))
            assert later == tuple(
                (a, s, b, t, INF)
                for slot, ((a, s, _), (b, t, _)) in enumerate(zip(stops, stops[1:]), 1)
                if running[slot] < seats and s < t)


class TestStepMatrix:
    @settings(max_examples=200, deadline=None)
    @given(step_digraphs())
    def test_paths_sum_to_steps(self, graph):
        """Each path of the matrix runs link to link from its source to its
        node and its steps sum to the matrix entry; an entry is INF, and has
        no path, exactly where no path leads."""
        net, tau = graph
        steps, paths = _min_step_matrix(net, tau)
        for a in net.node_ids():
            for b in net.node_ids():
                if not (a == b or net.next_hops(a, b)):
                    assert steps[a][b] == INF and b not in paths[a]
                    continue
                node = a
                for lid in paths[a][b]:
                    assert net.link(lid).from_node == node
                    node = net.link(lid).to_node
                assert node == b
                assert steps[a][b] == sum(tau[lid] for lid in paths[a][b])


class TestMinStepMemo:
    def test_memo_follows_step_durations(self, testbed):
        tau = {link.id: 3 for link in testbed.links}
        first = step_matrix(testbed, tau)
        assert step_matrix(testbed, dict(tau)) is first
        slower = {**tau, testbed.links[0].id: 40}
        memo = step_matrix(testbed, slower)
        assert memo == _min_step_matrix(testbed, slower)
        assert memo != first

    def test_rebuilds_only_when_step_durations_change(self, monkeypatch):
        config = load_config(bundled_data_path("sweep.yaml"),
                             {"unused_capacity": 0.25})
        network = config.make_network()
        sim = SimState(config, network, replication_seeds(config.seed, 1)[0],
                       record=RunRecord())
        builds = []
        fresh_matrix = _min_step_matrix

        def counting_matrix(network, tau):
            builds.append(tau)
            return fresh_matrix(network, tau)

        monkeypatch.setattr("ridesim.ten._min_step_matrix", counting_matrix)
        sim.run()
        keys = [tuple(tau[link.id] for link in network.links)
                for _, _, tau, _, _ in sim.record.requests]
        changes = sum(key != prev for prev, key in zip([None] + keys, keys))
        assert len(builds) == len(set(keys))  # one build per step state
        assert 1 < len(builds) < changes < len(keys)

    def counted_builds(self, monkeypatch) -> list:
        builds = []
        fresh_matrix = _min_step_matrix

        def counting_matrix(network, tau):
            builds.append(dict(tau))
            return fresh_matrix(network, tau)

        monkeypatch.setattr("ridesim.ten._min_step_matrix", counting_matrix)
        return builds

    @staticmethod
    def fresh_copy(network: Network) -> Network:
        """An equal network object, which the memo does not know."""
        return Network(nodes=network.nodes, links=network.links)

    def test_revisited_state_returns_same_matrix(self, testbed, monkeypatch):
        builds = self.counted_builds(monkeypatch)
        net = self.fresh_copy(testbed)
        tau = {link.id: 3 for link in net.links}
        slower = {**tau, net.links[0].id: 40}
        first = step_matrix(net, tau)
        other = step_matrix(net, slower)
        assert step_matrix(net, dict(tau)) is first
        assert step_matrix(net, dict(slower)) is other
        assert builds == [tau, slower]

    def test_each_network_keeps_its_own_memo(self, testbed, monkeypatch):
        builds = self.counted_builds(monkeypatch)
        net, twin = self.fresh_copy(testbed), self.fresh_copy(testbed)
        tau = {link.id: 3 for link in net.links}
        slower = {**tau, net.links[0].id: 40}
        first = step_matrix(net, tau)
        step_matrix(net, slower)
        assert step_matrix(twin, tau) == first
        assert step_matrix(net, tau) is first
        assert len(builds) == 3

    def test_dropped_network_frees_its_matrices(self, testbed):
        net = self.fresh_copy(testbed)
        step_matrix(net, {link.id: 3 for link in net.links})
        ref = weakref.ref(net)
        del net
        assert ref() is None

    def test_evicts_least_recently_used(self, testbed, monkeypatch):
        builds = self.counted_builds(monkeypatch)
        net = self.fresh_copy(testbed)
        kept = STEP_MATRICES_KEPT
        states = [{**{link.id: 3 for link in net.links}, net.links[0].id: k}
                  for k in range(1, kept + 2)]
        matrices = [step_matrix(net, tau) for tau in states[:kept]]
        assert step_matrix(net, states[0]) is matrices[0]
        step_matrix(net, states[kept])  # evicts states[1]
        assert len(builds) == kept + 1
        for i in (0, *range(2, kept)):
            assert step_matrix(net, states[i]) is matrices[i]
        assert len(builds) == kept + 1
        rebuilt = step_matrix(net, states[1])
        assert rebuilt is not matrices[1] and rebuilt == matrices[1]
        assert len(builds) == kept + 2


class TestForward:
    """The oracle's ``layout`` orders a whole network as ``preprocess``
    orders its survivors; the DP's exact ties and the oracle's enumeration
    follow this order."""

    def hand_built(self):
        ten = TimeExpandedNetwork(0, 2, {2: (1, 3), 0: (0, 1), 1: (1, 2)}, [])
        # travel arcs deliberately out of order: by driver, head and tail
        ten.travel_arcs.extend(
            (code(ten, *tail), code(ten, *head), driver)
            for tail, head, driver in [
                ((1, 1), (2, 3), 4),
                ((0, 0), (2, 1), 3),
                ((0, 0), (1, 1), 9),
                ((0, 1), (1, 2), 5),
                ((0, 0), (1, 2), 1),
                ((0, 0), (1, 1), 3),
            ])
        return ten

    def decoded(self, ten, arcs):
        return [(decode(head, ten.nodes), driver) for head, driver in arcs]

    def test_codes_decode_to_node_and_step(self):
        ten = self.hand_built()
        assert ten.nodes == (0, 1, 2)
        for node, (lo, hi) in ten.node_intervals.items():
            for step in range(lo, hi + 1):
                assert decode(code(ten, node, step), ten.nodes) == (node, step)
        assert start_vertex(ten) == code(ten, 0, 0)

    def test_vertices_in_step_then_node_order(self):
        ten = self.hand_built()
        forward = list(layout(ten))
        assert forward == sorted(forward)
        assert [decode(v, ten.nodes) for v in forward] == [
            (0, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (2, 3)]

    def test_wait_first_then_travel_arcs_by_head_and_driver(self):
        ten = self.hand_built()
        graph = layout(ten)
        assert self.decoded(ten, graph[code(ten, 0, 0)]) == [
            ((0, 1), None),
            ((1, 1), 3), ((1, 1), 9),
            ((2, 1), 3),
            ((1, 2), 1),
        ]
        # no wait past the interval
        assert self.decoded(ten, graph[code(ten, 0, 1)]) == [((1, 2), 5)]
        assert self.decoded(ten, graph[code(ten, 1, 1)]) == [
            ((1, 2), None), ((2, 3), 4)]
        assert graph[code(ten, 2, 3)] == []

    def test_preprocess_keeps_forward_order(self):
        ten = self.hand_built()
        graph = preprocess(ten)
        forward = layout(ten)
        assert graph.vertices == [v for v in forward if v in graph.adjacency]
        for vertex in graph.vertices:
            assert graph.adjacency[vertex] == [
                arc for arc in forward[vertex] if arc[0] in graph.adjacency]
        assert graph.ten_vertices == len(forward)


class TestPreprocess:
    def test_exact_window_survivors(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.0, 0.72, 0.72), 0.0)
        driver = Driver(id=9, origin=0, destination=2,
                        anchor_step=0, latest_departure_step=0,
                        latest_arrival_step=15, seats=2)
        ten = build_time_expanded(rider, slot_groups([driver]), testbed, free_flow, 0.05)
        graph = preprocess(ten)
        assert graph.feasible
        assert sorted({decode(v, graph.nodes)[0] for v in graph.vertices}) == [0, 1, 2]

    def test_empty_ten_infeasible(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.0, 0.5, 0.5), 0.0)
        ten = build_time_expanded(rider, {}, testbed, free_flow, 0.05)
        graph = preprocess(ten)
        assert not graph.feasible
        assert graph.vertices == []

    def test_unreachable_cluster_removed(self, testbed, free_flow):
        # without drivers every non-origin vertex is unreachable
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.1, 0.72, 0.9), 0.0)
        ten = build_time_expanded(rider, {}, testbed, free_flow, 0.05)
        graph = preprocess(ten)
        assert not graph.feasible
        assert (all(decode(v, graph.nodes)[0] == 0 for v in graph.vertices)
                or graph.vertices == [])

    def test_topological_order(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.2, 0.72, 1.1), 0.0)
        driver = Driver(id=9, origin=0, destination=2,
                        anchor_step=0, latest_departure_step=4,
                        latest_arrival_step=22, seats=2)
        ten = build_time_expanded(rider, slot_groups([driver]), testbed, free_flow, 0.05)
        graph = preprocess(ten)
        position = {v: i for i, v in enumerate(graph.vertices)}
        for tail, arcs in graph.adjacency.items():
            for head, _ in arcs:
                assert position[tail] < position[head]


class TestNoArcShortcut:
    """A rider no slot can carry gets a network with no travel arc, which
    ``preprocess`` answers as infeasible at once."""

    def test_failing_slot_builds_the_no_slot_network(self):
        with_vertices = 0
        for seed in [*range(400), TestBoundPruning.CREATION_ORDER_SENSITIVE]:
            rider, offers, net, tau = exactness_instance(seed)
            ed = window_steps(rider.window, DT_EXACT)[0]
            # a slot that ends before the rider's earliest departure step
            failing = {((rider.origin, ed - 2, rider.destination, ed - 1, INF),):
                       [offer.id for offer in offers]}
            ten = build_time_expanded(rider, {}, net, tau, DT_EXACT)
            assert build_time_expanded(rider, failing, net, tau, DT_EXACT) == ten, seed
            assert ten.travel_arcs == []
            graph = preprocess(ten)
            assert (graph.vertices, graph.adjacency, graph.start, graph.dests) == (
                [], {}, None, set()), seed
            assert graph.ten_vertices == len(layout(ten)), seed
            assert solve_itinerary(graph, StepCosts(DT_EXACT, DT_EXACT)) is None, seed
            with_vertices += graph.ten_vertices > 0
        assert with_vertices > 300

    def test_origin_at_destination_still_feasible(self):
        """The shortcut needs the origin to differ from the destination: a
        hand-built network whose origin is its destination, with no travel
        arc, keeps the origin's interval as survivors."""
        ten = TimeExpandedNetwork(0, 0, {0: (2, 5), 1: (3, 4)}, [])
        graph = preprocess(ten)
        assert graph.feasible and graph.start == code(ten, 0, 2)
        survivors = {code(ten, 0, step) for step in range(2, 6)}
        assert set(graph.vertices) == graph.dests == survivors
        assert graph.ten_vertices == len(layout(ten)) == 6


def reference_preprocess(ten):
    """The pruning ``preprocess`` documents, vertex by vertex over the
    oracle's ``layout``: a reached set from the start, then a pass back that
    keeps what of it reaches a destination vertex, with its arcs into
    survivors."""
    graph = layout(ten)
    start = start_vertex(ten)
    reached = {start}
    for vertex, arcs in graph.items():
        if vertex in reached:
            reached.update(head for head, _ in arcs)
    n = len(ten.nodes)
    target = ten.nodes.index(ten.destination) if graph else None
    adjacency, dests = {}, set()
    for vertex in reversed(graph):
        if vertex not in reached:
            continue
        arcs = [arc for arc in graph[vertex] if arc[0] in adjacency]
        if vertex % n == target:
            dests.add(vertex)
        elif not arcs:
            continue
        adjacency[vertex] = arcs
    return PrunedGraph(ten.nodes, sorted(adjacency), adjacency,
                       start if start in adjacency else None, dests, len(graph))


def assert_arc_ends_in_intervals(ten):
    """Every travel arc raises the step, and both its ends lie in their
    nodes' intervals (``TimeExpandedNetwork``)."""
    for tail, head, _ in ten.travel_arcs:
        (i, k), (j, step) = decode(tail, ten.nodes), decode(head, ten.nodes)
        assert k < step
        assert ten.node_intervals[i][0] <= k <= ten.node_intervals[i][1]
        assert ten.node_intervals[j][0] <= step <= ten.node_intervals[j][1]


class TestSurvivorIntervals:
    """``preprocess``'s per-node survivor intervals and their layout equal
    the vertex-by-vertex pruning over the oracle's whole layout."""

    def assert_exact(self, ten):
        """``preprocess`` keeps what the reference keeps of the oracle's
        layout, each driver's own arcs, and lays out a class's arcs once,
        under its representative."""
        assert_arc_ends_in_intervals(ten)
        graph = preprocess(ten)
        reference = reference_preprocess(ten)
        others = {member for members in ten.twins.values() for member in members}
        assert graph == dataclasses.replace(reference, twins=ten.twins, adjacency={
            vertex: [arc for arc in arcs if arc[1] not in others]
            for vertex, arcs in reference.adjacency.items()})
        return graph

    def test_exactness_instances_plain_and_twinned(self):
        feasible = pruned = 0
        for seed in [*range(400), TestBoundPruning.CREATION_ORDER_SENSITIVE]:
            rider, offers, net, tau = exactness_instance(seed)
            twins = [dataclasses.replace(o, id=o.id + 100) for o in offers]
            for drivers in (offers, offers + twins):
                ten = build_time_expanded(rider, slot_groups(drivers), net, tau, DT_EXACT)
                graph = self.assert_exact(ten)
                feasible += graph.feasible
                pruned += graph.feasible and len(graph.vertices) < graph.ten_vertices
        assert feasible > 250 and pruned > 200

    def test_random_instances(self):
        rng = random.Random(31337)
        checked = 0
        while checked < 300:
            instance = random_instance(rng)
            if instance is None:
                continue
            rider, offers, net, tau = instance
            self.assert_exact(build_time_expanded(rider, slot_groups(offers), net, tau,
                                                  DT_EXACT))
            checked += 1

    def test_hand_built_networks(self):
        assert self.assert_exact(TestForward().hand_built()).feasible
        no_arc = TimeExpandedNetwork(0, 2, {0: (0, 3), 1: (1, 2), 2: (2, 4)}, [])
        assert not self.assert_exact(no_arc).feasible
        origin_at_destination = TimeExpandedNetwork(0, 0, {0: (2, 5), 1: (3, 4)}, [])
        assert self.assert_exact(origin_at_destination).feasible
        # a round trip that leaves the destination and comes back
        origin_at_destination.travel_arcs += [
            (code(origin_at_destination, 0, 2), code(origin_at_destination, 1, 3), 1),
            (code(origin_at_destination, 1, 4), code(origin_at_destination, 0, 5), 2)]
        assert len(self.assert_exact(origin_at_destination).vertices) == 6


def offer_cost(itinerary):
    """An optimum's cost, INF where there is none."""
    return INF if itinerary is None else itinerary.total_cost


class TestOfferRemoval:
    """Metamorphic: taking one offer away never lowers the optimal cost,
    and taking away one the optimum does not ride leaves the itinerary as it
    was, None where there is no optimum. These instances make 2,631
    removals, 2,014 of them of an offer the optimum does not ride. Adding
    an offer never raises the optimal cost, and adding one the new optimum
    does not ride leaves the itinerary as it was."""

    PENALTIES = (0.0, DT_EXACT, 2 * DT_EXACT)

    def solved(self, rider, offers, net, tau):
        graph = preprocess(build_time_expanded(rider, slot_groups(offers), net, tau, DT_EXACT))
        return [solve_itinerary(graph, StepCosts(DT_EXACT, penalty))
                for penalty in self.PENALTIES]

    def test_removing_one_offer(self):
        solved, cost = self.solved, offer_cost
        removals = unused = 0
        for seed in range(400):
            rider, offers, net, tau = exactness_instance(seed)
            optima = solved(rider, offers, net, tau)
            for k, offer in enumerate(offers):
                rest = solved(rider, offers[:k] + offers[k + 1:], net, tau)
                for penalty, best, without in zip(self.PENALTIES, optima, rest):
                    assert cost(without) >= cost(best), (seed, offer.id, penalty)
                    removals += 1
                    if best is None or all(leg.driver != offer.id for leg in best.legs):
                        assert without == best, (seed, offer.id, penalty)
                        unused += 1
        assert removals > 2500 and unused > 1900

    def test_adding_one_offer(self):
        """Each added offer is a twin of one already there, under an id
        below every other, so it wins each tie it enters on the driver
        sequence: of 2,631 additions, 658 give an optimum that rides it."""
        additions = used = 0
        for seed in range(400):
            rider, offers, net, tau = exactness_instance(seed)
            optima = self.solved(rider, offers, net, tau)
            for offer in offers:
                twin = dataclasses.replace(offer, id=-1 - offer.id)
                more = self.solved(rider, offers + [twin], net, tau)
                for penalty, best, added in zip(self.PENALTIES, optima, more):
                    assert offer_cost(added) <= offer_cost(best), (seed, offer.id, penalty)
                    additions += 1
                    if added is None or all(leg.driver != twin.id for leg in added.legs):
                        assert added == best, (seed, offer.id, penalty)
                    else:
                        used += 1
        assert additions > 2500 and used > 600


class TestSolveExamples:
    def test_single_driver_exact_cover(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.0, 0.72, 0.72), 0.0)
        driver = Driver(id=9, origin=0, destination=2,
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
        a = Driver(id=1, origin=0, destination=1,
                   anchor_step=0, latest_departure_step=0,
                   latest_arrival_step=5, seats=2)
        b = Driver(id=2, origin=1, destination=2,
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
        direct = Driver(id=1, origin=0, destination=3,
                        anchor_step=0, latest_departure_step=2,
                        latest_arrival_step=16, seats=2)
        detour = Driver(id=2, origin=0, destination=3,
                        anchor_step=0, latest_departure_step=8,
                        latest_arrival_step=24, seats=2)
        ten = build_time_expanded(rider, slot_groups([direct, detour]), testbed, free_flow, 0.05)
        graph = preprocess(ten)
        itinerary = solve_itinerary(graph, StepCosts(0.05, 0.05))
        assert itinerary.legs[0].driver == 1
        assert itinerary.legs[0].alight_step - itinerary.legs[0].board_step == 11

    @pytest.mark.parametrize("penalty", [float("nan"), float("inf"), -0.05])
    def test_bad_penalty_rejected(self, testbed, free_flow, penalty):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.0, 0.72, 0.72), 0.0)
        _, graph, _ = pipeline(rider, [], testbed, free_flow, dt=0.05, penalty=0.05)
        with pytest.raises(ValueError, match="penalty"):
            solve_itinerary(graph, StepCosts(0.05, penalty))

    def test_empty_graph_returns_none(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.0, 0.5, 0.5), 0.0)
        _, graph, itinerary = pipeline(rider, [], testbed, free_flow)
        assert not graph.feasible
        assert itinerary is None


class TestBruteForce:
    def test_empty_infeasible(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.0, 0.5, 0.5), 0.0)
        ten = build_time_expanded(rider, {}, testbed, free_flow, 0.05)
        assert brute_force_itinerary(ten, StepCosts(0.05, 0.05)) is None

    def test_single_arc(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 1, TimeWindow(0.0, 0.0, 0.22, 0.22), 0.0)
        driver = Driver(id=3, origin=0, destination=1,
                        anchor_step=0, latest_departure_step=0,
                        latest_arrival_step=5, seats=1)
        ten = build_time_expanded(rider, slot_groups([driver]), testbed, free_flow, 0.05)
        assert len(ten.travel_arcs) == 1
        itinerary = brute_force_itinerary(ten, StepCosts(0.05, 0.05))
        assert itinerary.legs[0].driver == 3

    def test_budget_error(self, testbed, free_flow):
        rider = RiderRequest(0, 0, 2, TimeWindow(0.0, 0.5, 0.72, 1.5), 0.0)
        offers = [
            Driver(id=i, origin=0, destination=2,
                   anchor_step=0, latest_departure_step=10,
                   latest_arrival_step=30, seats=2)
            for i in range(4)
        ]
        ten = build_time_expanded(rider, slot_groups(offers), testbed, free_flow, 0.05)
        with pytest.raises(EnumerationBudgetError):
            brute_force_itinerary(ten, StepCosts(0.05, 0.05), budget=50)


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
            costs = StepCosts(DT_EXACT, rng.choice([0.0, DT_EXACT / 2, DT_EXACT, 2 * DT_EXACT]))
            ten = build_time_expanded(rider, slot_groups(offers), net, tt, DT_EXACT)
            try:
                oracle = brute_force_itinerary(ten, costs)
            except EnumerationBudgetError:
                continue
            graph = preprocess(ten)
            solved = solve_itinerary(graph, costs) if graph.feasible else None
            assert solved == oracle
            if oracle is not None:
                offers_by_id = {o.id: o for o in offers}
                assert_itinerary_invariants(solved, rider, offers_by_id, DT_EXACT)
                assert_itinerary_invariants(oracle, rider, offers_by_id, DT_EXACT)
            agree += 1
        assert agree == 100

    def test_exactness_instances_plain_and_twinned(self):
        """The DP's itinerary is the oracle's on every ``exactness_instance``
        at every ``TestBoundPruning`` penalty, with its offers as drawn and
        twinned, where single-leg optima tie in pairs."""
        checked = skipped = 0
        for twinned in (False, True):
            for seed in [*range(400), TestBoundPruning.CREATION_ORDER_SENSITIVE]:
                rider, offers, net, tau = exactness_instance(seed)
                if twinned:
                    offers = offers + [dataclasses.replace(o, id=o.id + 100) for o in offers]
                ten = build_time_expanded(rider, slot_groups(offers), net, tau, DT_EXACT)
                graph = preprocess(ten)
                for costs in TestBoundPruning.COSTS:
                    try:
                        oracle = brute_force_itinerary(ten, costs)
                    except EnumerationBudgetError:
                        skipped += 1
                        continue
                    assert solve_itinerary(graph, costs) == oracle, (seed, twinned, costs)
                    checked += 1
        assert checked > 3900 and skipped < 100

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
            ten = build_time_expanded(rider, slot_groups(offers), net, tt, DT_EXACT)
            graph = preprocess(ten)
            try:
                on_paths = vertices_on_feasible_paths(ten)
            except EnumerationBudgetError:
                continue
            assert not ((set(layout(ten)) - set(graph.vertices)) & on_paths)
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
            ten = build_time_expanded(rider, slot_groups(offers), net, tt, DT_EXACT)
            graph = preprocess(ten)
            if not graph.feasible:
                continue
            penalties = [0.0, DT_EXACT, 4 * DT_EXACT]
            results = [solve_itinerary(graph, StepCosts(DT_EXACT, p)) for p in penalties]
            if any(r is None for r in results):
                continue
            for low, high in zip(results, results[1:]):
                assert high.total_cost >= low.total_cost
                assert high.wait_steps <= low.wait_steps
            checked += 1
        assert checked >= 20
