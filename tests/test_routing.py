import itertools
import random

import pytest
from hypothesis import given, settings

from ridesim.demand import free_flow_paths
from ridesim.network import LaneClass, Link, Network, volume_delay
from ridesim.routing import CostWeights, dijkstra_route, shortest_paths
from ridesim.simulation import SimState

from conftest import make_network, scenario, step_digraphs


def route_costs(network: Network, flows=None, weights=CostWeights()):
    """``SimState.route_cost_fn`` at t=0, with ``flows[link_id]`` vehicles/hour
    in each listed link's general-lane flow window."""
    config = scenario(1.0, {}, weights={"toll": weights.toll, "time": weights.time})
    sim = SimState(config, network, seed=0)
    for link_id, flow in (flows or {}).items():
        sim.lanes[link_id, LaneClass.GENERAL].entries.extend(
            [0.0] * round(flow * sim.flow_window))
    return sim.route_cost_fn(0.0)


def one_toll_link(toll: float) -> Network:
    link = Link(id=0, from_node=0, to_node=1, length=10.0,
                free_flow_time=0.5, has_carpool_lane=False, toll=toll)
    return Network(nodes=(0, 1), links=(link,))


def enumerate_paths(net: Network, origin: int, dest: int):
    """All loop-free origin->dest link sequences, by depth-first search."""
    out = []

    def walk(node, visited, links):
        if node == dest:
            out.append(tuple(links))
            return
        for link_id in net.adjacency[node]:
            link = net.link(link_id)
            if link.to_node in visited:
                continue
            walk(link.to_node, visited | {link.to_node}, links + [link_id])

    walk(origin, {origin}, [])
    return out


def random_network(rng: random.Random):
    """(network, cost per link id) on 3-8 nodes, each ordered pair linked
    with probability 0.4; None where no pair is."""
    n = rng.randint(3, 8)
    links = []
    for a, b in itertools.permutations(range(n), 2):
        if rng.random() < 0.4:
            links.append((a, b, rng.uniform(0.01, 1.0)))
    if not links:
        return None
    net = make_network(links)
    return net, {l.id: rng.uniform(0.01, 5.0) for l in net.links}


def assert_route_choices(net: Network, costs: dict[int, float]) -> int:
    """Check ``route_choices`` and ``dijkstra_route`` for every pair of
    ``net``; the number of pairs with more than one branch.

    ``dijkstra_route`` returns the route the search itself finds
    (``shortest_paths``), under ``costs``, under whole costs with exact
    ties and zeros, and under float costs whose sums round. The branches are
    given exactly where each next hop of the origin starts a loop-free path,
    no two paths share an inner node and every inner node has one next hop;
    then they are those paths, in next-hop order. Elsewhere the choices are
    None, also where a path is lone but a node on it has a second next hop,
    one whose every way to the destination passes a node the path has
    visited (with links 0->1, 1->0 and 0->2, 0->2 is the one path, but 0->1
    also reaches 2)."""
    variants = [costs, {lid: round(cost) % 3 for lid, cost in costs.items()},
                {lid: 0.1 * (round(cost) % 3 + 1) for lid, cost in costs.items()}]
    multi = 0
    for origin in net.node_ids():
        for dest in net.node_ids():
            for variant in variants:
                def cost(link, variant=variant):
                    return variant[link.id]
                entry = shortest_paths(net, cost, origin, dest).get(dest)
                assert dijkstra_route(net, cost, origin, dest) == \
                    (None if entry is None else entry[1])
            choices = net.route_choices(origin, dest)
            assert net.route_choices(origin, dest) is choices
            if origin == dest:
                assert choices == ((),)
                continue
            paths = enumerate_paths(net, origin, dest)
            hops = net.next_hops(origin, dest)
            inner = [net.link(lid).from_node for path in paths for lid in path[1:]]
            if not (len(paths) == len(hops) and len(set(inner)) == len(inner)
                    and all(len(net.next_hops(node, dest)) == 1 for node in inner)):
                assert choices is None
                continue
            assert sorted(choices) == sorted(paths)
            assert tuple(route[0] for route in choices) == hops
            multi += len(choices) > 1
    return multi


class TestLinkCost:
    def test_reduces_to_free_flow(self, testbed):
        cost = route_costs(testbed)(testbed.link(1))
        assert cost == pytest.approx(0.22)

    def test_toll_plus_time(self):
        net = one_toll_link(2.0)
        assert route_costs(net)(net.link(0)) == pytest.approx(2.5)

    def test_zero_time_weight_ignores_flow(self):
        net = one_toll_link(3.0)
        weights = CostWeights(toll=2.0, time=0.0)
        for flow in (0.0, 500.0, 8000.0):
            cost = route_costs(net, {0: flow}, weights)(net.link(0))
            assert cost == pytest.approx(6.0)

    def test_negative_flow_rejected(self, testbed):
        with pytest.raises(ValueError):
            volume_delay(testbed.link(0), LaneClass.GENERAL, -5.0, 0.15, 4.0)

    def test_degenerate_weights_rejected(self):
        with pytest.raises(ValueError):
            CostWeights(0.0, 0.0)


class TestDijkstra:
    def test_testbed_0_to_2(self, testbed):
        assert dijkstra_route(testbed, lambda l: l.free_flow_time, 0, 2) == (1, 2)
        assert free_flow_paths(testbed, [(0, 2)]) == {(0, 2): ((1, 2), pytest.approx(0.72))}

    def test_testbed_0_to_3_direct(self, testbed):
        assert dijkstra_route(testbed, lambda l: l.free_flow_time, 0, 3) == (0,)
        assert free_flow_paths(testbed, [(0, 3)]) == {(0, 3): ((0,), pytest.approx(0.55))}

    def test_origin_equals_dest(self, testbed):
        assert dijkstra_route(testbed, lambda l: l.free_flow_time, 0, 0) == ()

    def test_unreachable(self, testbed):
        assert dijkstra_route(testbed, lambda l: l.free_flow_time, 2, 0) is None

    def test_congested_direct_link_triggers_detour(self, testbed):
        # direct 0->3 is beaten by 0->1->3 once its snapshot cost passes 0.86
        def cost(link):
            return 0.90 if link.id == 0 else link.free_flow_time
        assert dijkstra_route(testbed, cost, 0, 3) == (1, 3)

    def test_optimal_on_random_networks(self):
        rng = random.Random(4242)
        checked = 0
        for _ in range(100):
            drawn = random_network(rng)
            if drawn is None:
                continue
            net, costs = drawn
            origin, dest = rng.sample(net.node_ids(), 2)
            best = dijkstra_route(net, lambda l: costs[l.id], origin, dest)
            hops = net.next_hops(origin, dest)
            assert net.next_hops(origin, dest) is hops
            assert (not hops) == (best is None)
            if best is not None:  # a lone next hop is then Dijkstra's first link
                assert best[0] in hops
            paths = enumerate_paths(net, origin, dest)
            if not paths:
                assert best is None
                continue
            expected = min(sum(costs[lid] for lid in p) for p in paths)
            assert sum(costs[lid] for lid in best) == expected
            checked += 1
        assert checked >= 50

    @settings(max_examples=200, deadline=None)
    @given(step_digraphs())
    def test_tree_entries_are_routes(self, graph):
        """Every entry of a full ``shortest_paths`` tree is the route
        ``dijkstra_route`` returns for that destination, searched or not
        (``Network.route_choices``), and the least (cost, link ids) over
        every loop-free path, its int cost the sum over its links;
        unreachable nodes have no entry."""
        net, costs = graph

        def cost(link):
            return costs[link.id]

        for origin in net.node_ids():
            tree = shortest_paths(net, cost, origin)
            for dest in net.node_ids():
                paths = enumerate_paths(net, origin, dest)
                route = dijkstra_route(net, cost, origin, dest)
                if not paths:
                    assert route is None and dest not in tree
                    continue
                total, links = tree[dest]
                assert links == route
                assert type(total) is int and total == sum(costs[lid] for lid in links)
                assert (total, links) == min(
                    (sum(costs[lid] for lid in path), path) for path in paths)

    @settings(max_examples=200, deadline=None)
    @given(step_digraphs())
    def test_route_choices_match_dijkstra(self, graph):
        """``route_choices`` gives every loop-free path exactly where they
        are disjoint forced branches, () where none leads and None
        otherwise, and ``dijkstra_route`` returns the route the search
        finds; a repeated lookup returns the same object."""
        assert_route_choices(*graph)

    def test_route_choices_on_random_networks(self):
        rng = random.Random(4242)
        multi = 0
        for _ in range(1000):
            drawn = random_network(rng)
            if drawn is not None:
                multi += assert_route_choices(*drawn)
        assert multi > 300

    def test_dijkstra_route_rejects_a_negative_cost(self, testbed):
        """A negative cost fails wherever a cost is read: at a priced fork
        as in a search. A lone route reads no cost, so it is returned."""
        assert testbed.route_choices(0, 3) == ((0,), (1, 3))
        assert testbed.route_choices(1, 3) == ((3,),)

        def cost(link):
            return -1.0 if link.id == 3 else link.free_flow_time

        with pytest.raises(ValueError, match="negative cost on link 3"):
            dijkstra_route(testbed, cost, 0, 3)
        with pytest.raises(ValueError, match="negative cost on link 3"):
            shortest_paths(testbed, cost, 1)
        assert dijkstra_route(testbed, cost, 1, 3) == (3,)

    def test_tie_break_smallest_link_sequence(self):
        # two parallel equal-cost routes 0->1->3 (links 0,2) and 0->2->3 (links 1,3)
        net = make_network([(0, 1, 0.2), (0, 2, 0.2), (1, 3, 0.2), (2, 3, 0.2)])
        assert dijkstra_route(net, lambda l: 1.0, 0, 3) == (0, 2)

    def test_weight_scaling_keeps_argmin(self, testbed):
        flows = {0: 4000.0, 1: 1000.0, 2: 2000.0, 3: 500.0}
        for scale in (0.5, 1.0, 3.0):
            weights = CostWeights(1.0 * scale, 1.0 * scale)
            assert dijkstra_route(testbed, route_costs(testbed, flows, weights),
                                  0, 3) == (0,)

    def test_cost_monotone_in_single_link_flow(self, testbed):
        weights = CostWeights(1.0, 1.0)
        base_flows = {l.id: 1000.0 for l in testbed.links}

        def route_cost(flows):
            cost = route_costs(testbed, flows, weights)
            return sum(cost(testbed.link(lid))
                       for lid in dijkstra_route(testbed, cost, 0, 2))

        for link_id in base_flows:
            bumped = dict(base_flows)
            bumped[link_id] = 9000.0
            assert route_cost(bumped) >= route_cost(base_flows)
