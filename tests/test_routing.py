import itertools
import random

import pytest

from ridesim.network import LaneClass, Link, Network, Node, volume_delay
from ridesim.routing import CostWeights, dijkstra_route
from ridesim.simulation import SimState

from conftest import make_network, scenario


def route_costs(network: Network, flows=None, weights=CostWeights()):
    """``SimState.route_cost_fn`` at t=0, with ``flows[link_id]`` vehicles/hour
    in each listed link's general-lane flow window."""
    config = scenario(1.0, {}, weights={"toll": weights.toll, "time": weights.time})
    sim = SimState(config, network, seed=0)
    for link_id, flow in (flows or {}).items():
        sim.link_states[link_id].window[LaneClass.GENERAL].extend(
            [0.0] * round(flow * sim.flow_window))
    return sim.route_cost_fn(0.0)


def one_toll_link(toll: float) -> Network:
    link = Link(id=0, from_node=0, to_node=1, length=10.0,
                free_flow_time=0.5, has_carpool_lane=False, toll=toll)
    return Network(nodes=(Node(0), Node(1)), links=(link,))


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
        path = dijkstra_route(testbed, lambda l: l.free_flow_time, 0, 2)
        assert path.links == (1, 2)
        assert path.total_time == pytest.approx(0.72)

    def test_testbed_0_to_3_direct(self, testbed):
        path = dijkstra_route(testbed, lambda l: l.free_flow_time, 0, 3)
        assert path.links == (0,)
        assert path.total_time == pytest.approx(0.55)

    def test_origin_equals_dest(self, testbed):
        path = dijkstra_route(testbed, lambda l: l.free_flow_time, 0, 0)
        assert path.links == ()
        assert path.total_cost == 0.0

    def test_unreachable(self, testbed):
        assert dijkstra_route(testbed, lambda l: l.free_flow_time, 2, 0) is None

    def test_congested_direct_link_triggers_detour(self, testbed):
        # direct 0->3 is beaten by 0->1->3 once its snapshot cost passes 0.86
        def cost(link):
            return 0.90 if link.id == 0 else link.free_flow_time
        path = dijkstra_route(testbed, cost, 0, 3)
        assert path.links == (1, 3)

    def test_optimal_on_random_networks(self):
        rng = random.Random(4242)
        checked = 0
        for _ in range(100):
            n = rng.randint(3, 8)
            links = []
            for a, b in itertools.permutations(range(n), 2):
                if rng.random() < 0.4:
                    links.append((a, b, rng.uniform(0.01, 1.0)))
            if not links:
                continue
            net = make_network(links)
            costs = {l.id: rng.uniform(0.01, 5.0) for l in net.links}
            origin, dest = rng.sample(net.node_ids(), 2)
            best = dijkstra_route(net, lambda l: costs[l.id], origin, dest)
            hops = net.next_hops(origin, dest)
            assert net.next_hops(origin, dest) is hops
            assert (not hops) == (best is None)
            if best is not None:  # a lone next hop is then Dijkstra's first link
                assert best.links[0] in hops
            paths = enumerate_paths(net, origin, dest)
            if not paths:
                assert best is None
                continue
            expected = min(sum(costs[lid] for lid in p) for p in paths)
            assert best.total_cost == min(
                (sum(costs[lid] for lid in p), p) for p in paths
            )[0]
            assert best.total_cost == expected
            checked += 1
        assert checked >= 50

    def test_tie_break_smallest_link_sequence(self):
        # two parallel equal-cost routes 0->1->3 (links 0,2) and 0->2->3 (links 1,3)
        net = make_network([(0, 1, 0.2), (0, 2, 0.2), (1, 3, 0.2), (2, 3, 0.2)])
        path = dijkstra_route(net, lambda l: 1.0, 0, 3)
        assert path.links == (0, 2)

    def test_weight_scaling_keeps_argmin(self, testbed):
        flows = {0: 4000.0, 1: 1000.0, 2: 2000.0, 3: 500.0}
        for scale in (0.5, 1.0, 3.0):
            weights = CostWeights(1.0 * scale, 1.0 * scale)
            path = dijkstra_route(testbed, route_costs(testbed, flows, weights), 0, 3)
            assert path.links == (0,)

    def test_cost_monotone_in_single_link_flow(self, testbed):
        weights = CostWeights(1.0, 1.0)
        base_flows = {l.id: 1000.0 for l in testbed.links}

        def route_cost(flows):
            path = dijkstra_route(testbed, route_costs(testbed, flows, weights), 0, 2)
            return path.total_cost

        for link_id in base_flows:
            bumped = dict(base_flows)
            bumped[link_id] = 9000.0
            assert route_cost(bumped) >= route_cost(base_flows)
