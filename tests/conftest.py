import random

import pytest

from ridesim.agents import TimeWindow
from ridesim.config import ScenarioConfig, bundled_data_path, load_config
from ridesim.matching import DriverOffer, RiderRequest, ceil_steps, step_durations
from ridesim.network import Link, Network, Node, load_network
from ridesim.routing import dijkstra_route

# dyadic step size so itinerary costs are exactly representable floats;
# exact-equality oracle assertions then never trip over summation order
DT_EXACT = 0.0625


@pytest.fixture(scope="session")
def testbed() -> Network:
    return load_network(bundled_data_path("la_testbed.yaml"))


@pytest.fixture(scope="session")
def free_flow(testbed):
    """Free-flow link steps at dt = 0.05, the step the testbed tests use."""
    return step_durations(testbed, lambda lid: testbed.link(lid).free_flow_time, 0.05)


def scenario(horizon: float, od_rates: dict[tuple[int, int], float],
             shares=(0.0, 0.0, 1.0), **changes) -> ScenarioConfig:
    """The bundled validation scenario over ``horizon`` hours with explicit
    hourly O-D rates at scale 1 and (rider, rideshare, regular) ``shares``;
    ``changes`` set other top-level keys. It passes ``load_config``'s checks,
    as every scenario a simulation is built from does."""
    rider, rideshare, regular = shares
    demand = {
        "shares": {"rider": rider, "rideshare_driver": rideshare,
                   "regular_driver": regular},
        "scale": 1.0,
        "od_rates": {f"{o}-{d}": rate for (o, d), rate in od_rates.items()},
    }
    return load_config(bundled_data_path("validation.yaml"),
                       {"horizon": horizon, "demand": demand, **changes})


def make_network(links: list[tuple[int, int, float]]) -> Network:
    """Network from (from, to, free_flow_time) triples; lengths keep speeds sane."""
    nodes = sorted({n for a, b, _ in links for n in (a, b)})
    return Network(
        nodes=tuple(Node(n) for n in nodes),
        links=tuple(
            Link(id=i, from_node=a, to_node=b, length=max(t * 50.0, 0.1),
                 free_flow_time=t, has_carpool_lane=False)
            for i, (a, b, t) in enumerate(links)
        ),
    )


def random_instance(rng: random.Random):
    """One randomized matching instance: small network, rider, 1-3 drivers.

    Sized to stay within the brute-force oracle's reach: at most 4 physical
    nodes and 12 time steps at DT_EXACT. Some instances place drivers on
    complementary segments of the rider's shortest path so that transfers
    (and the no-re-boarding rule) are genuinely exercised.
    """
    n_nodes = rng.randint(3, 4)
    nodes = list(range(n_nodes))
    links = []
    for a in nodes:
        for b in nodes:
            if a != b and rng.random() < 0.55:
                links.append((a, b, rng.choice([1, 1, 2, 2, 3]) * DT_EXACT))
    if not links:
        a, b = rng.sample(nodes, 2)
        links.append((a, b, 2 * DT_EXACT))
    net = make_network(links)
    tau = step_durations(net, lambda lid: net.link(lid).free_flow_time, DT_EXACT)

    def min_path(o, d):
        return dijkstra_route(net, lambda l: l.free_flow_time, o, d)

    present = net.node_ids()
    connected = [
        (o, d) for o in present for d in present if o != d and min_path(o, d)
    ]
    if not connected:
        return None
    multi_hop = [(o, d) for o, d in connected if len(min_path(o, d).links) >= 2]
    corridor = bool(multi_hop) and rng.random() < 0.6
    origin, dest = rng.choice(multi_hop if corridor else connected)
    rider_path = min_path(origin, dest)
    min_time = rider_path.total_time
    flex = rng.randint(0, 5) * DT_EXACT
    la = min_time + flex
    if la > 12 * DT_EXACT:
        return None
    rider = RiderRequest(
        id=0, origin=origin, destination=dest,
        window=TimeWindow(0.0, flex, min_time, la),
        request_time=0.0,
    )

    def offer_for(i, o, d, start, dflex):
        path = min_path(o, d)
        return DriverOffer(
            id=10 + i, origin=o, destination=d,
            anchor_step=ceil_steps(start, DT_EXACT),
            latest_departure_step=ceil_steps(start + dflex, DT_EXACT),
            latest_arrival_step=ceil_steps(start + path.total_time + dflex, DT_EXACT),
            seats=rng.randint(1, 2),
        )

    offers = []
    if corridor:
        # split the rider's path at an intermediate node between two drivers
        node_seq = [origin] + [net.link(lid).to_node for lid in rider_path.links]
        mid = rng.choice(node_seq[1:-1])
        first_time = min_path(origin, mid).total_time
        stagger = rng.randint(0, 2) * DT_EXACT
        offers.append(offer_for(0, origin, mid,
                                rng.randint(0, 1) * DT_EXACT,
                                rng.randint(0, 3) * DT_EXACT))
        offers.append(offer_for(1, mid, dest,
                                first_time + stagger,
                                rng.randint(0, 3) * DT_EXACT))
        if rng.random() < 0.5:
            o, d = rng.choice(connected)
            offers.append(offer_for(2, o, d, rng.randint(0, 3) * DT_EXACT,
                                    rng.randint(0, 3) * DT_EXACT))
    else:
        for i in range(rng.randint(1, 3)):
            o, d = rng.choice(connected)
            offers.append(offer_for(i, o, d, rng.randint(0, 3) * DT_EXACT,
                                    rng.randint(0, 3) * DT_EXACT))
    return rider, offers, net, tau
