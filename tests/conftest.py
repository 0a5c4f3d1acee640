import random
from dataclasses import dataclass

import pytest
from hypothesis import strategies as st

import ridesim.matching as matching
from ridesim.agents import TimeWindow
from ridesim.config import ScenarioConfig, bundled_data_path, load_config
from ridesim.experiments import run_single
from ridesim.matching import RiderRequest
from ridesim.network import Link, Network, load_network
from ridesim.routing import dijkstra_route
from ridesim.schedule import Pin, free_slot, pin_chain
from ridesim.timegrid import INF, ceil_steps, link_steps

# dyadic step size so itinerary costs are exactly representable floats;
# exact-equality oracle assertions then never trip over summation order
DT_EXACT = 0.0625


def step_durations(network: Network, delay, dt: float) -> dict[int, int]:
    """Whole steps to traverse each link at ``delay(link)`` hours, at least
    one (``link_steps``), as ``SimState.matching_steps`` rounds them."""
    return {link.id: link_steps(delay(link), dt) for link in network.links}


@dataclass(frozen=True)
class Driver:
    """One ridesharing driver as plain values, nothing derived: its anchor,
    ``origin`` from ``anchor_step``, its own latest departure and arrival
    steps, its seats, the ``pins`` still ahead, the riders ``aboard`` and
    whether it has ``departed`` (is underway). Its stops come from
    ``pin_chain``."""

    id: int
    origin: int
    destination: int
    anchor_step: int
    latest_departure_step: int
    latest_arrival_step: int
    seats: int
    pins: tuple[Pin, ...] = ()
    aboard: int = 0
    departed: bool = False

    def chain(self):
        """The ``pin_chain`` of its pins: (stops after the anchor,
        occupancies, later slots)."""
        return pin_chain(self.id, self.pins, self.aboard, self.seats,
                         self.destination, self.latest_arrival_step)

    def stops(self) -> tuple:
        """Its whole schedule: the anchor stop, then the chain's stops."""
        return ((self.origin, self.anchor_step, False), *self.chain()[0])


def free_slots(driver: Driver) -> tuple:
    """Every free slot of ``driver``, in order: its first, from the anchor
    to the chain's first stop, if it has one, then the chain's later slots;
    the slots ``SimState.collect_offers`` adds for a vehicle with these
    values."""
    stops, _, later = driver.chain()
    b, t, _ = stops[0]
    first = free_slot(driver.origin, driver.anchor_step, b, t, driver.aboard, driver.seats,
                      INF if driver.departed else driver.latest_departure_step)
    return later if first is None else (first, *later)


def slot_groups(drivers) -> dict:
    """The drivers' free slots as ``SimState.collect_offers`` hands them to
    ``build_time_expanded``: each distinct free schedule (``free_slots``)
    with the ids of the drivers that have it, in driver order; a driver
    with no free slot is not listed."""
    groups: dict = {}
    for driver in drivers:
        schedule = free_slots(driver)
        if schedule:
            groups.setdefault(schedule, []).append(driver.id)
    return groups


def recorded_networks(config):
    """One run of ``config`` (``run_single``): every request's network, in
    request order, kept by wrapping ``build_time_expanded`` where
    ``match_rider`` looks it up, and the run's ``SimState``."""
    kept = []
    build = matching.build_time_expanded

    def keeping(*args, **kwargs):
        kept.append(build(*args, **kwargs))
        return kept[-1]

    matching.build_time_expanded = keeping
    try:
        sim, _ = run_single(config)
    finally:
        matching.build_time_expanded = build
    return kept, sim


@pytest.fixture(scope="session")
def testbed() -> Network:
    return load_network(bundled_data_path("la_testbed.yaml"))


@pytest.fixture(scope="session")
def free_flow(testbed):
    """Free-flow link steps at dt = 0.05, the step the testbed tests use."""
    return step_durations(testbed, lambda link: link.free_flow_time, 0.05)


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
        nodes=tuple(nodes),
        links=tuple(
            Link(id=i, from_node=a, to_node=b, length=max(t * 50.0, 0.1),
                 free_flow_time=t, has_carpool_lane=False)
            for i, (a, b, t) in enumerate(links)
        ),
    )


@st.composite
def step_digraphs(draw) -> tuple[Network, dict[int, int]]:
    """A random network on 2-7 nodes, some with no link, parallel links
    allowed and link ids in random order, and a whole-step cost of 1-3 per
    link id: a search on it meets many exact ties."""
    n = draw(st.integers(2, 7))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]),
                          min_size=1, max_size=14))
    ids = draw(st.permutations(range(len(pairs))))
    network = Network(nodes=tuple(range(n)), links=tuple(
        Link(id=i, from_node=a, to_node=b, length=1.0, free_flow_time=0.1,
             has_carpool_lane=False)
        for i, (a, b) in zip(ids, pairs)))
    return network, {i: draw(st.integers(1, 3)) for i in sorted(ids)}


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
    tau = step_durations(net, lambda link: link.free_flow_time, DT_EXACT)

    def min_path(o, d):
        return dijkstra_route(net, lambda l: l.free_flow_time, o, d)

    def min_time(o, d):
        return sum(net.link(lid).free_flow_time for lid in min_path(o, d))

    present = net.node_ids()
    connected = [
        (o, d) for o in present for d in present if o != d and min_path(o, d)
    ]
    if not connected:
        return None
    multi_hop = [(o, d) for o, d in connected if len(min_path(o, d)) >= 2]
    corridor = bool(multi_hop) and rng.random() < 0.6
    origin, dest = rng.choice(multi_hop if corridor else connected)
    rider_time = min_time(origin, dest)
    flex = rng.randint(0, 5) * DT_EXACT
    la = rider_time + flex
    if la > 12 * DT_EXACT:
        return None
    rider = RiderRequest(
        id=0, origin=origin, destination=dest,
        window=TimeWindow(0.0, flex, rider_time, la),
        request_time=0.0,
    )

    def offer_for(i, o, d, start, dflex):
        return Driver(
            id=10 + i, origin=o, destination=d,
            anchor_step=ceil_steps(start, DT_EXACT),
            latest_departure_step=ceil_steps(start + dflex, DT_EXACT),
            latest_arrival_step=ceil_steps(start + min_time(o, d) + dflex, DT_EXACT),
            seats=rng.randint(1, 2),
        )

    offers = []
    if corridor:
        # split the rider's path at an intermediate node between two drivers
        node_seq = [origin] + [net.link(lid).to_node for lid in min_path(origin, dest)]
        mid = rng.choice(node_seq[1:-1])
        first_time = min_time(origin, mid)
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
