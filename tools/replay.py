"""Replay one scenario run: time its event loop and the matcher's kernel,
and fingerprint what each did.

Builds one replication of a scenario (``--config``, ``--seed``,
``--horizon``) as ``experiments.run_single`` does and runs it once with a
run record (``simulation.RunRecord``): the events it handled and every
request's inputs. That one record gives both reports, the event loop's
first and the matcher's after it; the tool changes nothing in ridesim
while the run lasts. A scenario that ``load_config`` refuses is a usage
error (exit 2), as in ``ridesim``.

The event loop: the least CPU time of ``SimState.run`` over ``--rounds``
more runs, each on a fresh network and replication with the collector
paused; the events handled per kind; the searches the run made and the
routes it chose without one (a regular driver's next link at a node and
a ridesharing driver's initial plan, less the searches), both read from
the record by the network's rules (``route_counts``);
``event_digest``, a SHA-256 over the log of handled events, one ``repr``
of (time, kind, key) each: an entry's key is its agent id, an arrival's
its vehicle's agent id with the link id and lane class of the lane it
leaves, a hold's its vehicle's agent id with the plan it was made for,
and a background entry's its link id; and ``trip_digest`` (``trip_digest``
below), which pins when each vehicle left and arrived. ``arrive_node``
counts a ridesharing driver's every arrival at a node and a regular
driver's arrivals short of its destination: a regular driver's trip ends
when it enters its last link, with no event (``SimState.enter_link``), so
only ``trip_digest`` sees that arrival. A search is a call of
``shortest_paths`` by ``routing.dijkstra_route``; the matcher's step
matrices are not counted.

The matcher: every request's build inputs are the record's request rows;
the driver groups, by free schedule, are a copy, since the simulation's
live offer index changes from request to request. The tool then
times ``build_time_expanded``, ``preprocess`` and ``solve_itinerary`` over
the kept requests, in request order, at the run's step costs and with the
collector paused. It prints the best of ``--rounds`` of each in µs per
request, the build and ``preprocess`` timed over all requests at once and
``solve_itinerary`` request by request, with the 50th and 99th
nearest-rank percentiles of the requests' best solve times; the DP's
label insertion attempts per request (calls of ``dp._insert_label``), as
a mean and a nearest-rank 99th percentile, counted over one further solve
round that is not timed; the mean per request of the travel arcs counted
once per driver, of the drivers with an arc and of the driver classes they
form (``TimeExpandedNetwork``); the networks with no travel arc (which
``preprocess`` answers as infeasible at once, with no pass over the graph)
as a count and a share; and ``matcher_digest``, a SHA-256 over the
``repr`` of every result.

Run on two checkouts, equal digests show the same event sequence, equal
trips and equal matcher results. The counts and digests do not depend on
the host. The kernel times are warm-cache times: each stage runs again and again
over the same requests, with the collector off. Inside a live run the
same stage costs about twice as much (measured on ``rideshare-dense``,
seed 7: the build 27-33 µs per request here against 47-57 µs timed inside
``experiments.run_single``, ``solve_itinerary`` 28-41 µs against 55-88
µs), so a gain read here is a kernel gain, not yet a ``match_ms`` gain.
It imports ridesim from the ``src`` beside it and needs nothing but the
standard library and ridesim's own dependencies::

    python tools/replay.py --config src/ridesim/data/sweep.yaml --horizon 1.5
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import math
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ridesim import dp, ten  # noqa: E402
from ridesim.agents import Role  # noqa: E402
from ridesim.config import ConfigError, load_config  # noqa: E402
from ridesim.simulation import (EV_AGENT_ENTER, EV_ARRIVE_NODE, EV_BACKGROUND,  # noqa: E402
                                EV_DEPART_NODE, RunRecord, SimState, Vehicle,
                                init_simulation)

KINDS = {EV_AGENT_ENTER: "agent_enter", EV_ARRIVE_NODE: "arrive_node",
         EV_DEPART_NODE: "depart_node", EV_BACKGROUND: "background"}


def event_key(kind: int, payload) -> object:
    if kind == EV_AGENT_ENTER:
        return payload.id
    if kind == EV_ARRIVE_NODE:
        vehicle, lane = payload
        return vehicle.agent.id, (lane.link.id, lane.lane_class.value)
    if kind == EV_DEPART_NODE:
        vehicle, plan = payload
        return vehicle.agent.id, tuple(plan)
    return payload


def trip_digest(sim: SimState) -> str:
    """The hex SHA-256 over the ``repr`` of every vehicle's (agent id,
    departure, arrival, stranded), in id order, as ``build_report``
    reports them."""
    trips = [(o.agent_id, o.departure, o.arrival, o.stranded)
             for o in sim.build_report().outcomes if o.agent_id in sim.vehicles]
    return hashlib.sha256(repr(trips).encode()).hexdigest()


def route_counts(record: RunRecord, network) -> tuple[int, int]:
    """The searches and the routes chosen in the run ``record`` logged, by
    the network's rules. A regular driver chooses at its entry and at each
    arrival, a ridesharing driver once, its initial plan at its entry; each
    chooses a route where its node reaches its destination
    (``Network.next_hops``). The plan searches where
    ``Network.route_choices`` is None, and so does a regular driver with
    more than one next hop (``SimState.vehicle_at_node``)."""
    searches = choices = 0
    for _, kind, payload in record.events:
        if kind == EV_AGENT_ENTER and payload.role is not Role.RIDER:
            agent, node = payload, payload.origin
        elif kind == EV_ARRIVE_NODE and type(payload[0]) is Vehicle:
            agent, node = payload[0].agent, payload[1].link.to_node
        else:
            continue
        hops = network.next_hops(node, agent.destination)
        choices += bool(hops)
        searches += ((len(hops) > 1 or agent.role is Role.RIDESHARE_DRIVER)
                     and network.route_choices(node, agent.destination) is None)
    return searches, choices


def best_run_time(config, rounds: int) -> float:
    """The least CPU seconds, over ``rounds`` fresh replications, that
    ``SimState.run`` took."""
    best = float("inf")
    for _ in range(rounds):
        sim = init_simulation(config, config.make_network(), config.seed)
        gc.collect()
        gc.disable()
        try:
            start = time.process_time()
            sim.run()
            best = min(best, time.process_time() - start)
        finally:
            gc.enable()
        del sim
    return best


def best_times(sim: SimState, requests: list,
               rounds: int) -> tuple[float, float, list[float], list, list]:
    """The least seconds, over ``rounds``, that ``build_time_expanded`` and
    ``preprocess`` each took over all of ``requests``, the rows of ``sim``'s
    run record; the least seconds ``solve_itinerary`` took on each; every
    request's network; and every request's result."""
    build = prep = math.inf
    solve = [math.inf] * len(requests)
    network, dt, costs = sim.network, sim.dt, sim.step_costs
    for _ in range(rounds):
        start = time.perf_counter()
        tens = [ten.build_time_expanded(rider, groups, network, tau, dt, clock_step=clock_step)
                for rider, groups, tau, clock_step, _ in requests]
        build = min(build, time.perf_counter() - start)
        start = time.perf_counter()
        graphs = [ten.preprocess(network) for network in tens]
        prep = min(prep, time.perf_counter() - start)
        results = []
        for k, graph in enumerate(graphs):
            start = time.perf_counter()
            results.append(dp.solve_itinerary(graph, costs))
            solve[k] = min(solve[k], time.perf_counter() - start)
    return build, prep, solve, tens, results


def insertion_attempts(graphs: list, costs: dp.StepCosts) -> list[int]:
    """The calls of ``dp._insert_label`` that ``solve_itinerary``
    makes on each of ``graphs``, counted by wrapping it where the DP looks
    it up, over requests replayed after the run: a counter in the DP's
    inner loop would charge every live request for a number only this tool
    reads."""
    counts = []
    insert = dp._insert_label

    def counting(*args):
        counts[-1] += 1
        return insert(*args)

    dp._insert_label = counting
    try:
        for graph in graphs:
            counts.append(0)
            dp.solve_itinerary(graph, costs)
    finally:
        dp._insert_label = insert
    return counts


def percentile(values: list[float], share: float) -> float:
    """The nearest-rank ``share`` percentile of ``values``, 0.0 if empty."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(share * len(ranked)) - 1)] if ranked else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True, help="scenario file")
    parser.add_argument("--seed", type=int, help="run seed (default: the scenario's)")
    parser.add_argument("--horizon", type=float,
                        help="hours simulated (default: the scenario's)")
    parser.add_argument("--rounds", type=int, default=5, help="timed rounds (default 5)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    try:
        config = load_config(args.config, {"seed": args.seed, "horizon": args.horizon})
        sim = SimState(config, config.make_network(), config.seed, record=RunRecord())
        sim.run()
        run_s = best_run_time(config, args.rounds)
    except ConfigError as exc:
        parser.error(str(exc))
    record = sim.record
    counts = Counter(KINDS[kind] for _, kind, _ in record.events)
    event_digest = hashlib.sha256()
    for now, kind, payload in record.events:
        event_digest.update(repr((now, KINDS[kind], event_key(kind, payload))).encode())
    searches, choices = route_counts(record, sim.network)
    gc.collect()
    gc.disable()
    try:
        build, prep, solve, tens, results = best_times(sim, record.requests, args.rounds)
    finally:
        gc.enable()
    attempts = insertion_attempts([ten.preprocess(network) for network in tens],
                                  sim.step_costs)
    matcher_digest = hashlib.sha256()
    for result in results:
        matcher_digest.update(repr(result).encode())
    requests = len(tens)
    per = 1e6 / requests if requests else 0.0
    classes = [len({driver for _, _, driver in network.travel_arcs}) for network in tens]
    drivers = sum(classes) + sum(len(members) for network in tens
                                 for members in network.twins.values())
    no_arc = sum(not network.travel_arcs for network in tens)
    print(f"scenario        {args.config} seed {config.seed} horizon {config.horizon}")
    for kind in KINDS.values():
        print(f"{kind:<16}{counts[kind]}")
    print(f"searches        {searches}")
    print(f"unsearched      {choices - searches}")
    print(f"run_ms          {run_s * 1e3:.1f}")
    print(f"event_digest    {event_digest.hexdigest()}")
    print(f"trip_digest     {trip_digest(sim)}")
    print(f"requests        {requests}")
    print(f"build_us        {build * per:.1f}")
    print(f"preprocess_us   {prep * per:.1f}")
    print(f"solve_us        {sum(solve) * per:.1f}")
    print(f"kernel_us       {(prep + sum(solve)) * per:.1f}")
    print(f"solve_us_p50    {1e6 * percentile(solve, 0.5):.1f}")
    print(f"solve_us_p99    {1e6 * percentile(solve, 0.99):.1f}")
    print(f"attempts        {sum(attempts) / requests if requests else 0.0:.1f}")
    print(f"attempts_p99    {percentile(attempts, 0.99)}")
    print(f"driver_arcs     {sum(network.driver_arcs for network in tens) * per / 1e6:.1f}")
    print(f"drivers         {drivers * per / 1e6:.1f}")
    print(f"classes         {sum(classes) * per / 1e6:.1f}")
    print(f"no_arc_requests {no_arc} {no_arc / requests if requests else 0.0:.3f}")
    print(f"matcher_digest  {matcher_digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
