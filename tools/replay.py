"""Replay one scenario run: time its event loop and the matcher's kernel,
and fingerprint what each did.

Builds one replication of a scenario (``--config``, ``--seed``,
``--horizon``) as ``experiments.run_single`` does and runs it once, with
these wrapped: the four event handlers, the route search, the two route
choosers and ``matching.build_time_expanded``. That one record gives both
reports, the event loop's first and the matcher's after it.

The event loop: the least CPU time of ``SimState.run`` over ``--rounds``
more runs, each on a fresh network and replication with the collector
paused; the events handled per kind; the searches made while the run
lasts; the routes chosen without one (a regular driver's next link at a
node and a ridesharing driver's initial plan, less the searches);
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
``shortest_paths`` where ``routing.dijkstra_route`` looks it up; the
matcher's step matrices import their own name for it, so their builds are
not counted.

The matcher: every request's build inputs are kept, by wrapping
``build_time_expanded`` where ``match_rider`` looks it up; the driver
groups, by free schedule, are copied, since they are the simulation's
live offer index, which changes from request to request. The tool then
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

from ridesim import dp, matching, routing, ten  # noqa: E402
from ridesim.config import load_config  # noqa: E402
from ridesim.simulation import SimState, init_simulation  # noqa: E402

KINDS = {"_handle_agent_enter": "agent_enter", "_handle_arrive": "arrive_node",
         "_handle_depart": "depart_node", "_handle_background": "background"}


def event_key(kind: str, payload) -> object:
    if kind == "agent_enter":
        return payload.id
    if kind == "arrive_node":
        vehicle, lane = payload
        return vehicle.agent.id, (lane.link.id, lane.lane_class.value)
    if kind == "depart_node":
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


def recorded_run(config) -> tuple[Counter, str, str, list, dp.StepCosts]:
    """From one run of ``config``: the counts per event kind and of
    searches and route choices; the hex digests of the handled events and
    of the trips (``trip_digest``); every request's
    ``build_time_expanded`` arguments, (args, kwargs) in request order, the
    groups by free schedule copied; and the run's step costs."""
    sim = init_simulation(config, config.make_network(), config.seed)
    counts: Counter = Counter()
    digest = hashlib.sha256()
    kept = []
    originals = {name: getattr(SimState, name)
                 for name in (*KINDS, "vehicle_at_node", "_plan_initial_route")}
    search, build = routing.shortest_paths, matching.build_time_expanded

    def handler(name):
        kind, original = KINDS[name], originals[name]

        def handled(state, payload, now):
            counts[kind] += 1
            digest.update(repr((now, kind, event_key(kind, payload))).encode())
            return original(state, payload, now)
        return handled

    def counted_search(*args):
        counts["searches"] += 1
        return search(*args)

    def counted_visit(state, vehicle, node, now):
        link_id = originals["vehicle_at_node"](state, vehicle, node, now)
        counts["choices"] += link_id is not None
        return link_id

    def counted_plan(state, vehicle, now):
        originals["_plan_initial_route"](state, vehicle, now)
        counts["choices"] += bool(vehicle.plan)

    def keeping(rider, slots, *args, **kwargs):
        kept.append(((rider, {key: list(ids) for key, ids in slots.items()}, *args), kwargs))
        return build(rider, slots, *args, **kwargs)

    wrappers = {name: handler(name) for name in KINDS}
    wrappers.update(vehicle_at_node=counted_visit, _plan_initial_route=counted_plan)
    for name, wrapper in wrappers.items():
        setattr(SimState, name, wrapper)
    routing.shortest_paths, matching.build_time_expanded = counted_search, keeping
    try:
        sim.run()
    finally:
        routing.shortest_paths, matching.build_time_expanded = search, build
        for name, original in originals.items():
            setattr(SimState, name, original)
    return counts, digest.hexdigest(), trip_digest(sim), kept, sim.step_costs


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


def best_times(requests: list, costs: dp.StepCosts,
               rounds: int) -> tuple[float, float, list[float], list, list]:
    """The least seconds, over ``rounds``, that ``build_time_expanded`` and
    ``preprocess`` each took over all of ``requests``; the least seconds
    ``solve_itinerary`` took on each; every request's network; and every
    request's result."""
    build = prep = math.inf
    solve = [math.inf] * len(requests)
    for _ in range(rounds):
        start = time.perf_counter()
        tens = [ten.build_time_expanded(*args, **kwargs) for args, kwargs in requests]
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
    it up."""
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
    config = load_config(args.config, {"seed": args.seed, "horizon": args.horizon})
    counts, event_digest, trips, kept, costs = recorded_run(config)
    run_s = best_run_time(config, args.rounds)
    gc.collect()
    gc.disable()
    try:
        build, prep, solve, tens, results = best_times(kept, costs, args.rounds)
    finally:
        gc.enable()
    attempts = insertion_attempts([ten.preprocess(network) for network in tens], costs)
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
    print(f"searches        {counts['searches']}")
    print(f"unsearched      {counts['choices'] - counts['searches']}")
    print(f"run_ms          {run_s * 1e3:.1f}")
    print(f"event_digest    {event_digest}")
    print(f"trip_digest     {trips}")
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
