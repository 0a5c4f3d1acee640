"""Time the matcher's kernel over every rider request of one run.

Runs one scenario (``--config``, ``--seed``, ``--horizon``) through
``experiments.run_single`` and keeps every request's build inputs, by
wrapping ``matching.build_time_expanded`` where ``match_rider`` looks it
up; the driver groups, by free schedule, are copied, since they are the
simulation's live offer index, which changes from request to request. It then times
``build_time_expanded``, ``preprocess`` and ``solve_itinerary`` over the
kept requests, in request order, at the scenario's step costs and with the
collector paused. It prints the best of ``--rounds`` of each in µs per
request, the build and ``preprocess`` timed over all requests at once and
``solve_itinerary`` request by request, with the 50th and 99th
nearest-rank percentiles of the requests' best solve times; the DP's
label insertion attempts per request (calls of ``dp._insert_label``),
as a mean and a nearest-rank 99th percentile, counted over one further
solve round that is not timed; the mean per request of the travel arcs
counted once per driver, of the drivers with an arc and of the driver
classes they form (``TimeExpandedNetwork``); the networks with no travel
arc (which ``preprocess`` answers as infeasible at once, with no pass over
the graph) as a count and a share; and a SHA-256 over the ``repr`` of
every result. Run on two checkouts, it shows a change to the kernel
without the event loop's noise, and equal digests show equal results.

Its times are warm-cache kernel times: each stage runs again and again
over the same requests, with the collector off. Inside a live run the same
stage costs about twice as much (measured on ``rideshare-dense``, seed 7:
the build 27-33 µs per request here against 47-57 µs timed inside
``experiments.run_single``, ``solve_itinerary`` 28-41 µs against 55-88
µs), so a gain read here is a kernel gain, not yet a ``match_ms`` gain.
The attempts do not depend on the host. It imports ridesim from the
``src`` beside it and needs nothing but the standard library and
ridesim's own dependencies::

    python tools/matcher_replay.py --config src/ridesim/data/sweep.yaml --horizon 1.5
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ridesim import dp, experiments, matching, ten  # noqa: E402
from ridesim.config import load_config  # noqa: E402


def kept_requests(config) -> tuple[list, dp.StepCosts]:
    """Every request's ``build_time_expanded`` arguments from one run of
    ``config``, (args, kwargs) in request order, the groups by free schedule
    copied, and the run's step costs."""
    kept = []
    build = matching.build_time_expanded

    def keeping(rider, slots, *args, **kwargs):
        kept.append(((rider, {key: list(ids) for key, ids in slots.items()}, *args), kwargs))
        return build(rider, slots, *args, **kwargs)

    matching.build_time_expanded = keeping
    try:
        sim, _ = experiments.run_single(config)
    finally:
        matching.build_time_expanded = build
    return kept, sim.step_costs


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
    kept, costs = kept_requests(config)
    gc.collect()
    gc.disable()
    try:
        build, prep, solve, tens, results = best_times(kept, costs, args.rounds)
    finally:
        gc.enable()
    attempts = insertion_attempts([ten.preprocess(network) for network in tens], costs)
    digest = hashlib.sha256()
    for result in results:
        digest.update(repr(result).encode())
    requests = len(tens)
    per = 1e6 / requests if requests else 0.0
    classes = [len({driver for _, _, driver in network.travel_arcs}) for network in tens]
    drivers = sum(classes) + sum(len(members) for network in tens
                                 for members in network.twins.values())
    no_arc = sum(not network.travel_arcs for network in tens)
    print(f"scenario        {args.config} seed {config.seed} horizon {config.horizon}")
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
    print(f"digest          {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
