"""Time the event loop of one scenario run and fingerprint what it handled.

Builds one replication of a scenario (``--config``, ``--seed``,
``--horizon``) as ``experiments.run_single`` does and runs it ``--rounds``
times, each on a fresh network and replication with the collector paused,
and prints the least CPU time of ``SimState.run``. One more run, with the
four event handlers, the route search and the two route choosers wrapped,
prints the events handled per kind, the searches made while the run lasts,
the routes chosen without one (a regular driver's next link at a node and
a ridesharing driver's initial plan, less the searches), and a SHA-256
over the log of handled events, one ``repr`` of (time, kind, key) each: an
entry's key is its agent id, an arrival's its vehicle's agent id with the
link id and lane class of the lane it leaves, a hold's its vehicle's agent
id with the plan it was made for, and a background entry's its link id.
A search is a call of ``shortest_paths`` where ``routing.dijkstra_route``
looks it up; the matcher's step matrices import their own name for it, so
their builds are not counted. Run on two checkouts, equal digests show the
same event sequence. It imports ridesim from the ``src`` beside it and
needs nothing but the standard library and ridesim's own dependencies::

    python tools/event_replay.py --config src/ridesim/data/validation.yaml --horizon 2
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ridesim import routing  # noqa: E402
from ridesim.config import load_config  # noqa: E402
from ridesim.simulation import SimState, init_simulation  # noqa: E402

KINDS = {"_handle_agent_enter": "agent_enter", "_handle_arrive": "arrive_node",
         "_handle_depart": "depart_node", "_handle_background": "background"}


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


def recorded_run(config) -> tuple[Counter, str]:
    """Counts per event kind and of searches and route choices, and the
    hex digest of the handled events, from one run of ``config``."""
    sim = init_simulation(config, config.make_network(), config.seed)
    counts: Counter = Counter()
    digest = hashlib.sha256()
    originals = {name: getattr(SimState, name)
                 for name in (*KINDS, "vehicle_at_node", "_plan_initial_route")}
    search = routing.shortest_paths

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

    wrappers = {name: handler(name) for name in KINDS}
    wrappers.update(vehicle_at_node=counted_visit, _plan_initial_route=counted_plan)
    for name, wrapper in wrappers.items():
        setattr(SimState, name, wrapper)
    routing.shortest_paths = counted_search
    try:
        sim.run()
    finally:
        routing.shortest_paths = search
        for name, original in originals.items():
            setattr(SimState, name, original)
    return counts, digest.hexdigest()


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
    run_s = best_run_time(config, args.rounds)
    counts, digest = recorded_run(config)
    print(f"scenario        {args.config} seed {config.seed} horizon {config.horizon}")
    for kind in KINDS.values():
        print(f"{kind:<16}{counts[kind]}")
    print(f"searches        {counts['searches']}")
    print(f"unsearched      {counts['choices'] - counts['searches']}")
    print(f"run_ms          {run_s * 1e3:.1f}")
    print(f"digest          {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
