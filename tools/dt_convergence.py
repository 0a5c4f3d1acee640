"""Show how far a scenario's rider rates are from their limit as ``dt`` shrinks.

Runs one scenario (``--config``, ``--horizon``, ``--replications``) at its
time step ``dt`` and at ``dt``/2, ``dt``/4, ... for ``--halvings`` halvings
(default 3), at every level of its ``levels``, each with the same
replication seeds (``experiments.replication_seeds`` of the scenario's
seed, as the sweep uses). For each step and level it prints three rider
rates, each pooled over the replications' riders: committed (matched),
delivered (dropped off) and on time (dropped off by the rider's
``latest_arrival``, within 1e-9 h), and beside each the gap to the same
rate at the finest step. It writes no file. It imports ridesim from the
``src`` beside it and needs nothing but the standard library and
ridesim's own dependencies::

    python tools/dt_convergence.py --config src/ridesim/data/sweep.yaml --horizon 1 --replications 2 --halvings 2
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ridesim.agents import Role  # noqa: E402
from ridesim.config import load_config  # noqa: E402
from ridesim.experiments import replication_seeds  # noqa: E402
from ridesim.simulation import init_simulation  # noqa: E402

# how late, in hours, a drop-off may be and still count as on time
ON_TIME_TOLERANCE = 1e-9


def rider_counts(config, network, seed: int) -> tuple[int, int, int, int]:
    """(riders, committed, delivered, on time) of one replication."""
    sim = init_simulation(config, network, seed)
    sim.run()
    riders = committed = delivered = on_time = 0
    for agent_id, agent in sim.agents.items():
        if agent.role is not Role.RIDER:
            continue
        riders += 1
        result = sim.match_results.get(agent_id)
        committed += result is not None and result.matched
        alight = sim.rider_alight_time.get(agent_id)
        if alight is not None:
            delivered += 1
            on_time += alight <= agent.window.latest_arrival + ON_TIME_TOLERANCE
    return riders, committed, delivered, on_time


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", required=True, help="scenario file")
    parser.add_argument("--replications", type=int,
                        help="replications per step and level (default: the scenario's)")
    parser.add_argument("--horizon", type=float,
                        help="hours simulated (default: the scenario's)")
    parser.add_argument("--halvings", type=int, default=3,
                        help="times dt is halved (default 3)")
    args = parser.parse_args(argv)
    if args.halvings < 0:
        parser.error("--halvings must be at least 0")
    config = load_config(args.config, {"replications": args.replications,
                                       "horizon": args.horizon})
    seeds = replication_seeds(config.seed, config.replications)
    levels = [dataclasses.replace(config, unused_capacity=level) for level in config.levels]
    networks = [scenario.make_network() for scenario in levels]
    steps = [config.dt / 2**k for k in range(args.halvings + 1)]
    rates = {}  # (dt, level) -> (riders, committed, delivered, on time rates)
    for dt in steps:
        for scenario, network in zip(levels, networks):
            totals = [0, 0, 0, 0]
            for seed in seeds:
                counts = rider_counts(dataclasses.replace(scenario, dt=dt), network, seed)
                totals = [total + count for total, count in zip(totals, counts)]
            riders = totals[0]
            rates[dt, scenario.unused_capacity] = (riders, *(
                count / riders if riders else 0.0 for count in totals[1:]))

    print(f"scenario {args.config} seed {config.seed} horizon {config.horizon} "
          f"replications {config.replications}")
    print(f"{'dt_h':>10} {'level':>6} {'riders':>7} "
          f"{'committed':>9} {'gap':>7} {'delivered':>9} {'gap':>7} {'on_time':>9} {'gap':>7}")
    for dt in steps:
        for level in config.levels:
            riders, *shares = rates[dt, level]
            finest = rates[steps[-1], level][1:]
            cells = " ".join(f"{share:>9.4f} {share - limit:>+7.4f}"
                             for share, limit in zip(shares, finest))
            print(f"{dt:>10.6f} {level:>6.2f} {riders:>7} {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
