"""Show how far a scenario's rider rates are from their limit as ``dt`` shrinks.

Runs the sweep of one scenario (``--config``, ``--horizon``,
``--replications``; ``experiments.run_capacity_sweep``, every level of its
``levels`` with the same replication seeds) at its time step ``dt`` and at
``dt``/2, ``dt``/4, ... for ``--halvings`` halvings (default 3). For each
step and level it prints three rider rates, each pooled over the sweep
row's replications: committed, delivered and on time, as each
replication's ``SimState.rider_summary`` counts them, and beside each the
gap to the same rate at the finest step. It writes no file. It imports
ridesim from the ``src`` beside it and needs nothing but the standard
library and ridesim's own dependencies::

    python tools/dt_convergence.py --config src/ridesim/data/sweep.yaml --horizon 1 --replications 2 --halvings 2
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ridesim.config import load_config  # noqa: E402
from ridesim.experiments import run_capacity_sweep  # noqa: E402


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
    steps = [config.dt / 2**k for k in range(args.halvings + 1)]
    rates = {}  # (dt, level) -> (riders, committed, delivered, on time rates)
    for dt in steps:
        for row in run_capacity_sweep(dataclasses.replace(config, dt=dt)).rows:
            riders, *counts = map(sum, zip(*map(dataclasses.astuple, row.summaries)))
            rates[dt, row.unused_fraction] = (riders, *(
                count / riders if riders else 0.0 for count in counts))

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
