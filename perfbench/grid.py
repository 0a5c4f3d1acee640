"""Multi-hop grid scenario for the matcher's dynamic program.

The bundled scenarios never produce a transfer: every itinerary is one leg
and the time-expanded network stays tiny. This generator writes a directed
grid (links run east and south, every second link has a carpool lane) with
one explicit hourly rate on every reachable origin-destination pair, so
riders often need two or more drivers to reach their destination. The grid
and its rates are fixed; the workload seed enters through the agents that
``generate_agents`` draws from the replication seeds. The dynamic program's
cost is so sensitive to the scenario that jittering each pair's rate by 5%
moved a run's median wall time by 30% from one seed to the next.
"""
from __future__ import annotations

from pathlib import Path

import yaml

ROWS = 4
COLS = 4
SPEED_MPH = 55.0
FREE_FLOW_TIME = 0.125
RATE_PER_PAIR = 3.5   # vehicles/hour; about 1,150 agents in 4 h
# 0.4 h windows gave time-expanded networks of up to 128 vertices and a
# match latency tail of 200 ms; 0.3 h still yields about 60 multi-leg
# itineraries per run at a tenth of that tail.
WINDOW_FLEXIBILITY = 0.3


def grid_links() -> list[tuple[int, int]]:
    """(from, to) node pairs of the directed grid, east before south per node."""
    links = []
    for r in range(ROWS):
        for c in range(COLS):
            node = r * COLS + c
            if c + 1 < COLS:
                links.append((node, node + 1))
            if r + 1 < ROWS:
                links.append((node, node + COLS))
    return links


def reachable_pairs() -> list[tuple[int, int]]:
    """Every ordered pair joined by an east/south path (84 on a 4x4 grid)."""
    pairs = []
    for o in range(ROWS * COLS):
        for d in range(ROWS * COLS):
            if o != d and d // COLS >= o // COLS and d % COLS >= o % COLS:
                pairs.append((o, d))
    return pairs


def write_grid_scenario(outdir: Path, horizon: float) -> Path:
    """Write ``grid_network.yaml`` and ``grid_scenario.yaml``; return the latter.

    Every link takes 0.125 h at free flow (three 0.05 h steps).
    """
    outdir.mkdir(parents=True, exist_ok=True)
    links = []
    for link_id, (a, b) in enumerate(grid_links()):
        links.append({
            "id": link_id, "from": a, "to": b,
            "length": FREE_FLOW_TIME * SPEED_MPH, "free_flow_time": FREE_FLOW_TIME,
            "has_carpool_lane": link_id % 2 == 0, "general_lanes": 2,
        })
    network = {"nodes": list(range(ROWS * COLS)), "links": links}
    (outdir / "grid_network.yaml").write_text(yaml.safe_dump(network, sort_keys=False))

    rates = {f"{o}-{d}": RATE_PER_PAIR for o, d in reachable_pairs()}
    scenario = {
        "network": "grid_network.yaml",
        "horizon": horizon,
        "replications": 1,
        "dt": 0.05,
        "demand": {
            "shares": {"rider": 0.25, "rideshare_driver": 0.5, "regular_driver": 0.25},
            "window_flexibility": WINDOW_FLEXIBILITY,
            "scale": 1.0,
            "seats": 3,
            "od_rates": rates,
            "calibration_fixed_daily": {},
        },
    }
    path = outdir / "grid_scenario.yaml"
    path.write_text(yaml.safe_dump(scenario, sort_keys=False))
    return path
