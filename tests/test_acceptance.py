"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
summary lines. Every tolerance is pinned here, not configurable.
"""
import dataclasses
import itertools
import random
import time

import numpy as np
import pytest

from ridesim.cli import EXIT_OK, main
from ridesim.config import bundled_data_path, load_config
from ridesim.dp import StepCosts, solve_itinerary
from ridesim.experiments import (
    replication_seeds,
    run_capacity_sweep,
    run_validation,
)
from ridesim.network import LaneClass
from ridesim.routing import dijkstra_route
from ridesim.simulation import init_simulation
from ridesim.ten import build_time_expanded, preprocess

from conftest import DT_EXACT, make_network, random_instance, slot_groups
from oracle import (EnumerationBudgetError, brute_force_itinerary, layout,
                    vertices_on_feasible_paths)

STRETCH_TARGET_RATES = (0.60, 0.60, 0.50, 0.45)
# a step on board and a wait step both cost DT_EXACT
MATCHER_COSTS = StepCosts(DT_EXACT, DT_EXACT)


def announce(criterion: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} [{'PASS' if passed else 'FAIL'}] {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def matcher_instances():
    """The 100 randomized matcher instances shared by criteria 2 and 3."""
    rng = random.Random(20140717)
    instances = []
    while len(instances) < 100:
        candidate = random_instance(rng)
        if candidate is None:
            continue
        rider, offers, net, tt = candidate
        ten = build_time_expanded(rider, slot_groups(offers), net, tt, DT_EXACT)
        try:
            oracle = brute_force_itinerary(ten, MATCHER_COSTS)
            on_paths = vertices_on_feasible_paths(ten)
        except EnumerationBudgetError:
            continue
        instances.append((rider, ten, oracle, on_paths))
    return instances


def test_criterion_1_validation_reproduction():
    started = time.monotonic()
    config = load_config(bundled_data_path("validation.yaml"))
    assert config.replications == 20
    assert config.demand.scale == 0.1
    report = run_validation(config)
    elapsed = time.monotonic() - started
    ok = (report.mean_absolute_error <= 0.01
          and not report.reject
          and elapsed <= 60.0)
    announce(1, ok,
             f"validation: mean abs error {report.mean_absolute_error:.5f} "
             f"(<= 0.01), chi2 {report.chi_squared:.3f} vs critical "
             f"{report.critical_value:.3f} -> "
             f"{'reject' if report.reject else 'cannot reject'}, "
             f"{elapsed:.1f}s (<= 60s)")


def test_criterion_2_matcher_oracle_equivalence(matcher_instances):
    started = time.monotonic()
    agreements = 0
    for rider, ten, oracle, _ in matcher_instances:
        graph = preprocess(ten)
        solved = solve_itinerary(graph, MATCHER_COSTS) if graph.feasible else None
        if solved == oracle:
            agreements += 1
    elapsed = time.monotonic() - started
    ok = agreements == 100 and elapsed <= 30.0
    announce(2, ok,
             f"matcher oracle equivalence: {agreements}/100 identical "
             f"itineraries or both infeasible, {elapsed:.1f}s (<= 30s)")


def test_criterion_3_pruning_soundness(matcher_instances):
    sound = 0
    for rider, ten, _, on_paths in matcher_instances:
        graph = preprocess(ten)
        if not ((set(layout(ten)) - set(graph.vertices)) & on_paths):
            sound += 1
    announce(3, sound == 100,
             f"pruning soundness: {sound}/100 instances removed only "
             f"off-path vertices")


def test_criterion_4_dijkstra_optimality():
    rng = random.Random(58343)
    exact = 0
    total = 0
    while total < 100:
        n = rng.randint(3, 8)
        links = [
            (a, b, rng.uniform(0.01, 1.0))
            for a, b in itertools.permutations(range(n), 2)
            if rng.random() < 0.4
        ]
        if not links:
            continue
        net = make_network(links)
        costs = {l.id: rng.uniform(0.01, 5.0) for l in net.links}
        origin, dest = rng.sample(net.node_ids(), 2)
        total += 1
        best = dijkstra_route(net, lambda l: costs[l.id], origin, dest)

        optima = []

        def walk(node, visited, acc):
            if node == dest:
                optima.append(acc)
                return
            for link_id in net.adjacency[node]:
                link = net.link(link_id)
                if link.to_node not in visited:
                    walk(link.to_node, visited | {link.to_node},
                         acc + costs[link_id])

        walk(origin, {origin}, 0.0)
        if not optima:
            exact += best is None
        else:
            exact += (best is not None
                      and sum(costs[lid] for lid in best) == min(optima))
    announce(4, exact == 100,
             f"dijkstra optimality: {exact}/100 random networks match "
             f"exhaustive enumeration exactly")


def test_criterion_5_capacity_sweep_trend():
    started = time.monotonic()
    config = load_config(bundled_data_path("sweep.yaml"))
    assert config.replications == 20
    assert config.levels == (1.0, 0.75, 0.5, 0.25)
    report = run_capacity_sweep(config)
    elapsed = time.monotonic() - started
    rates = [row.mean_match_rate for row in report.rows]
    monotone = all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
    in_band = all(0.35 <= r <= 0.70 for r in rates)
    stretch = all(abs(r - t) <= 0.10 for r, t in zip(rates, STRETCH_TARGET_RATES))
    ok = monotone and in_band and elapsed <= 300.0
    announce(5, ok,
             "capacity sweep: rates " + str([round(r, 3) for r in rates])
             + f", monotone={monotone}, in [0.35, 0.70]={in_band}, "
             f"within 10pp of {STRETCH_TARGET_RATES}={stretch} (stretch), "
             f"{elapsed:.1f}s (<= 300s)")


def test_criterion_6_carpool_calibration_anchor():
    # anchor property of the background injection itself, so ridesharing is
    # disabled: matched HOV trips would ride on top of the calibrated stream
    config = load_config(bundled_data_path("sweep.yaml"))
    baseline = dataclasses.replace(config.with_shares(0.0, 0.0, 1.0),
                                   unused_capacity=0.25)
    network = baseline.make_network()
    lanes = network.link(2).general_lanes
    carpool, general = [], []
    for seed in replication_seeds(baseline.seed, 20):
        sim = init_simulation(baseline, network, seed)
        sim.run()
        report = sim.build_report()
        counts = report.link_class_counts
        carpool.append(counts[(2, LaneClass.CARPOOL)] / baseline.horizon)
        general.append(counts[(2, LaneClass.GENERAL)] / lanes / baseline.horizon)
    ratio = float(np.mean(carpool) / np.mean(general))
    ok = abs(ratio - 1.0) <= 0.05
    announce(6, ok,
             f"carpool anchor at 25% unused: carpool flow / per-general-lane "
             f"flow = {ratio:.4f} (within 5% of 1)")


def test_criterion_7_determinism_of_commands(tmp_path):
    import yaml

    def shrink(name, extra):
        raw = yaml.safe_load(bundled_data_path(name).read_text())
        raw.update(extra)
        raw["network"] = str(bundled_data_path(raw["network"]))
        path = tmp_path / f"quick_{name}"
        path.write_text(yaml.safe_dump(raw))
        return path

    val_cfg = shrink("validation.yaml", {"horizon": 1.5, "replications": 2})
    sweep_cfg = shrink("sweep.yaml", {"horizon": 1.5, "replications": 2})

    cases = {
        "validate": (["validate", "--config", str(val_cfg), "--seed", "5"],
                     ["validation.csv"]),
        "sweep": (["sweep", "--config", str(sweep_cfg), "--seed", "5",
                   "--levels", "1.0,0.25"], ["sweep.csv"]),
        "run": (["run", "--config", str(val_cfg), "--seed", "5"],
                ["link_flows.csv", "agents.csv", "summary.csv"]),
    }
    identical = True
    for name, (argv, files) in cases.items():
        out_a = tmp_path / f"{name}_a"
        out_b = tmp_path / f"{name}_b"
        assert main(argv + ["--out", str(out_a)]) == EXIT_OK
        assert main(argv + ["--out", str(out_b)]) == EXIT_OK
        for filename in files:
            if (out_a / filename).read_bytes() != (out_b / filename).read_bytes():
                identical = False
    announce(7, identical,
             "determinism: validate/sweep/run rewrote byte-identical CSVs "
             "under a fixed config and seed")
