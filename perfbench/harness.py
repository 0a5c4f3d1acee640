"""Run workload iterations, untraced or traced, and turn them into metrics.

One iteration is one whole CLI command as a user waits for it: load the
config, run every replication through ``ridesim.experiments`` and write the
CSV/JSON outputs. Iteration k draws its base seed from
``replication_seeds(seed, ...)``; iterations 0 and 1 share a seed so that
their CSV digests must agree. Later iterations take fresh seeds, so a run's
medians cover several inputs of the same workload.

A run makes a fixed number of iterations: ``--seconds`` over the workload's
``iteration_s``, its cost at a slow moment of a 2-vCPU shared VM. So one
seed gives the same inputs, attempts and failures on every host and at every
load; a slower host only makes the run longer.

The end-to-end timings are scaled to a reference host speed (see
``hooks.SpeedSampler``); the raw medians are printed in the detail line.
"""
from __future__ import annotations

import gc
import math
import resource
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import ridesim.config as config
import ridesim.experiments as experiments
import ridesim.simulation as simulation
from ridesim.agents import TimeWindow
from ridesim.matching import RiderRequest

from checks import Tally, csv_digest
from hooks import CALIBRATION_REF_S, Monitor, Patcher, SpeedSampler
from tracer import Tracer
from workloads import Plan

MIN_ITERATIONS = 3
MAX_ITERATIONS = 64
TRACED_PAIR_COST = 2.5  # an untraced plus a traced iteration, in untraced iterations
PROBES_PER_PAIR = 12

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "agents_per_s": "agents/s",
    "match_ms_p50": "ms",
    "match_ms_p99": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "simulation.run.self_s": "s",
    "simulation.events.agent_enter": "count",
    "simulation.events.arrive_node": "count",
    "simulation.events.depart_node": "count",
    "simulation.events.background": "count",
    "routing.dijkstra_route.replan.calls": "count",
    "routing.dijkstra_route.replan.self_s": "s",
    "routing.dijkstra_route.commit.calls": "count",
    "routing.dijkstra_route.commit.self_s": "s",
    "routing.dijkstra_route.setup.calls": "count",
    "routing.dijkstra_route.setup.self_s": "s",
    "simulation.link_delay.calls": "count",
    "simulation.link_delay.self_s": "s",
    "network.volume_delay.calls": "count",
    "network.volume_delay.self_s": "s",
    "simulation.collect_offers.calls": "count",
    "simulation.collect_offers.self_s": "s",
    "simulation.collect_offers.scanned": "count",
    "simulation.collect_offers.kept": "count",
    "simulation.collect_offers.kept_per_scanned": "ratio",
    "matching.build_time_expanded.calls": "count",
    "matching.build_time_expanded.self_s": "s",
    "matching.ten.vertices": "count",
    "matching.ten.vertices_max": "count",
    "matching.ten.travel_arcs": "count",
    "matching.ten.travel_arcs_max": "count",
    "matching.preprocess.self_s": "s",
    "matching.preprocess.pruned_vertices": "count",
    "matching.solve_itinerary.calls": "count",
    "matching.solve_itinerary.self_s": "s",
    "simulation.commit_itinerary.calls": "count",
    "simulation.commit_itinerary.self_s": "s",
    "simulation.commit_itinerary.rejected": "count",
    "matching.match_rider.calls": "count",
    "matching.match_rider.s": "s",
    "matching.itineraries.multi_leg": "count",
    "matching.unmatched.infeasible": "count",
    "matching.unmatched.capacity": "count",
    "demand.generate_agents.self_s": "s",
    "demand.calibrate_od_rates.self_s": "s",
    "config.load_config.self_s": "s",
    "simulation.init_simulation.self_s": "s",
    "reports.write_csv_atomic.self_s": "s",
    "reports.write_csv_atomic.bytes": "bytes",
    "outcome.riders": "count",
    "outcome.matched": "count",
    "outcome.delivered": "count",
    "outcome.late": "count",
    "outcome.undelivered": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


class BenchmarkError(RuntimeError):
    """The workload no longer measures what it was built for."""


def probe_matcher(sim) -> None:
    """Rider requests against a finished replication: each O-D pair of the
    scenario, ``PROBES_PER_PAIR`` times, one hour of slack. With no
    ridesharing driver every probe is infeasible, so its latency is the
    offer scan over every vehicle plus an empty time-expanded network.
    Probes are not stored as riders and change no output. They run only in
    the end-to-end iterations, after the replication's audit, so they feed
    the match figures alone: no span, no check, no per-layer count."""
    t = sim.clock
    window = TimeWindow(t, t + 0.25, t, t + 1.0)
    pairs = sorted(sim.demand.od_rates)
    for k in range(PROBES_PER_PAIR):
        for i, (origin, dest) in enumerate(pairs):
            rider_id = -1 - (k * len(pairs) + i)
            simulation.match_rider(sim, RiderRequest(rider_id, origin, dest, window, t))


@dataclass
class Iteration:
    wall: tuple[float, int, int]    # (seconds, first, last sampler reading)
    monitor: Monitor
    tally: Tally
    digest: str


def run_iteration(plan: Plan, seed: int, outdir: Path, sampler: SpeedSampler,
                  tracer: Tracer | None = None, probes: bool = False) -> Iteration:
    shutil.rmtree(outdir, ignore_errors=True)
    gc.collect()  # start as a fresh process would, without the last iteration's garbage
    tally = Tally()

    def on_sim(sim) -> None:
        tally.audit_replication(sim)
        if probes:
            probe_matcher(sim)  # after the audit, so no check or count sees it

    monitor = Monitor(on_sim, sampler)
    patcher = Patcher()
    if tracer is not None:
        tracer.install(patcher)
    monitor.install(patcher)  # outermost, so checks stay out of the spans
    try:
        first, t0 = sampler.mark(), sampler.clock()
        cfg = monitor.timed(monitor.load_s, config.load_config, plan.config_path, {
            **plan.overrides, "seed": seed, "replications": plan.replications,
            "output_dir": str(outdir),
        })
        if plan.command == "validate":
            report = experiments.run_validation(cfg)
            report.write_csv(outdir / "validation.csv")
            report.write_meta(outdir / "validation_meta.json")
            ok = (not report.reject
                  and report.mean_absolute_error <= cfg.validation_error_threshold)
        elif plan.command == "sweep":
            report = experiments.run_capacity_sweep(cfg)
            report.write_csv(outdir / "sweep.csv")
            report.write_meta(outdir / "sweep_meta.json")
        else:
            seeds = experiments.replication_seeds(cfg.seed, cfg.replications)
            for i, rep_seed in enumerate(seeds):
                _, report = experiments.run_single(cfg, seed=rep_seed)
                experiments.write_sim_report(report, outdir / f"rep{i}",
                                             cfg.fingerprint(), rep_seed)
        wall = (sampler.clock() - t0 - monitor.excluded_s, first, sampler.mark())
    finally:
        patcher.restore()
    if plan.command == "validate":
        tally.check_output(ok, "validation threshold broken or chi-squared rejected")
    expected = plan.replications * (len(cfg.levels) if plan.command == "sweep" else 1)
    tally.check_output(len(monitor.run_s) == expected,
                       "replications ran outside the monitored process")
    if plan.needs_multi_leg and tally.multi_leg == 0:
        raise BenchmarkError(f"{plan.name}: no multi-leg itinerary; the DP is not exercised")
    return Iteration(wall, monitor, tally, csv_digest(outdir))


def iteration_seeds(seed: int) -> list[int]:
    seeds = experiments.replication_seeds(seed, MAX_ITERATIONS)
    return [seeds[0]] + seeds


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """The 99th percentile, or the highest one with at least ten samples
    beyond it when there are too few samples; returns (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise BenchmarkError(f"{n} match samples; a tail needs at least 11")
    idx = min(math.ceil(0.99 * n) - 1, n - 11)
    return ordered[idx], 100.0 * (idx + 1) / n


@dataclass
class Outcome:
    metrics: dict[str, float]
    tallies: list[Tally]
    detail: dict = field(default_factory=dict)


def rounds_for(seconds: float, round_s: float, minimum: int) -> int:
    """How many rounds of ``round_s`` seconds fill ``seconds``."""
    return min(MAX_ITERATIONS, max(minimum, round(seconds / round_s)))


def measure(plan: Plan, seed: int, seconds: float, outdir: Path) -> Outcome:
    """Untraced iterations filling about ``seconds``; the end-to-end
    metrics, with timings scaled to the reference host speed."""
    seeds = iteration_seeds(seed)
    n = rounds_for(seconds, plan.iteration_s, MIN_ITERATIONS)
    with SpeedSampler() as sampler:
        its = [run_iteration(plan, seeds[k], outdir / "iteration", sampler,
                             probes=plan.probes)
               for k in range(n)]
    its[1].tally.check_output(its[1].digest == its[0].digest,
                              "CSV digest differs between two runs of one seed")

    def medians(scaled: bool) -> dict[str, float]:
        setup, rates, walls, match_ms = [], [], [], []
        for it in its:
            mon = it.monitor
            setup += mon.setup_samples(scaled)
            rates.append(sum(mon.agents) / sum(mon.scaled(mon.run_s, scaled)))
            walls += mon.scaled([it.wall], scaled)
            match_ms += [1e3 * s for s in mon.scaled(mon.match_s, scaled)]
        p99, percentile = tail_percentile(match_ms)
        wall_ms = [1e3 * s for it in its for s in it.monitor.match_wall_s]
        return {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "agents_per_s": statistics.median(rates),
            "match_ms_p50": statistics.median(match_ms),
            "match_ms_p99": p99,
            "match_samples": len(match_ms),
            "match_ms_p99_percentile": percentile,
            "match_wall_ms_p50": statistics.median(wall_ms),
            "match_wall_ms_p99": tail_percentile(wall_ms)[0],
        }

    metrics = medians(scaled=True)
    raw = medians(scaled=False)
    match_wall_ms = {"p50": metrics.pop("match_wall_ms_p50"),
                     "p99": metrics.pop("match_wall_ms_p99")}
    loops = sampler.loops
    detail = {
        "iterations": len(its),
        "replications": sum(len(it.monitor.run_s) for it in its),
        "match_samples": metrics.pop("match_samples"),
        "match_ms_p99_percentile": metrics.pop("match_ms_p99_percentile"),
        "probe_matches": plan.probes,
        "match_wall_ms_unscaled": match_wall_ms,
        "calibration_s": {"reference": CALIBRATION_REF_S, "samples": len(loops),
                          "median": statistics.median(loops),
                          "min": min(loops), "max": max(loops)},
        "raw": {name: raw[name] for name in metrics},
        "iteration_walls_s": [it.wall[0] for it in its],
    }
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return Outcome(metrics, [it.tally for it in its], detail)


def trace(plan: Plan, seed: int, seconds: float, outdir: Path, spans_path: Path) -> Outcome:
    """Pairs of one untraced and one traced iteration on the same seed; the
    per-layer metrics, averaged per traced iteration, and the overhead."""
    seeds = iteration_seeds(seed)[1:]
    pairs: list[tuple[Iteration, Iteration]] = []
    with SpeedSampler() as sampler:
        tracer = Tracer(sampler.clock)
        for k in range(rounds_for(seconds, TRACED_PAIR_COST * plan.iteration_s, 1)):
            plain = run_iteration(plan, seeds[k], outdir / "iteration", sampler)
            traced = run_iteration(plan, seeds[k], outdir / "iteration", sampler, tracer)
            traced.tally.check_output(traced.digest == plain.digest,
                                      "CSV digest differs between traced and untraced runs")
            pairs.append((plain, traced))
    tracer.write(spans_path)

    n = len(pairs)
    totals = tracer.layer_totals()
    tallies = [traced.tally for _, traced in pairs]
    scanned = totals.get("simulation.collect_offers.scanned", 0)
    vertices = [v for t in tallies for v in t.ten_vertices]
    arcs = [a for t in tallies for a in t.ten_travel_arcs]
    per_iteration = {
        "matching.ten.vertices": sum(vertices),
        "matching.ten.travel_arcs": sum(arcs),
        "matching.preprocess.pruned_vertices": sum(t.pruned_vertices for t in tallies),
        "matching.itineraries.multi_leg": sum(t.multi_leg for t in tallies),
        "matching.unmatched.infeasible": sum(t.reasons["infeasible"] for t in tallies),
        "matching.unmatched.capacity": sum(t.reasons["capacity"] for t in tallies),
        "trace.spans": len(tracer.start),
    }
    for key in ("riders", "matched", "delivered", "late", "undelivered"):
        per_iteration[f"outcome.{key}"] = sum(t.outcome[key] for t in tallies)
    plain_wall = statistics.median(p.wall[0] for p, _ in pairs)
    overhead = statistics.median(t.wall[0] - p.wall[0] for p, t in pairs)
    measured = {**totals, **per_iteration}
    metrics = {name: measured.get(name, 0) / n for name in PER_LAYER}
    metrics.update({
        "simulation.collect_offers.kept_per_scanned":
            totals.get("simulation.collect_offers.kept", 0) / scanned if scanned else 0.0,
        "matching.ten.vertices_max": max(vertices, default=0),
        "matching.ten.travel_arcs_max": max(arcs, default=0),
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / plain_wall,
    })
    detail = {
        "pairs": n,
        "untraced_wall_s": plain_wall,
        "collect_offers_scanned_base": scanned / n,
        "spans_file": str(spans_path),
    }
    return Outcome(metrics, [it.tally for pair in pairs for it in pair], detail)
