"""Experiment harness: flow-distribution validation and the carpool sweep.

Validation runs the baseline scenario (ridesharing off) for several seeded
replications, compares simulated link-entry proportions against the observed
distribution and applies a goodness-of-fit test. The sweep reruns the
ridesharing scenario across carpool-lane background levels with common
random numbers per replication index, reporting mean and spread of the
match rate.

Memory: every replication is built, run, read and dropped by one function,
``_replicate``, inside one pause of CPython's cyclic garbage collector
(its ``try``/``finally``). The collector's passes start on allocation counts,
and most of what a replication allocates stays alive until it ends (agents,
vehicles, events: about 144,000 tracked objects after one day of the
bundled validation scenario), so each pass would walk them again and find
no garbage. A replication builds no reference cycle ("Memory" in
``ridesim.simulation``), so reference counting frees it once it is
dropped, and no pass runs while one is alive. The experiments read only a
summary (``validation_counts``, ``rider_summary``); ``build_report``, the
per-agent table, is built only for a single run, whose replication
``run_single`` returns to its caller and so outlives the pause. The sweep
also keeps one replication's ``population``, its generated agents, and
hands it to the same replication index at every later level, so that
population outlives its replication across the levels of one index; it is
dropped before the next index draws its own, so one population is alive
at a time beside one replication.

Critical value: the test's critical value is the upper ``ALPHA`` quantile
of the chi-squared distribution with df = links - 1, computed here with
``math`` alone (Abramowitz & Stegun, *Handbook of Mathematical Functions*,
§26.4). For whole df the upper tail ``chi2_sf`` is the regularized upper
incomplete gamma Q(df/2, x/2), a finite sum: with y = x/2 and h = 1/2 for
odd df, 0 for even df,

    Q = sum over j < df // 2 of exp(-y + (j + h) ln y - lgamma(j + h + 1))
        + erfc(sqrt(y)) when df is odd.

Every term is positive, so the sum does not cancel, and each is formed in
log space, so a large df neither overflows nor underflows. ``chi2_isf``
bisects for the smallest double whose tail is at most ``ALPHA``: the upper
end doubles from df until the tail falls to ``ALPHA``, then the bracket
halves until its midpoint equals an end. Against 40-digit roots it is
correctly rounded at df 1, 3 and 4 and one ulp off at df 2 and 5; over df
1-400 it agrees with ``scipy.stats.chi2.ppf`` to 1e-14 relative at alpha
0.01, 0.05 and 0.10 (the test suite checks both). It runs once per
validation and costs about 75 µs at the bundled df = 3 and 5 ms at
df 500 (best of 5, shared 2-vCPU host).
"""
from __future__ import annotations

import dataclasses
import gc
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .agents import VehicleAgent
from .config import ScenarioConfig
from .matching import MATCH_TRACE_COLUMNS
from .network import ConfigError, Network, flow_distribution
from .reports import write_csv_atomic, write_json_atomic
from .simulation import RiderSummary, SimReport, SimState, init_simulation


ALPHA = 0.05  # significance level of the validation's goodness-of-fit test


def _replicate(config: ScenarioConfig, network: Network, seed: int,
               read: Callable[[SimState], object],
               population: tuple[VehicleAgent, ...] | None = None):
    """Build and run one replication, drawing its population unless one is
    handed in (``SimState``), and return ``read`` of it, inside one
    collector pause that ends after the replication is dropped, unless
    ``read`` returned it ("Memory" in the module docstring). The pause
    ends also by an exception, and leaves the collector off if it was
    off; once it is back on, nothing is allocated before the return, so
    no pass starts before the caller's code runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim = init_simulation(config, network, seed, population)
        sim.run()
        result = read(sim)
        del sim  # free this replication before the collector is back on
    finally:
        if enabled:
            gc.enable()
    return result


def resolve_demand(config: ScenarioConfig, network: Network) -> ScenarioConfig:
    """``config`` with its demand's O-D rates resolved on ``network``
    (``ScenarioConfig.demand_spec``), so that its replications calibrate
    none. Its fingerprint is not the scenario's: take that from
    ``config``."""
    return dataclasses.replace(config, demand=config.demand_spec(network))


def replication_seeds(base_seed: int, count: int) -> list[int]:
    """Stable per-replication seeds derived from one base seed."""
    seq = np.random.SeedSequence(base_seed)
    return [int(child.generate_state(1)[0]) for child in seq.spawn(count)]


def chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X chi-squared with whole ``df >= 1`` degrees of
    freedom and x > 0 ("Critical value" in the module docstring)."""
    y, h = x / 2.0, 0.5 * (df % 2)
    log_y = math.log(y)
    tail = math.erfc(math.sqrt(y)) if h else 0.0
    # a plain loop, not sum(), which rounds differently from Python 3.12 on
    for j in range(df // 2):
        tail += math.exp((j + h) * log_y - y - math.lgamma(j + h + 1.0))
    return tail


def chi2_isf(alpha: float, df: int) -> float:
    """The smallest double x with ``chi2_sf(x, df) <= alpha``, for whole
    ``df >= 1`` and 0 < alpha < 1: the chi-squared quantile at
    1 - ``alpha`` ("Critical value" in the module docstring)."""
    lo, hi = 0.0, float(df)
    while chi2_sf(hi, df) > alpha:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := (lo + hi) / 2.0) < hi:
        lo, hi = (lo, mid) if chi2_sf(mid, df) <= alpha else (mid, hi)
    return hi


def chi_squared_gof(
    observed: dict[int, float],
    expected_proportions: dict[int, float],
) -> tuple[float, float, bool]:
    """Pearson goodness-of-fit: (statistic, critical value, reject).

    Expected counts are ``proportion * sum(observed)``; degrees of freedom
    are categories minus one, so at least two categories are needed;
    reject iff the statistic exceeds the critical value
    ``chi2_isf(ALPHA, df)``: the smallest double whose chi-squared upper
    tail, the finite sum of A&S §26.4, is at most ``ALPHA``, found by
    bisection and correctly rounded or one ulp off at df 1-5 ("Critical
    value" in the module docstring).
    """
    if len(expected_proportions) < 2:
        raise ConfigError("chi-squared test needs at least two categories")
    total = sum(observed.values())
    if total <= 0:
        raise ConfigError("chi-squared test needs a positive total count")
    prop_sum = sum(expected_proportions.values())
    if abs(prop_sum - 1.0) > 1e-9:
        raise ConfigError("expected proportions must sum to 1")
    statistic = 0.0
    for key in sorted(expected_proportions):
        expected = expected_proportions[key] * total
        if expected <= 0:
            raise ConfigError(f"expected count for category {key} is zero")
        diff = observed.get(key, 0.0) - expected
        statistic += diff * diff / expected
    df = len(expected_proportions) - 1
    critical = chi2_isf(ALPHA, df)
    return statistic, critical, statistic > critical


@dataclass(frozen=True)
class ValidationReport:
    link_ids: tuple[int, ...]
    real_proportions: dict[int, float]
    simulated_proportions: dict[int, float]
    mean_absolute_error: float
    chi_squared: float
    degrees_of_freedom: int
    critical_value: float
    reject: bool
    seeds: tuple[int, ...]
    fingerprint: str

    def rows(self) -> list[tuple]:
        rows = []
        for link_id in self.link_ids:
            real = self.real_proportions[link_id]
            sim = self.simulated_proportions[link_id]
            rows.append((link_id, real, sim, abs(real - sim)))
        return rows

    def write_csv(self, path: Path) -> None:
        write_csv_atomic(
            path,
            ("link_id", "real_proportion", "simulated_proportion", "absolute_error"),
            self.rows(),
        )

    def write_meta(self, path: Path) -> None:
        write_json_atomic(path, {
            "mean_absolute_error": self.mean_absolute_error,
            "chi_squared": self.chi_squared,
            "degrees_of_freedom": self.degrees_of_freedom,
            "critical_value": self.critical_value,
            "alpha": ALPHA,
            "reject": self.reject,
            "replications": len(self.seeds),
            "seeds": list(self.seeds),
            "config_fingerprint": self.fingerprint,
        })


def run_validation(config: ScenarioConfig) -> ValidationReport:
    """Reproduce the baseline traffic validation against observed flows.

    Ridesharing is disabled (all agents regular drivers) so the test
    isolates the traffic model. Raises when the scenario network lacks
    observed flows or has fewer than two links (the test would have no
    degree of freedom), or a run produces no vehicles.
    """
    network = config.make_network()
    if any(l.observed_daily_flow <= 0 for l in network.links):
        raise ConfigError("every link needs a positive observed_daily_flow")
    if len(network.links) < 2:
        raise ConfigError(f"{config.network}: links must name at least two "
                          "links for the validation's goodness-of-fit test")
    base = config.with_shares(0.0, 0.0, 1.0)
    resolved = resolve_demand(base, network)
    seeds = replication_seeds(config.seed, config.replications)

    real = flow_distribution(
        {l.id: l.observed_daily_flow for l in network.links}
    )
    totals = {l.id: 0.0 for l in network.links}
    for rep_seed in seeds:
        counts = _replicate(resolved, network, rep_seed, SimState.validation_counts)
        for link_id, count in counts.items():
            totals[link_id] += count
    grand_total = sum(totals.values())
    if grand_total <= 0:
        raise ConfigError("validation runs produced zero vehicles")
    simulated = flow_distribution(totals)
    errors = [abs(real[l] - simulated[l]) for l in sorted(real)]
    # test the replication-averaged counts: one representative run's volume
    mean_counts = {l: c / config.replications for l, c in totals.items()}
    statistic, critical, reject = chi_squared_gof(mean_counts, real)
    return ValidationReport(
        link_ids=tuple(sorted(real)),
        real_proportions=real,
        simulated_proportions=simulated,
        mean_absolute_error=sum(errors) / len(errors),
        chi_squared=statistic,
        degrees_of_freedom=len(real) - 1,
        critical_value=critical,
        reject=reject,
        seeds=tuple(seeds),
        fingerprint=base.fingerprint(),
    )


@dataclass(frozen=True)
class SweepRow:
    unused_fraction: float
    replications: int
    mean_match_rate: float
    std_match_rate: float
    riders: int
    warning: str
    summaries: tuple[RiderSummary, ...]  # one per replication, in seed order; not written


@dataclass(frozen=True)
class SweepReport:
    rows: tuple[SweepRow, ...]
    seeds: tuple[int, ...]
    fingerprint: str
    shares: tuple[float, float, float]  # (rider, rideshare, regular)

    def write_csv(self, path: Path) -> None:
        write_csv_atomic(
            path,
            ("unused_capacity", "replications", "mean_match_rate",
             "std_match_rate", "riders", "warning"),
            [(r.unused_fraction, r.replications, r.mean_match_rate,
              r.std_match_rate, r.riders, r.warning) for r in self.rows],
        )

    def write_meta(self, path: Path) -> None:
        write_json_atomic(path, {
            "seeds": list(self.seeds),
            "config_fingerprint": self.fingerprint,
            "shares": list(self.shares),
            "rows": [
                {
                    "unused_capacity": r.unused_fraction,
                    "mean_match_rate": r.mean_match_rate,
                    "std_match_rate": r.std_match_rate,
                }
                for r in self.rows
            ],
        })


def run_capacity_sweep(config: ScenarioConfig) -> SweepReport:
    """Match-rate response to carpool-lane background load.

    Participation follows the scenario's ``demand.shares`` at every level.
    The sweep runs replication index by replication index, each over every
    level in ``config.levels`` order. Common random numbers pair the
    levels by construction: an index runs every level with one seed, and
    its first level draws the population that every later level takes, as
    a level changes only ``unused_capacity``, which the draw does not read
    (``SimState``). Each level's background load comes from that seed's
    own stream. So a level's row is the one a sweep of that level alone
    gives. Rows keep ``config.levels`` order, and each row's summaries
    seed order.
    """
    network = config.make_network()
    if not network.carpool_links():
        raise ConfigError("capacity sweep needs a carpool-lane link")
    seeds = replication_seeds(config.seed, config.replications)
    resolved = resolve_demand(config, network)
    scenarios = [dataclasses.replace(resolved, unused_capacity=level)
                 for level in config.levels]

    def read(sim: SimState):
        return sim.rider_summary(), sim.population

    level_summaries: list[list[RiderSummary]] = [[] for _ in scenarios]
    for rep_seed in seeds:
        population = None  # dropped before this index draws its own
        for summaries, scenario in zip(level_summaries, scenarios):
            summary, population = _replicate(scenario, network, rep_seed, read, population)
            summaries.append(summary)

    rows = []
    for level, summaries in zip(config.levels, level_summaries):
        rates = [summary.match_rate for summary in summaries]
        riders = sum(summary.riders for summary in summaries)
        mean = float(np.mean(rates))
        std = float(np.std(rates, ddof=1)) if len(rates) > 1 else 0.0
        warning = "" if riders else "no riders generated"
        rows.append(SweepRow(level, config.replications, mean, std, riders, warning,
                             tuple(summaries)))
    return SweepReport(
        rows=tuple(rows),
        seeds=tuple(seeds),
        fingerprint=config.fingerprint(),
        shares=dataclasses.astuple(config.demand.shares),
    )


def run_single(config: ScenarioConfig, seed: int | None = None) -> tuple[SimState, SimReport]:
    """One scenario run with the configured demand and background level,
    and its report."""
    return _replicate(config, config.make_network(),
                      config.seed if seed is None else seed,
                      lambda sim: (sim, sim.build_report()))


def write_sim_report(report: SimReport, outdir: Path, fingerprint: str,
                     seed: int) -> None:
    write_csv_atomic(
        outdir / "link_flows.csv",
        ("link_id", "lane_class", "count"),
        [(lid, cls.value, count)
         for (lid, cls), count in sorted(report.link_class_counts.items(),
                                         key=lambda kv: (kv[0][0], kv[0][1].value))],
    )
    write_csv_atomic(
        outdir / "agents.csv",
        ("id", "role", "matched", "departure", "arrival"),
        [(o.agent_id, o.role.value, o.matched, o.departure, o.arrival)
         for o in report.outcomes],
    )
    write_csv_atomic(
        outdir / "summary.csv",
        ("metric", "value"),
        [("match_rate", report.riders.match_rate),
         ("mean_travel_time", report.mean_travel_time())],
    )
    write_csv_atomic(
        outdir / "match_trace.csv",
        MATCH_TRACE_COLUMNS,
        [tuple(row[key] for key in MATCH_TRACE_COLUMNS) for row in report.match_trace],
    )
    write_json_atomic(outdir / "run_meta.json", {
        "config_fingerprint": fingerprint,
        "seed": seed,
        "riders_total": report.riders.riders,
        "riders_matched": report.riders.committed,
        "stranded": report.stranded_count,
    })
