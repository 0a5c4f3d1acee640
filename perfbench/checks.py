"""Output checks with failure accounting.

Every rider request, every replication and every whole-workload output is
one attempted operation. A rider request fails when its committed itinerary
is malformed (it does not chain origin to destination, a leg alights after
the next leg boards, or a driver is boarded again after being left) or when
the rider is delivered after ``latest_arrival``. A workload output fails
when validation breaks its threshold or when two runs of one seed write
different CSV bytes.

Late delivery is a known defect of the traffic model, not a malformed
output, so it counts in ``failed`` but leaves ``correct`` true; every other
failure makes the run incorrect.
"""
from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from ridesim.agents import Role

EPS = 1e-9


def itinerary_problems(origin: int, destination: int, itinerary) -> list[str]:
    legs = itinerary.legs
    if not legs:
        return ["itinerary has no legs"]
    problems = []
    if legs[0].board_node != origin or legs[-1].alight_node != destination:
        problems.append("does not chain origin to destination")
    for leg, nxt in zip(legs, legs[1:]):
        if leg.alight_node != nxt.board_node:
            problems.append("does not chain origin to destination")
        if leg.alight_step > nxt.board_step:
            problems.append("leg alights after the next leg boards")
    drivers = [leg.driver for leg in legs]
    if len(set(drivers)) != len(drivers):
        problems.append("driver re-boarded after being left")
    return problems


@dataclass
class Tally:
    """Attempts, failures and rider outcomes of one workload iteration."""

    attempted: int = 0
    failed: int = 0
    incorrect: int = 0
    outcome: Counter = field(default_factory=Counter)
    reasons: Counter = field(default_factory=Counter)
    problems: Counter = field(default_factory=Counter)
    multi_leg: int = 0
    ten_vertices: list[int] = field(default_factory=list)
    ten_travel_arcs: list[int] = field(default_factory=list)
    pruned_vertices: int = 0

    def fail(self, problem: str, incorrect: bool = True) -> None:
        self.failed += 1
        self.incorrect += incorrect
        self.problems[problem] += 1

    def check_output(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(problem)

    def audit_replication(self, sim) -> None:
        """Check every rider of one finished replication."""
        self.attempted += 1
        for row in sim.match_trace:
            self.ten_vertices.append(row["vertices"])
            self.ten_travel_arcs.append(row["travel_arcs"])
            self.pruned_vertices += row["pruned_vertices"]
        for agent_id in sorted(sim.agents):
            agent = sim.agents[agent_id]
            if agent.role is not Role.RIDER:
                continue
            self.outcome["riders"] += 1
            result = sim.match_results[agent_id]
            self.attempted += 1
            if not result.matched:
                self.reasons[result.reason] += 1
                continue
            self.outcome["matched"] += 1
            if len(result.itinerary.legs) > 1:
                self.multi_leg += 1
            problems = itinerary_problems(agent.origin, agent.destination,
                                          result.itinerary)
            alight = sim.rider_alight_time.get(agent_id)
            late = alight is not None and alight > agent.window.latest_arrival + EPS
            self.outcome["undelivered" if alight is None else "delivered"] += 1
            self.outcome["late"] += late
            if problems:
                self.fail(problems[0])
            elif late:
                self.fail("delivered after latest_arrival", incorrect=False)


def csv_digest(outdir: Path) -> str:
    """SHA-256 over every CSV under ``outdir``, in path order."""
    digest = hashlib.sha256()
    for path in sorted(outdir.rglob("*.csv")):
        digest.update(str(path.relative_to(outdir)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()
