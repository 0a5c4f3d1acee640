"""Span tracer built from outside the program.

Each wrapped function records one span: name, start, end and the span that
was open when it was called. Spans stay in memory (flat arrays) and are
written once, at exit. A layer's self time is its spans' duration minus the
time their direct child spans cover; children run inside their parent on
one thread, so that covered time is the sum of the children's durations.
"""
from __future__ import annotations

from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

import numpy as np

import ridesim.config as config
import ridesim.demand as demand
import ridesim.experiments as experiments
import ridesim.matching as matching
import ridesim.simulation as simulation
from ridesim.config import ScenarioConfig
from ridesim.simulation import SimState

from hooks import Patcher

EVENT_KINDS = {
    simulation.EV_AGENT_ENTER: "agent_enter",
    simulation.EV_ARRIVE_NODE: "arrive_node",
    simulation.EV_DEPART_NODE: "depart_node",
    simulation.EV_BACKGROUND: "background",
}

# Dijkstra calls are split by the span that made them.
DIJKSTRA_CALLERS = {"simulation.run": "replan",
                    "simulation.commit_itinerary": "commit"}


def _count_offers(counts: Counter, args, result) -> None:
    counts["simulation.collect_offers.scanned"] += len(args[0].vehicles)
    counts["simulation.collect_offers.kept"] += len(result)


def _count_rejected(counts: Counter, args, result) -> None:
    counts["simulation.commit_itinerary.rejected"] += result is False


def _count_bytes(counts: Counter, args, result) -> None:
    counts["reports.write_csv_atomic.bytes"] += Path(args[0]).stat().st_size


# (span name, owner looked up by the program, attribute, counter hook)
LAYERS = [
    ("config.load_config", config, "load_config", None),
    ("config.make_network", ScenarioConfig, "make_network", None),
    ("demand.calibrate_od_rates", config, "calibrate_od_rates", None),
    ("simulation.init_simulation", experiments, "init_simulation", None),
    ("demand.generate_agents", simulation, "generate_agents", None),
    ("simulation.run", SimState, "run", None),
    ("simulation.link_delay", SimState, "link_delay", None),
    ("network.volume_delay", simulation, "volume_delay", None),
    ("routing.dijkstra_route", simulation, "dijkstra_route", None),
    ("routing.dijkstra_route", demand, "dijkstra_route", None),
    ("matching.match_rider", simulation, "match_rider", None),
    ("simulation.collect_offers", SimState, "collect_offers", _count_offers),
    ("matching.build_time_expanded", matching, "build_time_expanded", None),
    ("matching.preprocess", matching, "preprocess", None),
    ("matching.solve_itinerary", matching, "solve_itinerary", None),
    ("simulation.commit_itinerary", SimState, "commit_itinerary", _count_rejected),
    ("reports.write_csv_atomic", experiments, "write_csv_atomic", _count_bytes),
]


class Tracer:
    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.open = [-1]
        self.counts: Counter = Counter()

    def install(self, patcher: Patcher) -> None:
        for name, owner, attr, after in LAYERS:
            patcher.wrap(owner, attr, self._span(name, after))
        patcher.wrap(SimState, "push_event", self._count_events)

    def _span(self, name: str, after):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)

        def make(original):
            def traced(*args, **kwargs):
                idx = len(self.start)
                self.name_of.append(name_id)
                self.parent.append(self.open[-1])
                self.start.append(0.0)
                self.end.append(0.0)
                self.open.append(idx)
                t0 = self.clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.end[idx] = self.clock()
                    self.start[idx] = t0
                    self.open.pop()
                if after is not None:
                    after(self.counts, args, result)
                return result
            return traced
        return make

    def _count_events(self, original):
        def push_event(sim, time, kind, payload):
            self.counts[f"simulation.events.{EVENT_KINDS[kind]}"] += 1
            return original(sim, time, kind, payload)
        return push_event

    def layer_totals(self) -> dict[str, float]:
        """Calls, self seconds and inclusive seconds per span name, plus the
        Dijkstra split by caller; sums over every span recorded."""
        n = len(self.start)
        names = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_sum = np.bincount(names, weights=self_s, minlength=k)
        incl_sum = np.bincount(names, weights=dur, minlength=k)
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_sum[i])
            out[f"{name}.s"] = float(incl_sum[i])

        for bucket in ("replan", "commit", "setup"):
            out[f"routing.dijkstra_route.{bucket}.calls"] = 0
            out[f"routing.dijkstra_route.{bucket}.self_s"] = 0.0
        is_dijkstra = names == self.names.index("routing.dijkstra_route")
        for p, s in zip(parent[is_dijkstra], self_s[is_dijkstra]):
            caller = self.names[names[p]] if p >= 0 else ""
            bucket = DIJKSTRA_CALLERS.get(caller, "setup")
            out[f"routing.dijkstra_route.{bucket}.calls"] += 1
            out[f"routing.dijkstra_route.{bucket}.self_s"] += float(s)
        out.update(self.counts)
        return out

    def write(self, path: Path) -> None:
        """Write every span: name table, name index, parent index, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name_of, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
