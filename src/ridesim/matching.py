"""Multi-hop ride matching: one rider request, matched once against the
drivers of a live simulation.

``match_rider`` runs the pipeline at one simulation instant:

1. it takes every link's whole-step duration, ``tau``, once per request
   from the traffic state frozen at that instant
   (``SimState.matching_steps``), and the drivers' free slots from the
   offer index the simulation keeps (``SimState.collect_offers``; a slot
   is ``schedule.free_slot``'s);
2. ``ten.build_time_expanded`` builds the rider's time-expanded network
   from the slots at ``tau``, on the time grid of ``timegrid``, and
   ``ten.preprocess`` prunes it to the part on an origin-to-destination
   path;
3. ``dp.solve_itinerary`` finds the one least itinerary over it;
4. ``SimState.commit_itinerary`` commits it: it checks each driver's
   schedule through the chain of its pins with the rider's added
   (``schedule.pin_chain``), from its anchor at that instant, and routes
   the driver between stops along the paths of the same ``tau``'s step
   matrix (``ten.step_matrix``), with no search of its own.

Each module's docstring states its own step.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .agents import TimeWindow
# ``match_rider`` looks the three stages up in this module at each call, so
# that a wrapper set here sees every request: ``perfbench/tracer.py`` times
# them so until the benchmark reads the run record (ROADMAP item 8)
from .dp import Itinerary, solve_itinerary
from .ten import build_time_expanded, preprocess
from .timegrid import ceil_steps


@dataclass(frozen=True)
class RiderRequest:
    id: int
    origin: int
    destination: int
    window: TimeWindow
    request_time: float

    def __post_init__(self) -> None:
        if self.origin == self.destination:
            raise ValueError(f"rider {self.id}: origin equals destination")
        if self.request_time > self.window.earliest_departure + 1e-12:
            raise ValueError(f"rider {self.id}: request after earliest departure")


@dataclass(frozen=True)
class MatchResult:
    matched: bool
    itinerary: Optional[Itinerary] = None
    reason: str = ""


# the keys of a ``match_trace`` row, in ``match_trace.csv``'s column order
MATCH_TRACE_COLUMNS = ("rider_id", "request_time", "offers", "vertices", "travel_arcs",
                       "pruned_vertices", "feasible", "dp_cost", "matched")


def match_rider(sim, rider: RiderRequest) -> MatchResult:
    """Run the full pipeline once against a live simulation and commit the
    result, appending one diagnostic row to ``sim.match_trace``.

    The offer index hands the build every live driver's free slots, grouped
    by distinct free schedule, each driver listed once
    (``SimState.collect_offers``), and the build tests each schedule's
    slots once, an open slot started at the clock's step. The trace's
    ``offers`` counts every live driver (``SimState.live_drivers``), whether
    or not one of its slots passed.

    There is no retry: offers, network and commit all read the same
    simulation instant and a rejected commit changes no state, so a second
    attempt would replay the same inputs to the same rejection. A rejected
    commit is reported as ``reason="capacity"``. A run record, if the
    simulation has one, gets the request's row (``RunRecord``).
    """
    tau, clock_step = sim.matching_steps(), ceil_steps(sim.clock, sim.dt)
    offers = sim.collect_offers(clock_step)
    ten = build_time_expanded(rider, offers, sim.network, tau, sim.dt, clock_step=clock_step)
    if sim.record is not None:
        groups = {schedule: list(ids) for schedule, ids in offers.items()}
        sim.record.requests.append((rider, groups, tau, clock_step, ten))
    graph = preprocess(ten)
    itinerary = solve_itinerary(graph, sim.step_costs)
    committed = (itinerary is not None
                 and sim.commit_itinerary(rider, itinerary, tau, clock_step))
    sim.match_trace.append(dict(zip(MATCH_TRACE_COLUMNS, (
        rider.id, rider.request_time, sim.live_drivers, graph.ten_vertices,
        ten.driver_arcs, graph.ten_vertices - len(graph.vertices),
        graph.feasible, itinerary.total_cost if itinerary else None, committed))))
    if itinerary is None:
        return MatchResult(False, reason="infeasible")
    if not committed:
        return MatchResult(False, reason="capacity")
    return MatchResult(True, itinerary)
