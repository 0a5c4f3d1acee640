"""Wrap ridesim functions where the program looks them up.

``from .routing import dijkstra_route`` binds the function into the
importing module, so a wrapper must replace that module's attribute (or the
class attribute, for ``SimState`` methods) to see the calls. ``Patcher``
does this and undoes it in reverse order. ``Monitor`` holds the few timers
the end-to-end metrics need; it is on in every run, traced or not.

``SpeedSampler`` measures the host's speed while the program runs. A shared
host runs the same Python code a quarter faster or slower from one minute to
the next, at times within seconds, and every timing moves with it. A fixed
loop timed only between replications follows that poorly: over 25 runs of
one multihop-grid input on a 2-vCPU shared VM, its times correlated with the
replication's run time at 0.32, and scaling by them made the run times less
steady, not more. So an interval timer interrupts the program every
``SAMPLE_PERIOD_S`` to time a fixed heap-and-dict loop (about 0.5 ms). On
the same 25 runs, with a reading every 50 ms, the mean loop time over an
iteration correlated with the iteration's run time at 0.91, and scaling by
it halved their spread. The
host's speed also swings within a fraction of a second, so every timed
interval, down to one ``match_rider`` call, is scaled by
``CALIBRATION_REF_S`` over the mean loop time read during it, widened to the
``WINDOW`` readings nearest to it. The loop does not touch ridesim, so a
change to the program moves scaled timings as much as raw ones. The
sampler's own time is taken out of every timer through ``clock`` and
``cpu_clock``.

A match latency is the thread's CPU time over the call: ``match_rider`` is
pure Python computation with no I/O, so on an idle host its CPU time is its
latency, and on a shared one the time the host gives the CPU to others
(preemption, hypervisor steal) stays out of the tail. The wall-clock
latencies are kept beside them for the detail line.
"""
from __future__ import annotations

import functools
import gc
import heapq
import signal
import statistics
from time import perf_counter, thread_time
from typing import Callable

import ridesim.experiments as experiments
import ridesim.simulation as simulation
from ridesim.config import ScenarioConfig


CALIBRATION_REF_S = 0.0005  # the loop's time on the reference host
SAMPLE_PERIOD_S = 0.025
WINDOW = 8  # fewest readings a scale factor rests on


def calibration_loop() -> float:
    """CPU time of a fixed heap-and-dict loop: the host's speed now. CPU
    time, so that a loop the host preempts does not read as a slow one. The
    collector is off, so the program's live objects, which a collection
    would scan, do not enter the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = thread_time()
        heap: list = []
        table: dict = {}
        for i in range(400):
            heapq.heappush(heap, (i * 7919 % 1000, i))
            table[i % 977] = i * 0.5
        while heap:
            heapq.heappop(heap)
        return thread_time() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Times ``calibration_loop`` every ``SAMPLE_PERIOD_S`` of wall time,
    from a SIGALRM handler, while in its ``with`` block (main thread only).

    ``clock`` and ``cpu_clock`` are ``perf_counter`` and ``thread_time``
    less the time spent in the handler, so intervals measured with them
    leave the sampling out.
    """

    def __init__(self) -> None:
        self.loops: list[float] = []
        self.spent = 0.0
        self.spent_cpu = 0.0
        self._previous = None

    def __enter__(self) -> SpeedSampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        t0, c0 = perf_counter(), thread_time()
        self.loops.append(calibration_loop())
        self.spent_cpu += thread_time() - c0
        self.spent += perf_counter() - t0

    def clock(self) -> float:
        return perf_counter() - self.spent

    def cpu_clock(self) -> float:
        return thread_time() - self.spent_cpu

    def mark(self) -> int:
        """The index of the next reading: an interval's bound."""
        return len(self.loops)

    def scale(self, first: int, last: int) -> float:
        """The factor that scales a timing made between readings ``first``
        and ``last`` to the reference host speed: ``CALIBRATION_REF_S`` over
        the mean of those readings, widened on both sides to ``WINDOW``."""
        if not self.loops:
            self.loops.append(calibration_loop())
        n = len(self.loops)
        while last - first < WINDOW and (first > 0 or last < n):
            first, last = max(0, first - 1), min(n, last + 1)
        return CALIBRATION_REF_S / statistics.fmean(self.loops[first:last])


class Patcher:
    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` by ``make(original)``."""
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Monitor:
    """Set-up, run and match timers for one workload iteration.

    ``on_sim`` is called with each finished replication (checks, probes);
    its time is kept out of the iteration's wall time. All timers read
    ``sampler``'s clocks, and each timing keeps the sampler readings it
    spans, as ``(seconds, first, last)``, so that it can be scaled.
    ``match_s`` holds the match latencies in CPU time, ``match_wall_s`` the
    same calls' unscaled wall-clock latencies.
    """

    def __init__(self, on_sim: Callable, sampler: SpeedSampler) -> None:
        self.on_sim = on_sim
        self.sampler = sampler
        self.load_s: list[tuple[float, int, int]] = []  # config and network loads
        self.init_s: list[tuple[float, int, int]] = []  # init_simulation, per replication
        self.run_s: list[tuple[float, int, int]] = []   # SimState.run, per replication
        self.agents: list[int] = []
        self.match_s: list[tuple[float, int, int]] = []
        self.match_wall_s: list[float] = []
        self.excluded_s = 0.0

    def timed(self, into: list, original: Callable, *args, **kwargs):
        """Call ``original`` and append its timing to ``into``."""
        first, t0 = self.sampler.mark(), self.sampler.clock()
        result = original(*args, **kwargs)
        into.append((self.sampler.clock() - t0, first, self.sampler.mark()))
        return result

    def install(self, patcher: Patcher) -> None:
        patcher.wrap(ScenarioConfig, "make_network", self._timed_load)
        patcher.wrap(experiments, "init_simulation", self._timed_init)
        patcher.wrap(simulation.SimState, "run", self._timed_run)
        patcher.wrap(simulation, "match_rider", self._timed_match)

    def _timed_load(self, original):
        def make_network(*args, **kwargs):
            return self.timed(self.load_s, original, *args, **kwargs)
        return make_network

    def _timed_init(self, original):
        def init_simulation(*args, **kwargs):
            return self.timed(self.init_s, original, *args, **kwargs)
        return init_simulation

    def _timed_run(self, original):
        def run(sim, *args, **kwargs):
            report = self.timed(self.run_s, original, sim, *args, **kwargs)
            t1 = self.sampler.clock()
            self.agents.append(len(sim.agents))
            self.on_sim(sim)
            self.excluded_s += self.sampler.clock() - t1
            return report
        return run

    def _timed_match(self, original):
        def match_rider(*args, **kwargs):
            first = self.sampler.mark()
            t0, c0 = self.sampler.clock(), self.sampler.cpu_clock()
            result = original(*args, **kwargs)
            c1, t1 = self.sampler.cpu_clock(), self.sampler.clock()
            self.match_s.append((c1 - c0, first, self.sampler.mark()))
            self.match_wall_s.append(t1 - t0)
            return result
        return match_rider

    def scaled(self, timings: list[tuple[float, int, int]], scaled: bool) -> list[float]:
        """The timings, scaled to the reference host speed if ``scaled``."""
        if not scaled:
            return [s for s, _, _ in timings]
        return [s * self.sampler.scale(first, last) for s, first, last in timings]

    def setup_samples(self, scaled: bool) -> list[float]:
        """Per-replication set-up: its init_simulation plus an equal share of
        the iteration's config and network loads."""
        share = sum(self.scaled(self.load_s, scaled)) / len(self.init_s)
        return [t + share for t in self.scaled(self.init_s, scaled)]
