"""A ridesharing driver's schedule: its stops, and the free slots between
them in which it can carry a rider.

A driver's schedule runs from its anchor, where it is or the end of the
link it is on, through one stop per pin to its destination. A slot is the
stretch between two consecutive stops; it is free when a seat is free in
it and it ends after it starts, and then it is the driver's offer to a
rider (``free_slot``, the one home of that rule). The first slot runs from
the anchor to the next stop. The slots after that do not depend on where
the driver is, and the vehicle keeps them from the chain of its pins
(``pin_chain``), derived where its pins or riders aboard change. A driver
standing at its node has an open first slot, which starts at whatever
step the clock has reached: it is listed without its start, and the
network build starts it at the clock's step by the same rule
(``leave_by_step``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .timegrid import INF


@dataclass(frozen=True)
class Pin:
    """A committed pickup or dropoff the driver must still serve."""

    node: int
    step: int
    action: str  # "board" | "alight"
    rider_id: int


Stop = tuple[int, int, bool]  # (node, deadline step, holds)
# (a, s, b, t, leave_by): a slot from stop (a, s) to stop (b, t) with a free
# seat, left from a by step leave_by (INF unless the driver is not underway);
# s is None in an open slot, one that starts at the clock's step
FreeSlot = tuple[int, Optional[int], int, int, float]
# a driver's free slots in chain order: its first, if that is free, then the
# slots after its first stop; the offer index lists each driver under it
FreeSchedule = tuple[FreeSlot, ...]


def free_slot(a: int, s: Optional[int], b: int, t: int, occupancy: int, seats: int,
              latest_departure: float) -> Optional[FreeSlot]:
    """The free slot from stop (a, s) to stop (b, t), or None when its
    ``occupancy`` fills the ``seats`` or it ends by the step it starts. The
    driver leaves a by ``latest_departure``: its latest departure step while
    it is not yet underway, INF once it is. Every slot after a driver's
    first is entered underway; its leave-by step is ``leave_by_step``'s.

    An open slot, s None, keeps its end and ``latest_departure`` as they
    are: it starts at the clock's step, which only the network build knows,
    and there ``leave_by_step`` starts it. ``pin_chain`` builds the later
    slots by this rule, and the offer index the first slot of every driver
    (``SimState.collect_offers``)."""
    if occupancy >= seats:
        return None
    if s is None:
        return a, s, b, t, latest_departure
    leave_by = leave_by_step(s, t, latest_departure)
    return None if leave_by is None else (a, s, b, t, leave_by)


def leave_by_step(s: int, t: int, latest_departure: float) -> Optional[float]:
    """The step by which a driver leaves the start of a slot from step s to
    step t: ``latest_departure``, or s once that has passed; None when the
    slot ends by the step it starts (t <= s), since an arc in it needs s <=
    k and k + steps <= t, and every link takes at least one step."""
    if t <= s:
        return None
    return latest_departure if latest_departure > s else s


# (stops, occupancies, later slots) of a driver's pins; see ``pin_chain``
PinChain = tuple[tuple[Stop, ...], tuple[int, ...], tuple[FreeSlot, ...]]


def pin_chain(driver: int, pins: tuple[Pin, ...], aboard: int, seats: int,
              destination: int, latest_arrival_step: int) -> PinChain:
    """The schedule of ridesharing driver ``driver`` after its anchor, with
    ``pins`` still ahead, in service order, and ``aboard`` riders on board:
    (stops, occupancies, later slots).

    ``stops`` are its (node, deadline step, holds) stops: each pin at its
    pinned step, then ``destination`` by ``latest_arrival_step``; a
    boarding stop holds the vehicle until its step, other stops do not.
    ``occupancies`` are the riders on board in each slot, the first from
    the anchor to ``stops[0]``. The later slots are the slots after
    ``stops[0]`` with a free seat that end after they start, in order
    (``free_slot``). None of the three depends on where the driver is or
    from when; of its slots only the first does, which the offer index lists
    from the vehicle's values and the commit checks from the anchor stop it
    puts in front of ``stops``. Raises ValueError when the pins' steps
    decrease or an occupancy goes negative, since neither can come from a
    valid commit.
    """
    for first, then in zip(pins, pins[1:]):
        if first.step > then.step:
            raise ValueError(f"driver {driver}: pin steps decrease in pin chain")
    stops = []
    occs = [aboard]
    for pin in pins:
        boards = pin.action == "board"
        stops.append((pin.node, pin.step, boards))
        occs.append(occs[-1] + (1 if boards else -1))
        if occs[-1] < 0:
            raise ValueError(f"driver {driver}: negative occupancy in pin chain")
    stops.append((destination, latest_arrival_step, False))
    later = []
    for (a, s, _), (b, t, _), occupancy in zip(stops, stops[1:], occs[1:]):
        found = free_slot(a, s, b, t, occupancy, seats, INF)
        if found is not None:
            later.append(found)
    return tuple(stops), tuple(occs), tuple(later)
