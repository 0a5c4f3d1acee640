"""Agent types shared by the demand generator, the simulator and the matcher."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional


class Role(str, Enum):
    REGULAR_DRIVER = "regular_driver"
    RIDESHARE_DRIVER = "rideshare_driver"
    RIDER = "rider"


@dataclass(frozen=True, slots=True)
class TimeWindow:
    """Schedule flexibility of one trip, all bounds in hours.

    ``earliest_departure <= latest_departure`` and
    ``earliest_arrival <= latest_arrival`` always; a window constructed by
    the demand generator additionally admits the free-flow solo trip.
    """

    earliest_departure: float
    latest_departure: float
    earliest_arrival: float
    latest_arrival: float

    def __post_init__(self) -> None:
        if self.earliest_departure > self.latest_departure:
            raise ValueError("earliest_departure exceeds latest_departure")
        if self.earliest_arrival > self.latest_arrival:
            raise ValueError("earliest_arrival exceeds latest_arrival")
        if self.earliest_departure > self.latest_arrival:
            raise ValueError("earliest_departure exceeds latest_arrival")


@dataclass(slots=True)
class VehicleAgent:
    """One traveller: a regular driver, a ridesharing driver, or a rider.

    ``window`` is None exactly for a regular driver: it leaves at its
    ``request_time`` and replans at every node, and nothing reads a
    schedule for it. Riders and ridesharing drivers have one.
    """

    id: int
    role: Role
    origin: int
    destination: int
    request_time: float
    window: Optional[TimeWindow]
    seats: int = 0

    def __post_init__(self) -> None:
        if self.origin == self.destination:
            raise ValueError(f"agent {self.id}: origin equals destination")
        if self.seats < 0:
            raise ValueError(f"agent {self.id}: negative seat count")
