"""Scenario configuration: the schema of scenario files, and fingerprints.

A scenario file names the network, the demand model and every numeric knob
of the simulator. The dataclasses below are its schema: a YAML key is its
field's name, an absent key takes the field's default, and the field's
declared type picks the reader (see ``network.read_section``, which reads
network files too). Unknown keys are rejected everywhere, and every error
names the offending key. A number's range is declared at its field
(``network.bounded``) and checked by ``network.check_bounds``, which each
section's ``__post_init__`` calls, so a section built in code is checked
too; a ``__post_init__`` adds only the rules that relate values. The
fingerprint hashes the resolved configuration together with the network
file contents, so a report can state exactly what produced it.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from .demand import _DEFAULT_PINS, Shares, calibrate_od_rates
from .network import (AT_LEAST_ONE, NON_NEGATIVE, POSITIVE, UNIT, ConfigError, Interval,
                      Network, bounded, check_bounds, load_network, number,
                      read_section, read_yaml)
from .routing import CostWeights


def _od_map(value: object, key: str) -> dict[tuple[int, int], float]:
    """``{"origin-dest": value}`` as ``{(origin, dest): float}``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a mapping")
    parsed, spelled = {}, {}
    for od, rate in value.items():
        try:
            origin, dest = map(int, str(od).split("-"))
        except ValueError as exc:
            raise ConfigError(f"{key}: bad O-D key {od!r}; "
                              f"expected 'origin-dest'") from exc
        if spelled.setdefault((origin, dest), od) != od:
            raise ConfigError(f"{key}: O-D keys {spelled[origin, dest]!r} and "
                              f"{od!r} name one pair")
        parsed[origin, dest] = number(rate, f"{key}.{od}")
    return parsed


def _od_rates(value: object, key: str) -> Optional[dict[tuple[int, int], float]]:
    """``calibrated`` as None, else an O-D map."""
    if value == "calibrated":
        return None
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be 'calibrated' or a map")
    return _od_map(value, key)


def _od_keys(od_map: dict[tuple[int, int], float]) -> dict[str, float]:
    return {f"{origin}-{dest}": value for (origin, dest), value in od_map.items()}


@dataclass(frozen=True)
class Bpr:
    """Parameters of the BPR volume-delay curve (``network.volume_delay``)."""

    alpha: float = bounded(NON_NEGATIVE, 0.15)
    beta: float = bounded(NON_NEGATIVE, 4.0)

    def __post_init__(self) -> None:
        check_bounds(self, "bpr")


@dataclass(frozen=True)
class DemandConfig:
    shares: Shares = Shares()
    window_flexibility: float = bounded(NON_NEGATIVE, 0.25)  # hours
    scale: float = bounded(NON_NEGATIVE, 0.1)
    seats: int = bounded(NON_NEGATIVE, 4)
    # hourly; None: calibrated from the network's observed flows
    od_rates: Optional[dict[tuple[int, int], float]] = bounded(
        NON_NEGATIVE, None, read=_od_rates)
    # daily; None: demand._DEFAULT_PINS
    calibration_fixed_daily: Optional[dict[tuple[int, int], float]] = bounded(
        NON_NEGATIVE, None, read=_od_map)

    def __post_init__(self) -> None:
        check_bounds(self, "demand")
        for name in ("od_rates", "calibration_fixed_daily"):
            for origin, dest in getattr(self, name) or ():
                if origin == dest:
                    raise ConfigError(f"demand.{name}.{origin}-{dest}: origin equals destination")


@dataclass(frozen=True)
class ScenarioConfig:
    network: Path = Path("la_testbed.yaml")  # load_config resolves it
    horizon: float = bounded(POSITIVE, 24.0)
    seed: int = bounded(NON_NEGATIVE, 0)
    replications: int = bounded(AT_LEAST_ONE, 20)
    weights: CostWeights = CostWeights()
    bpr: Bpr = Bpr()
    dt: float = bounded(POSITIVE, 0.05)
    penalty: Optional[float] = bounded(NON_NEGATIVE, None)
    flow_window: float = bounded(POSITIVE, 0.25)
    unused_capacity: float = bounded(UNIT, 1.0)
    # closed at infinity: .inf accepts any validation error
    validation_error_threshold: float = bounded(Interval(0, math.inf, high_closed=True), 0.01)
    output_dir: Path = Path("out")
    demand: DemandConfig = DemandConfig()
    levels: tuple[float, ...] = bounded(UNIT, (1.0, 0.75, 0.5, 0.25))

    def __post_init__(self) -> None:
        check_bounds(self, "")
        if not self.levels:
            raise ConfigError("levels must name at least one level")
        if self.weights.time * self.dt == math.inf:  # a step's cost on board
            raise ConfigError(f"weights.time * dt overflows: {self.weights.time} * {self.dt}")

    # ------------------------------------------------------------ resolution

    def make_network(self) -> Network:
        """The scenario's network; background load below full unused
        capacity needs a carpool lane to run on."""
        network = load_network(self.network)
        if self.unused_capacity < 1.0 and not network.carpool_links():
            raise ConfigError(f"unused_capacity {self.unused_capacity} < 1 needs a "
                              f"carpool-lane link, and {self.network} has none")
        return network

    def demand_spec(self, network: Network) -> DemandConfig:
        """The scenario's demand with its ``od_rates`` resolved: ``self.demand``
        itself when the file gives rates, else a copy of it whose rates
        ``calibrate_od_rates`` fits to ``network``'s observed flows."""
        if self.demand.od_rates is not None:
            return self.demand
        return dataclasses.replace(self.demand, od_rates=calibrate_od_rates(
            network, self.demand.calibration_fixed_daily))

    def with_shares(self, rider: float, rideshare: float, regular: float) -> "ScenarioConfig":
        new_demand = dataclasses.replace(
            self.demand,
            shares=Shares(rider=rider, rideshare_driver=rideshare,
                          regular_driver=regular),
        )
        return dataclasses.replace(self, demand=new_demand)

    # ----------------------------------------------------------- fingerprint

    def fingerprint(self) -> str:
        """SHA-256 of every field but ``output_dir``, with the network file's
        SHA-256 in place of its path, O-D keys written ``"o-d"`` and the
        built-in pins written out when the file sets none."""
        resolved = dataclasses.asdict(self)
        del resolved["output_dir"]
        resolved["network_sha256"] = hashlib.sha256(
            Path(resolved.pop("network")).read_bytes()
        ).hexdigest()
        demand = resolved["demand"]
        rates, pins = demand["od_rates"], demand["calibration_fixed_daily"]
        demand["od_rates"] = "calibrated" if rates is None else _od_keys(rates)
        demand["calibration_fixed_daily"] = _od_keys(_DEFAULT_PINS if pins is None
                                                     else pins)
        payload = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


def bundled_data_path(name: str) -> Path:
    return Path(str(resources.files("ridesim") / "data" / name))


def _resolve_network_path(network: Path, base_dir: Path) -> Path:
    """``network`` relative to the scenario file's directory, else the
    bundled network of that name (``.yaml`` optional)."""
    candidate = network if network.is_absolute() else (base_dir / network).resolve()
    if candidate.is_file():
        return candidate
    name = str(network)
    bundled = bundled_data_path(name if name.endswith(".yaml") else f"{name}.yaml")
    if bundled.is_file():
        return bundled
    raise ConfigError(f"network file not found: {network}")


def load_config(path: str | Path, overrides: Optional[dict] = None) -> ScenarioConfig:
    """Parse and validate a scenario file; ``overrides`` other than None win
    over file values."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw = read_yaml(path)
    given = {key: value for key, value in (overrides or {}).items() if value is not None}
    config = read_section(ScenarioConfig, {**raw, **given}, "")
    return dataclasses.replace(
        config, network=_resolve_network_path(config.network, path.parent))
