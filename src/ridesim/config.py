"""Scenario configuration: the schema of scenario files, and fingerprints.

A scenario file names the network, the demand model and every numeric knob
of the simulator. The dataclasses below are its schema: a YAML key is its
field's name, an absent key takes the field's default, and the field's
declared type picks the reader (see ``_read``). Unknown keys are rejected
everywhere, and every error names the offending key. The fingerprint hashes
the resolved configuration together with the network file contents, so a
report can state exactly what produced it.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

import yaml

from .demand import (DemandSpec, Shares, calibrate_od_rates,
                     default_od_pairs)
from .network import (ConfigError, Network, load_network, number, read_yaml,
                      whole_number)
from .routing import CostWeights


def _od_map(value: object, key: str) -> dict[tuple[int, int], float]:
    """``{"origin-dest": value}`` as ``{(origin, dest): float}``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a mapping")
    parsed = {}
    for od, rate in value.items():
        try:
            origin, dest = map(int, str(od).split("-"))
        except ValueError as exc:
            raise ConfigError(f"{key}: bad O-D key {od!r}; "
                              f"expected 'origin-dest'") from exc
        parsed[origin, dest] = number(rate, f"{key}.{od}")
    return parsed


def _od_rates(value: object, key: str) -> Optional[dict[tuple[int, int], float]]:
    """``calibrated`` as None, else an O-D map."""
    if value == "calibrated":
        return None
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be 'calibrated' or a map")
    return _od_map(value, key)


def _levels(value: object, key: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list")
    return tuple(number(level, key) for level in value)


def _path(value: object, key: str) -> Path:
    if not isinstance(value, (str, Path)):
        raise ConfigError(f"{key} must be a path, got {value!r}")
    return Path(value)


def _optional_number(value: object, key: str) -> Optional[float]:
    return None if value is None else number(value, key)


# the reader of each field type without a ``read`` of its own; a dataclass
# type is a nested section
_READERS = {float: number, int: whole_number, Optional[float]: _optional_number,
            Path: _path}


def _read(cls: type, mapping: object, where: str):
    """The schema dataclass ``cls`` read from one section of a scenario file.

    A key is its field's name, and an absent key takes the field's default.
    A value is read by the field's ``read`` metadata if it has one, else by
    the reader of its type; a dataclass type is a nested section, read by
    this same rule. ``where`` names the section ("" at the top level), and
    every error names ``where.key``.
    """
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a mapping")
    prefix = f"{where}." if where else ""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(f"{prefix}{key}" for key in mapping if key not in fields)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown}")
    types = typing.get_type_hints(cls)
    values = {}
    for name, value in mapping.items():
        key, kind = f"{prefix}{name}", types[name]
        if "read" in fields[name].metadata:
            values[name] = fields[name].metadata["read"](value, key)
        elif dataclasses.is_dataclass(kind):
            values[name] = _read(kind, value, key)
        else:
            values[name] = _READERS[kind](value, key)
    return cls(**values)


# pinned when the file names no pins: the free split of the shared-corridor
# demand, applied where the network has the pair
_DEFAULT_PINS = {(0, 2): 26660.0}


def _od_keys(od_map: dict[tuple[int, int], float]) -> dict[str, float]:
    return {f"{origin}-{dest}": value for (origin, dest), value in od_map.items()}


@dataclass(frozen=True)
class Bpr:
    """Parameters of the BPR volume-delay curve (``network.volume_delay``)."""

    alpha: float = 0.15
    beta: float = 4.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"bpr.{name} must be non-negative and finite")


@dataclass(frozen=True)
class DemandConfig:
    shares: Shares = Shares()
    window_flexibility: float = 0.25  # hours
    scale: float = 0.1
    seats: int = 4
    # hourly; None: calibrated from the network's observed flows
    od_rates: Optional[dict[tuple[int, int], float]] = field(
        default=None, metadata={"read": _od_rates})
    # daily; None: _DEFAULT_PINS
    calibration_fixed_daily: Optional[dict[tuple[int, int], float]] = field(
        default=None, metadata={"read": _od_map})

    def __post_init__(self) -> None:
        if not 0 <= self.window_flexibility < math.inf:
            raise ConfigError("demand.window_flexibility must be finite and >= 0")
        if not 0 <= self.scale < math.inf:
            raise ConfigError("demand.scale must be finite and >= 0")
        if self.seats < 0:
            raise ConfigError("demand.seats must be >= 0")
        for field_name in ("od_rates", "calibration_fixed_daily"):
            for (origin, dest), value in (getattr(self, field_name) or {}).items():
                name = f"demand.{field_name}.{origin}-{dest}"
                if origin == dest:
                    raise ConfigError(f"{name}: origin equals destination")
                if not 0 <= value < math.inf:
                    raise ConfigError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class ScenarioConfig:
    network: Path = Path("la_testbed.yaml")  # load_config resolves it
    horizon: float = 24.0
    seed: int = 0
    replications: int = 20
    weights: CostWeights = CostWeights()
    bpr: Bpr = Bpr()
    dt: float = 0.05
    penalty: Optional[float] = None
    flow_window: float = 0.25
    unused_capacity: float = 1.0
    validation_error_threshold: float = 0.01
    output_dir: Path = Path("out")
    demand: DemandConfig = DemandConfig()
    levels: tuple[float, ...] = field(default=(1.0, 0.75, 0.5, 0.25),
                                      metadata={"read": _levels})

    def __post_init__(self) -> None:
        if not 0 < self.horizon < math.inf:
            raise ConfigError("horizon must be positive and finite")
        if not 0 < self.dt < math.inf:
            raise ConfigError("dt must be positive and finite")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if not 0.0 <= self.unused_capacity <= 1.0:
            raise ConfigError("unused_capacity must lie in [0, 1]")
        if not 0 < self.flow_window < math.inf:
            raise ConfigError("flow_window must be positive and finite")
        if not self.validation_error_threshold >= 0:
            raise ConfigError("validation_error_threshold must be >= 0")
        if self.penalty is not None and not 0 <= self.penalty < math.inf:
            raise ConfigError("penalty must be non-negative and finite")
        if not self.levels:
            raise ConfigError("levels must name at least one level")
        for level in self.levels:
            if not 0.0 <= level <= 1.0:
                raise ConfigError(f"sweep level {level} outside [0, 1]")

    # ------------------------------------------------------------ resolution

    def make_network(self) -> Network:
        """The scenario's network; background load below full unused
        capacity needs a carpool lane to run on."""
        network = load_network(self.network)
        if self.unused_capacity < 1.0 and not network.carpool_links():
            raise ConfigError(f"unused_capacity {self.unused_capacity} < 1 needs a "
                              f"carpool-lane link, and {self.network} has none")
        return network

    def demand_spec(self, network: Network) -> DemandSpec:
        if self.demand.od_rates is not None:
            rates = dict(self.demand.od_rates)
        else:
            targets = {l.id: l.observed_daily_flow for l in network.links}
            pairs = default_od_pairs(network)
            fixed = self.demand.calibration_fixed_daily
            if fixed is None:  # the built-in pin, where its pair exists
                fixed = {od: daily for od, daily in _DEFAULT_PINS.items() if od in pairs}
            rates = calibrate_od_rates(network, targets, od_pairs=pairs,
                                       fixed_daily=fixed)
        return DemandSpec(
            od_rates=rates,
            shares=self.demand.shares,
            window_flexibility=self.demand.window_flexibility,
            horizon=self.horizon,
            scale=self.demand.scale,
            seats=self.demand.seats,
        )

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
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = read_yaml(path)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    given = {key: value for key, value in (overrides or {}).items() if value is not None}
    config = _read(ScenarioConfig, {**raw, **given}, "")
    return dataclasses.replace(
        config, network=_resolve_network_path(config.network, path.parent))
