"""Scenario configuration: strict YAML schema, resolution and fingerprints.

A scenario file names the network, the demand model and every numeric knob
of the simulator. Unknown keys are rejected everywhere. The fingerprint
hashes the fully resolved configuration together with the network file
contents, so a report can state exactly what produced it.
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

import yaml

from .demand import (DEFAULT_SEATS, DemandSpec, Shares, calibrate_od_rates,
                     default_od_pairs)
from .network import (ConfigError, Network, load_network, number, read_yaml,
                      whole_number)
from .routing import CostWeights


def _require_keys(section: dict, allowed: set[str], context: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{context} must be a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{context}: unknown key(s) {sorted(unknown)}")


def _parse_od_keys(section: dict, context: str) -> dict[tuple[int, int], float]:
    """``{"origin-dest": value}`` as ``{(origin, dest): float}``."""
    parsed = {}
    for key, value in section.items():
        try:
            origin, dest = map(int, str(key).split("-"))
        except ValueError as exc:
            raise ConfigError(f"{context}: bad O-D key {key!r}; "
                              f"expected 'origin-dest'") from exc
        parsed[origin, dest] = number(value, f"{context}.{key}")
    return parsed


# pinned when the file names no pins: the free split of the shared-corridor
# demand, applied where the network has the pair
_DEFAULT_PINS = {(0, 2): 26660.0}


@dataclass(frozen=True)
class DemandConfig:
    shares: Shares
    window_flexibility: float
    scale: float
    seats: int
    explicit_rates: Optional[dict[tuple[int, int], float]]  # hourly; None: calibrated
    calibration_fixed_daily: Optional[dict[tuple[int, int], float]]  # None: _DEFAULT_PINS

    def __post_init__(self) -> None:
        if not 0 <= self.window_flexibility < math.inf:
            raise ConfigError("demand.window_flexibility must be finite and >= 0")
        if not 0 <= self.scale < math.inf:
            raise ConfigError("demand.scale must be finite and >= 0")
        if self.seats < 0:
            raise ConfigError("demand.seats must be >= 0")
        for field, values in (("od_rates", self.explicit_rates),
                              ("calibration_fixed_daily", self.calibration_fixed_daily)):
            for (origin, dest), value in (values or {}).items():
                name = f"demand.{field}.{origin}-{dest}"
                if origin == dest:
                    raise ConfigError(f"{name}: origin equals destination")
                if not 0 <= value < math.inf:
                    raise ConfigError(f"{name} must be finite and >= 0, got {value}")

    @staticmethod
    def from_mapping(section: dict) -> "DemandConfig":
        _require_keys(section, {
            "shares", "window_flexibility", "scale", "seats",
            "od_rates", "calibration_fixed_daily",
        }, "demand")
        shares_raw = section.get("shares", {})
        _require_keys(shares_raw, {"rider", "rideshare_driver", "regular_driver"},
                      "demand.shares")
        shares = Shares(
            rider=number(shares_raw.get("rider", 0.0), "demand.shares.rider"),
            rideshare_driver=number(shares_raw.get("rideshare_driver", 0.0),
                                    "demand.shares.rideshare_driver"),
            regular_driver=number(shares_raw.get("regular_driver", 1.0),
                                  "demand.shares.regular_driver"),
        )
        od_rates = section.get("od_rates", "calibrated")
        if od_rates == "calibrated":
            explicit = None
        elif isinstance(od_rates, dict):
            explicit = _parse_od_keys(od_rates, "demand.od_rates")
        else:
            raise ConfigError("demand.od_rates must be 'calibrated' or a map")
        fixed = None
        if "calibration_fixed_daily" in section:
            fixed_raw = section["calibration_fixed_daily"]
            if not isinstance(fixed_raw, dict):
                raise ConfigError("demand.calibration_fixed_daily must be a mapping")
            fixed = _parse_od_keys(fixed_raw, "demand.calibration_fixed_daily")
        return DemandConfig(
            shares=shares,
            window_flexibility=number(section.get("window_flexibility", 0.25),
                                      "demand.window_flexibility"),
            scale=number(section.get("scale", 0.1), "demand.scale"),
            seats=whole_number(section.get("seats", DEFAULT_SEATS), "demand.seats"),
            explicit_rates=explicit,
            calibration_fixed_daily=fixed,
        )

    def to_mapping(self) -> dict:
        pins = (_DEFAULT_PINS if self.calibration_fixed_daily is None
                else self.calibration_fixed_daily)
        return {
            "shares": {
                "rider": self.shares.rider,
                "rideshare_driver": self.shares.rideshare_driver,
                "regular_driver": self.shares.regular_driver,
            },
            "window_flexibility": self.window_flexibility,
            "scale": self.scale,
            "seats": self.seats,
            "od_rates": ("calibrated" if self.explicit_rates is None else
                         {f"{o}-{d}": r for (o, d), r in sorted(self.explicit_rates.items())}),
            "calibration_fixed_daily": {
                f"{o}-{d}": v for (o, d), v in sorted(pins.items())
            },
        }


_TOP_KEYS = {
    "network", "horizon", "seed", "replications", "weights", "bpr", "dt",
    "penalty", "flow_window", "unused_capacity", "validation_error_threshold",
    "output_dir", "demand", "levels",
}


@dataclass(frozen=True)
class ScenarioConfig:
    network_path: Path
    horizon: float
    seed: int
    replications: int
    weights: CostWeights
    bpr_alpha: float
    bpr_beta: float
    dt: float
    penalty: Optional[float]
    flow_window: float
    unused_capacity: float
    validation_error_threshold: float
    output_dir: Path
    demand_config: DemandConfig
    levels: tuple[float, ...] = (1.0, 0.75, 0.5, 0.25)

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
        for name, value in (("bpr.alpha", self.bpr_alpha), ("bpr.beta", self.bpr_beta)):
            if not 0 <= value < math.inf:
                raise ConfigError(f"{name} must be non-negative and finite")
        if not self.levels:
            raise ConfigError("levels must name at least one level")
        for level in self.levels:
            if not 0.0 <= level <= 1.0:
                raise ConfigError(f"sweep level {level} outside [0, 1]")

    # ------------------------------------------------------------ resolution

    def make_network(self) -> Network:
        """The scenario's network; background load below full unused
        capacity needs a carpool lane to run on."""
        network = load_network(self.network_path)
        if self.unused_capacity < 1.0 and not network.carpool_links():
            raise ConfigError(f"unused_capacity {self.unused_capacity} < 1 needs a "
                              f"carpool-lane link, and {self.network_path} has none")
        return network

    def demand_spec(self, network: Network) -> DemandSpec:
        if self.demand_config.explicit_rates is not None:
            rates = dict(self.demand_config.explicit_rates)
        else:
            targets = {l.id: l.observed_daily_flow for l in network.links}
            pairs = default_od_pairs(network)
            fixed = self.demand_config.calibration_fixed_daily
            if fixed is None:  # the built-in pin, where its pair exists
                fixed = {od: daily for od, daily in _DEFAULT_PINS.items() if od in pairs}
            rates = calibrate_od_rates(network, targets, od_pairs=pairs,
                                       fixed_daily=fixed)
        return DemandSpec(
            od_rates=rates,
            shares=self.demand_config.shares,
            window_flexibility=self.demand_config.window_flexibility,
            horizon=self.horizon,
            scale=self.demand_config.scale,
            seats=self.demand_config.seats,
        )

    def with_shares(self, rider: float, rideshare: float, regular: float) -> "ScenarioConfig":
        new_demand = dataclasses.replace(
            self.demand_config,
            shares=Shares(rider=rider, rideshare_driver=rideshare,
                          regular_driver=regular),
        )
        return dataclasses.replace(self, demand_config=new_demand)

    # ----------------------------------------------------------- fingerprint

    def resolved_mapping(self) -> dict:
        return {
            "network_sha256": hashlib.sha256(
                Path(self.network_path).read_bytes()
            ).hexdigest(),
            "horizon": self.horizon,
            "seed": self.seed,
            "replications": self.replications,
            "weights": {"toll": self.weights.toll, "time": self.weights.time},
            "bpr": {"alpha": self.bpr_alpha, "beta": self.bpr_beta},
            "dt": self.dt,
            "penalty": self.penalty,
            "flow_window": self.flow_window,
            "unused_capacity": self.unused_capacity,
            "validation_error_threshold": self.validation_error_threshold,
            "demand": self.demand_config.to_mapping(),
            "levels": list(self.levels),
        }

    def fingerprint(self) -> str:
        payload = json.dumps(self.resolved_mapping(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


def bundled_data_path(name: str) -> Path:
    return Path(str(resources.files("ridesim") / "data" / name))


def _resolve_network_path(raw: str, base_dir: Path) -> Path:
    candidate = (base_dir / raw).resolve() if not Path(raw).is_absolute() else Path(raw)
    if candidate.exists():
        return candidate
    bundled = bundled_data_path(raw if raw.endswith(".yaml") else f"{raw}.yaml")
    if bundled.exists():
        return bundled
    raise ConfigError(f"network file not found: {raw}")


def load_config(path: str | Path, overrides: Optional[dict] = None) -> ScenarioConfig:
    """Parse and validate a scenario file; ``overrides`` win over file values."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = read_yaml(path)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    _require_keys(raw, _TOP_KEYS, str(path))
    merged = dict(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    _require_keys(merged, _TOP_KEYS, str(path))

    weights_raw = merged.get("weights", {})
    _require_keys(weights_raw, {"toll", "time"}, "weights")
    bpr_raw = merged.get("bpr", {})
    _require_keys(bpr_raw, {"alpha", "beta"}, "bpr")

    penalty = merged.get("penalty")
    levels = merged.get("levels", [1.0, 0.75, 0.5, 0.25])
    if not isinstance(levels, (list, tuple)):
        raise ConfigError("levels must be a list")
    try:
        return ScenarioConfig(
            network_path=_resolve_network_path(
                str(merged.get("network", "la_testbed.yaml")), path.parent
            ),
            horizon=number(merged.get("horizon", 24.0), "horizon"),
            seed=whole_number(merged.get("seed", 0), "seed"),
            replications=whole_number(merged.get("replications", 20), "replications"),
            weights=CostWeights(
                toll=number(weights_raw.get("toll", 1.0), "weights.toll"),
                time=number(weights_raw.get("time", 1.0), "weights.time"),
            ),
            bpr_alpha=number(bpr_raw.get("alpha", 0.15), "bpr.alpha"),
            bpr_beta=number(bpr_raw.get("beta", 4.0), "bpr.beta"),
            dt=number(merged.get("dt", 0.05), "dt"),
            penalty=None if penalty is None else number(penalty, "penalty"),
            flow_window=number(merged.get("flow_window", 0.25), "flow_window"),
            unused_capacity=number(merged.get("unused_capacity", 1.0),
                                   "unused_capacity"),
            validation_error_threshold=number(
                merged.get("validation_error_threshold", 0.01),
                "validation_error_threshold",
            ),
            output_dir=Path(merged.get("output_dir", "out")),
            demand_config=DemandConfig.from_mapping(merged.get("demand", {})),
            levels=tuple(number(x, "levels") for x in levels),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc
