import dataclasses
import math
import re
from pathlib import Path

import pytest
import yaml

from ridesim.config import (ConfigError, DemandConfig, ScenarioConfig, bundled_data_path,
                            load_config)
from ridesim.demand import Shares
from ridesim.network import Link, Network, load_network
from ridesim.routing import CostWeights
from ridesim.simulation import SimState


@pytest.fixture()
def minimal(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump({
        "network": str(bundled_data_path("la_testbed.yaml")),
        "horizon": 4.0,
        "seed": 3,
    }))
    return path


class TestLoadConfig:
    def test_defaults_fill_in(self, minimal):
        cfg = load_config(minimal)
        assert cfg.dt == 0.05
        assert cfg.bpr.alpha == 0.15
        assert cfg.weights.time == 1.0
        assert cfg.unused_capacity == 1.0
        assert cfg.demand.window_flexibility == 0.25

    def test_unknown_top_key_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("horizon: 2.0\nturbo: true\n")
        with pytest.raises(ConfigError, match="turbo"):
            load_config(path)

    def test_unknown_demand_key_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({"demand": {"riders": 5}}))
        with pytest.raises(ConfigError, match="riders"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_missing_network_file(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("network: nonexistent_net.yaml\n")
        with pytest.raises(ConfigError, match="network file"):
            load_config(path)

    def test_bundled_network_by_name(self, tmp_path):
        path = tmp_path / "ok.yaml"
        path.write_text("network: la_testbed\n")
        cfg = load_config(path)
        assert cfg.make_network().link(2).has_carpool_lane

    def test_overrides_win(self, minimal):
        cfg = load_config(minimal, overrides={"seed": 99})
        assert cfg.seed == 99

    def test_whole_floats_are_integers(self, tmp_path):
        path = tmp_path / "whole.yaml"
        path.write_text("seed: 3.0\nreplications: 2.0\ndemand:\n  seats: 2.0\n")
        cfg = load_config(path)
        values = (cfg.seed, cfg.replications, cfg.demand.seats)
        assert values == (3, 2, 2)
        assert all(type(v) is int for v in values)

    def test_bad_level_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("levels: [2.0]\n")
        with pytest.raises(ConfigError, match="level"):
            load_config(path)

    def test_bad_level_item_named(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("levels: [0.5, true]\n")
        with pytest.raises(ConfigError, match=r"^levels\[1\] must be a number"):
            load_config(path)

    @pytest.mark.parametrize("section, value", [
        ("weights", 5), ("bpr", [1, 2]), ("demand.shares", "even"),
        ("demand.calibration_fixed_daily", 5),
    ])
    def test_section_not_a_mapping_rejected(self, tmp_path, section, value):
        raw = {section: value}
        if section.startswith("demand."):
            raw = {"demand": {section.split(".")[1]: value}}
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match=f"^{section} must be a mapping$"):
            load_config(path)


@pytest.mark.parametrize("demand, named", [
    ({"scale": -1}, "demand.scale"),
    ({"window_flexibility": float("nan")}, "demand.window_flexibility"),
    ({"seats": -1}, "demand.seats"),
    ({"od_rates": {"0-2": -1}}, "demand.od_rates.0-2"),
    ({"od_rates": {"0-0": 1.0}}, "demand.od_rates.0-0"),
    ({"calibration_fixed_daily": {"0-2": -5}}, "demand.calibration_fixed_daily.0-2"),
    ({"calibration_fixed_daily": {"0-2": 5, " 0-2": 7}},
     "demand.calibration_fixed_daily: O-D keys ' 0-2' and '0-2' name one pair"),
], ids=["negative-scale", "nan-window-flexibility", "negative-seats",
        "negative-od-rate", "degenerate-od-pair", "negative-pin", "duplicate-pin"])
def test_demand_values_rejected_at_load(tmp_path, demand, named):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"demand": demand}))
    with pytest.raises(ConfigError, match=f"^{re.escape(named)}"):
        load_config(path)


@pytest.mark.parametrize("value", ["2020-13-01", "!!bool maybe", "!!int ''", "[1"],
                         ids=["no-date", "no-boolean", "empty-integer", "unclosed-list"])
def test_value_the_yaml_constructor_refuses_named_at_its_line(tmp_path, value):
    """PyYAML's constructor refuses the first three with a bare ValueError,
    KeyError or IndexError, and its parser the last; the error names the
    file once, in front, and the value's line and column."""
    path = tmp_path / "bad.yaml"
    path.write_text(f"seed: 1\nhorizon: {value}\n")
    with pytest.raises(ConfigError, match=r"(?s)^\S*bad\.yaml: .*line 2, column 10") as caught:
        load_config(path)
    assert "<byte string>" not in str(caught.value)
    assert "set_int_max_str_digits" not in str(caught.value)


# The fingerprint is written to every report's meta file; these pin its bytes.
PINNED_FINGERPRINTS = {
    "defaults": "390fc25434ebe27e490f5ecc412a0a497d8ba263602f414913d9b6fef8d3e391",
    "validation": "b83a877da67eca98132a5a55ee2e090ef9967e6f5f181ae99a7f8ef847f3423a",
    "sweep": "a24c50301b69a0505daf237e3bbaaf48f58ec2d411068202713b09bb0f8fe9c2",
    "variant": "5b1c23388ef55ba7950e4c32165d96fabfc002887464510950785ad6217a6f08",
}


@pytest.mark.parametrize("name", sorted(PINNED_FINGERPRINTS))
def test_fingerprint_pinned(name, tmp_path):
    path = bundled_data_path("sweep.yaml" if name == "sweep" else "validation.yaml")
    if name == "defaults":  # every key absent, the built-in pin included
        path = tmp_path / "empty.yaml"
        path.write_text("{}\n")
    elif name == "variant":  # every optional demand form, and the non-default knobs
        raw = yaml.safe_load(path.read_text())
        raw["network"] = str(bundled_data_path("la_testbed.yaml"))
        raw.update(penalty=0.5, levels=[1.0, 0.5])
        raw["demand"].update(od_rates={"0-2": 120.0, "1-3": 60.0},
                             calibration_fixed_daily={})
        path = tmp_path / "variant.yaml"
        path.write_text(yaml.safe_dump(raw))
    assert load_config(path).fingerprint() == PINNED_FINGERPRINTS[name]


class TestFingerprint:
    def test_stable_across_loads(self, minimal):
        assert load_config(minimal).fingerprint() == load_config(minimal).fingerprint()

    def test_sensitive_to_values(self, minimal):
        base = load_config(minimal)
        assert base.fingerprint() != dataclasses.replace(base, dt=0.1).fingerprint()
        assert base.fingerprint() != base.with_shares(0.1, 0.4, 0.5).fingerprint()


class TestDemandResolution:
    def test_calibrated_rates_from_network(self, minimal):
        cfg = load_config(minimal)
        net = cfg.make_network()
        demand = cfg.demand_spec(net)
        assert demand.od_rates[(0, 3)] == pytest.approx(12948 / 24)
        assert demand.od_rates[(0, 2)] == pytest.approx(26660 / 24)
        # every other field is the scenario's own
        assert cfg.demand.od_rates is None
        assert dataclasses.replace(demand, od_rates=None) == cfg.demand

    def test_explicit_rates(self, tmp_path):
        path = tmp_path / "explicit.yaml"
        path.write_text(yaml.safe_dump({
            "network": str(bundled_data_path("la_testbed.yaml")),
            "demand": {"od_rates": {"0-2": 120.0, "1-3": 60.0}},
        }))
        cfg = load_config(path)
        demand = cfg.demand_spec(cfg.make_network())
        assert demand is cfg.demand
        assert demand.od_rates == {(0, 2): 120.0, (1, 3): 60.0}

    def test_replication_holds_the_resolved_rates(self, minimal):
        cfg = load_config(minimal)
        net = cfg.make_network()
        sim = SimState(cfg, net, seed=1)
        assert sim.demand == cfg.demand_spec(net)
        assert sim.demand.od_rates[(0, 2)] == pytest.approx(26660 / 24)


def schema_keys(cls=ScenarioConfig, section="top"):
    """(section, key, default) of every field of the scenario schema that is
    not itself a section."""
    for field in dataclasses.fields(cls):
        if dataclasses.is_dataclass(field.default):
            inner = field.name if section == "top" else f"{section}.{field.name}"
            yield from schema_keys(type(field.default), inner)
        else:
            yield section, field.name, field.default


def test_readme_table_matches_schema():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    scenario_files = readme.split("## Scenario files")[1].split("\n## ")[0]
    rows = {(m[2], m[1]): m[3] for m in re.finditer(
        r"^\| `(\w+)` \| `?([\w.]+)`? \| (.+?) \|", scenario_files, re.M)}
    schema = {(section, key): default for section, key, default in schema_keys()}
    assert rows.keys() == schema.keys()
    for where, default in schema.items():
        if default is not None:  # the table explains a None default in words
            shown = list(default) if isinstance(default, tuple) else default
            assert rows[where] == f"`{shown}`", where


def declared_bounds(cls, section):
    """((section, key), interval or None) of every field of the schema
    dataclass ``cls`` that is not itself a section."""
    for field in dataclasses.fields(cls):
        if dataclasses.is_dataclass(field.default):
            inner = field.name if section == "top" else f"{section}.{field.name}"
            yield from declared_bounds(type(field.default), inner)
        else:
            yield (section, field.metadata.get("key", field.name)), field.metadata.get("bound")


def test_readme_bounds_match_schema():
    """The Bound column of the README's scenario and network key tables is
    the interval each field declares, "—" where it declares none."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = {}
    for heading in ("Scenario files", "Network files"):
        part = readme.split(f"## {heading}\n")[1].split("\n## ")[0]
        rows.update({(m[2], m[1]): m[3] for m in re.finditer(
            r"^\| `(\w+)` \| `?([\w.\[\]]+)`? \| .+? \| (.+?) \|", part, re.M)})
    schema = {**dict(declared_bounds(ScenarioConfig, "top")),
              **dict(declared_bounds(Link, "links[i]"))}
    assert rows == {where: "—" if bound is None else f"`{bound}`"
                    for where, bound in schema.items()}


# Every bounded key of both input files, with its interval in the notation
# the README's tables use; a whole-number key is marked int.
BOUNDED_KEYS = [
    ("horizon", "(0, inf)", float),
    ("seed", "[0, inf)", int),
    ("replications", "[1, inf)", int),
    ("dt", "(0, inf)", float),
    ("penalty", "[0, inf)", float),
    ("flow_window", "(0, inf)", float),
    ("unused_capacity", "[0, 1]", float),
    ("validation_error_threshold", "[0, inf]", float),
    ("levels", "[0, 1]", float),
    ("weights.toll", "[0, inf)", float),
    ("weights.time", "[0, inf)", float),
    ("bpr.alpha", "[0, inf)", float),
    ("bpr.beta", "[0, inf)", float),
    ("demand.window_flexibility", "[0, inf)", float),
    ("demand.scale", "[0, inf)", float),
    ("demand.seats", "[0, inf)", int),
    ("demand.od_rates.0-2", "[0, inf)", float),
    ("demand.calibration_fixed_daily.0-2", "[0, inf)", float),
    ("demand.shares.rider", "[0, 1]", float),
    ("demand.shares.rideshare_driver", "[0, 1]", float),
    ("demand.shares.regular_driver", "[0, 1]", float),
    ("links[0].length", "(0, inf)", float),
    ("links[0].free_flow_time", "(0, inf)", float),
    ("links[0].general_lanes", "[1, inf)", int),
    ("links[0].lane_capacity", "(0, inf)", float),
    ("links[0].toll", "[0, inf)", float),
    ("links[0].observed_daily_flow", "[0, inf)", float),
]


def edge_cases():
    """(key, value, loads) at the ends of each bounded key: a closed end
    loads and the number just outside it does not, an open end (infinity
    too) does not load, and NaN never does."""
    for key, interval, kind in BOUNDED_KEYS:
        low, high = (float(end) for end in interval[1:-1].split(", "))
        for end, closed, outward in ((low, interval[0] == "[", -1),
                                     (high, interval[-1] == "]", 1)):
            if closed:
                yield key, kind(end), True
                if math.isfinite(end):
                    yield key, (int(end) + outward if kind is int
                                else math.nextafter(end, outward * math.inf)), False
            else:
                yield key, end if math.isinf(end) else kind(end), False
        yield key, math.nan, False


def load_with(tmp_path, key, value):
    """Load a scenario, or for a ``links[0]`` key the bundled network, with
    ``key`` set to ``value`` and every other key as bundled."""
    if key.startswith("links[0]."):
        net = yaml.safe_load(bundled_data_path("la_testbed.yaml").read_text())
        net["links"][0][key.split(".")[1]] = value
        path = tmp_path / "net.yaml"
        path.write_text(yaml.safe_dump(net))
        return load_network(path)
    section, _, leaf = key.rpartition(".")
    if key == "levels":
        value = [value]
    elif section == "demand.shares":  # another share makes the sum 1
        other = "rider" if leaf == "regular_driver" else "regular_driver"
        value = {other: 1 - value if 0 <= value <= 1 else 0.5, leaf: value}
        section, leaf = "demand", "shares"
    elif section.startswith("demand."):  # an O-D map, keyed "0-2"
        section, leaf, value = "demand", section.split(".")[1], {leaf: value}
    raw = {leaf: value}
    for name in reversed(section.split(".") if section else []):
        raw = {name: raw}
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(raw))
    return load_config(path)


@pytest.mark.parametrize("key, value, loads", [
    pytest.param(key, value, loads, id=f"{key}={value}") for key, value, loads in edge_cases()])
def test_bound_edges(tmp_path, key, value, loads):
    if loads:
        load_with(tmp_path, key, value)
        return
    with pytest.raises(ConfigError) as error:
        load_with(tmp_path, key, value)
    # a level is named as the list's item, "levels[0]"; "level" covers both
    assert (key if key != "levels" else "level") in str(error.value)


def test_edge_table_covers_every_bound():
    """BOUNDED_KEYS lists every field that declares a bound, with its
    interval."""
    def where(key):
        if key.startswith("links[0]."):
            return "links[i]", key.split(".")[1]
        parts = key.split(".")
        if parts[0] == "demand" and parts[1] in ("od_rates", "calibration_fixed_daily"):
            parts = parts[:2]
        return (".".join(parts[:-1]) or "top"), parts[-1]

    declared = {**dict(declared_bounds(ScenarioConfig, "top")),
                **dict(declared_bounds(Link, "links[i]"))}
    assert {where(key): interval for key, interval, _ in BOUNDED_KEYS} == {
        at: str(bound) for at, bound in declared.items() if bound is not None}


@pytest.mark.parametrize("build, message", [
    (lambda: dataclasses.replace(ScenarioConfig(), levels=(0.5, 1.5)),
     "levels[1] 1.5 outside [0, 1]"),
    (lambda: dataclasses.replace(ScenarioConfig(), validation_error_threshold=-1.0),
     "validation_error_threshold -1.0 outside [0, inf]"),
    (lambda: DemandConfig(od_rates={(0, 2): -1.0}), "demand.od_rates.0-2 -1.0 outside [0, inf)"),
    (lambda: Shares(rider=-0.5, regular_driver=1.5), "demand.shares.rider -0.5 outside [0, 1]"),
    (lambda: CostWeights(time=math.inf), "weights.time inf outside [0, inf)"),
    (lambda: Network((0, 1), (Link(7, 0, 1, -1.0, 0.1, False),)),
     "links[0].length (link 7) -1.0 outside (0, inf)"),
], ids=["level", "threshold", "od-rate", "share", "weight", "link"])
def test_range_error_form(build, message):
    """One form, ``<name> <value> outside <interval>``, for every bounded
    field, also of a section built in code."""
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build()
