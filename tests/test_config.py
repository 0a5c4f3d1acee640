import dataclasses
import re

import pytest
import yaml

from ridesim.config import ConfigError, bundled_data_path, load_config


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
        assert cfg.bpr_alpha == 0.15
        assert cfg.weights.time == 1.0
        assert cfg.unused_capacity == 1.0
        assert cfg.demand_config.window_flexibility == 0.25

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
        values = (cfg.seed, cfg.replications, cfg.demand_config.seats)
        assert values == (3, 2, 2)
        assert all(type(v) is int for v in values)

    def test_bad_level_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("levels: [2.0]\n")
        with pytest.raises(ConfigError, match="level"):
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
], ids=["negative-scale", "nan-window-flexibility", "negative-seats",
        "negative-od-rate", "degenerate-od-pair", "negative-pin"])
def test_demand_values_rejected_at_load(tmp_path, demand, named):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"demand": demand}))
    with pytest.raises(ConfigError, match=f"^{re.escape(named)}"):
        load_config(path)


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
        spec = cfg.demand_spec(net)
        assert spec.od_rates[(0, 3)] == pytest.approx(12948 / 24)
        assert spec.od_rates[(0, 2)] == pytest.approx(26660 / 24)

    def test_explicit_rates(self, tmp_path):
        path = tmp_path / "explicit.yaml"
        path.write_text(yaml.safe_dump({
            "network": str(bundled_data_path("la_testbed.yaml")),
            "demand": {"od_rates": {"0-2": 120.0, "1-3": 60.0}},
        }))
        cfg = load_config(path)
        spec = cfg.demand_spec(cfg.make_network())
        assert spec.od_rates == {(0, 2): 120.0, (1, 3): 60.0}
