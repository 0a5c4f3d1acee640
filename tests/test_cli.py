import json
import os
import stat
import weakref
from pathlib import Path

import pytest
import yaml

import ridesim.cli as cli
import ridesim.experiments as experiments
from ridesim.cli import EXIT_OK, EXIT_THRESHOLD, EXIT_USAGE, main
from ridesim.config import bundled_data_path


@pytest.fixture()
def quick_config(tmp_path):
    """Shrunk copy of the bundled validation scenario, writable output dir."""
    raw = yaml.safe_load(bundled_data_path("validation.yaml").read_text())
    raw["horizon"] = 1.5
    raw["replications"] = 2
    raw["network"] = str(bundled_data_path("la_testbed.yaml"))
    raw["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "quick.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


@pytest.fixture()
def quick_sweep_config(tmp_path):
    raw = yaml.safe_load(bundled_data_path("sweep.yaml").read_text())
    raw["horizon"] = 1.0
    raw["replications"] = 2
    raw["network"] = str(bundled_data_path("sweep_testbed.yaml"))
    raw["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "quick_sweep.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


class TestValidateCommand:
    def test_success_writes_table(self, quick_config, tmp_path):
        code = main(["validate", "--config", str(quick_config)])
        assert code == EXIT_OK
        csv = (tmp_path / "out" / "validation.csv").read_text().splitlines()
        assert csv[0] == "link_id,real_proportion,simulated_proportion,absolute_error"
        assert len(csv) == 5

    def test_missing_config_usage_error(self, tmp_path):
        code = main(["validate", "--config", str(tmp_path / "absent.yaml")])
        assert code == EXIT_USAGE

    def test_impossible_threshold_fails(self, quick_config, tmp_path):
        raw = yaml.safe_load(Path(quick_config).read_text())
        raw["validation_error_threshold"] = 0.0
        strict = tmp_path / "strict.yaml"
        strict.write_text(yaml.safe_dump(raw))
        assert main(["validate", "--config", str(strict)]) == EXIT_THRESHOLD


class TestSweepCommand:
    def test_writes_ordered_rows(self, quick_sweep_config, tmp_path):
        code = main(["sweep", "--config", str(quick_sweep_config),
                     "--levels", "1.0,0.25"])
        assert code == EXIT_OK
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("unused_capacity,")
        assert lines[1].startswith("1.000000,")
        assert lines[2].startswith("0.250000,")

    def test_bad_level_usage_error(self, quick_sweep_config, capsys):
        code = main(["sweep", "--config", str(quick_sweep_config),
                     "--levels", "1.5"])
        assert code == EXIT_USAGE
        assert "1.5 outside [0, 1]" in capsys.readouterr().err

    def test_unparsable_level_usage_error(self, quick_sweep_config, capsys):
        for levels in ("a,b", ""):
            code = main(["sweep", "--config", str(quick_sweep_config),
                         "--levels", levels])
            assert code == EXIT_USAGE, levels
            assert "error: --levels:" in capsys.readouterr().err

    def test_empty_levels_usage_error(self, quick_sweep_config, tmp_path, capsys):
        raw = yaml.safe_load(Path(quick_sweep_config).read_text())
        raw["levels"] = []
        empty = tmp_path / "empty_levels.yaml"
        empty.write_text(yaml.safe_dump(raw))
        assert main(["sweep", "--config", str(empty)]) == EXIT_USAGE
        assert "levels" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_fingerprint_follows_levels_flag(self, quick_sweep_config, tmp_path):
        fingerprints = []
        for levels in ("1.0", "0.5"):
            out = tmp_path / levels
            assert main(["sweep", "--config", str(quick_sweep_config),
                         "--levels", levels, "--out", str(out)]) == EXIT_OK
            meta = json.loads((out / "sweep_meta.json").read_text())
            fingerprints.append(meta["config_fingerprint"])
        assert fingerprints[0] != fingerprints[1]

    def test_shares_come_from_the_scenario(self, quick_sweep_config, tmp_path):
        """Editing ``demand.shares`` changes the sweep's riders, and
        ``sweep_meta.json`` records the shares the sweep ran with."""
        raw = yaml.safe_load(Path(quick_sweep_config).read_text())
        bundled = raw["demand"]["shares"]
        edited = {"rider": 0.2, "rideshare_driver": 0.3, "regular_driver": 0.5}
        riders = []
        for name, shares in (("bundled", bundled), ("edited", edited)):
            raw["demand"]["shares"] = shares
            path = tmp_path / f"{name}.yaml"
            path.write_text(yaml.safe_dump(raw))
            out = tmp_path / name
            assert main(["sweep", "--config", str(path), "--levels", "1.0",
                         "--out", str(out)]) == EXIT_OK
            meta = json.loads((out / "sweep_meta.json").read_text())
            assert meta["shares"] == [shares["rider"], shares["rideshare_driver"],
                                      shares["regular_driver"]]
            riders.append((out / "sweep.csv").read_text().splitlines()[1].split(",")[4])
        assert bundled == {"rider": 0.1, "rideshare_driver": 0.4, "regular_driver": 0.5}
        assert riders[0] != riders[1]

    def test_byte_identical_reruns(self, quick_sweep_config, tmp_path):
        argv = ["sweep", "--config", str(quick_sweep_config), "--levels", "1.0"]
        assert main(argv) == EXIT_OK
        first = (tmp_path / "out" / "sweep.csv").read_bytes()
        assert main(argv) == EXIT_OK
        assert (tmp_path / "out" / "sweep.csv").read_bytes() == first


class TestRunCommand:
    def test_writes_all_tables(self, quick_config, tmp_path):
        assert main(["run", "--config", str(quick_config)]) == EXIT_OK
        out = tmp_path / "out"
        for name in ("link_flows.csv", "agents.csv", "summary.csv",
                     "run_meta.json"):
            assert (out / name).exists()
        header = (out / "agents.csv").read_text().splitlines()[0]
        assert header == "id,role,matched,departure,arrival"

    def test_rider_free_run_replaces_old_trace(self, quick_config, tmp_path):
        """A run with no rider request still writes ``match_trace.csv``,
        header only, so an earlier run's rows do not stay beside it."""
        out = tmp_path / "out"
        out.mkdir()
        (out / "match_trace.csv").write_text("rider_id\n1\n2\n3\n4\n5\n")
        assert main(["run", "--config", str(quick_config)]) == EXIT_OK
        assert json.loads((out / "run_meta.json").read_text())["riders_total"] == 0
        assert (out / "match_trace.csv").read_text().splitlines() == [
            "rider_id,request_time,offers,vertices,travel_arcs,pruned_vertices,"
            "feasible,dp_cost,matched"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_outputs_get_the_umask_mode(self, quick_config, tmp_path, umask, mode):
        """Every output file gets the mode ``open`` would give it, 0666
        less the umask, and no temporary file is left beside them."""
        previous = os.umask(umask)
        try:
            assert main(["run", "--config", str(quick_config)]) == EXIT_OK
        finally:
            os.umask(previous)
        written = sorted((tmp_path / "out").iterdir())
        assert [path.name for path in written] == [
            "agents.csv", "link_flows.csv", "match_trace.csv", "run_meta.json",
            "summary.csv"]
        assert all(stat.S_IMODE(path.stat().st_mode) == mode for path in written)

    def test_seed_changes_agent_table(self, quick_config, tmp_path):
        assert main(["run", "--config", str(quick_config), "--seed", "1"]) == EXIT_OK
        first = (tmp_path / "out" / "agents.csv").read_text()
        assert main(["run", "--config", str(quick_config), "--seed", "2"]) == EXIT_OK
        assert (tmp_path / "out" / "agents.csv").read_text() != first

    def test_byte_identical_given_seed(self, quick_config, tmp_path):
        argv = ["run", "--config", str(quick_config), "--seed", "5"]
        assert main(argv) == EXIT_OK
        snapshots = {
            name: (tmp_path / "out" / name).read_bytes()
            for name in ("link_flows.csv", "agents.csv", "summary.csv")
        }
        assert main(argv) == EXIT_OK
        for name, blob in snapshots.items():
            assert (tmp_path / "out" / name).read_bytes() == blob

    def test_zero_demand_empty_agents_table(self, quick_config, tmp_path):
        raw = yaml.safe_load(Path(quick_config).read_text())
        raw["demand"]["od_rates"] = {"0-2": 0.0}
        zero = tmp_path / "zero.yaml"
        zero.write_text(yaml.safe_dump(raw))
        assert main(["run", "--config", str(zero)]) == EXIT_OK
        lines = (tmp_path / "out" / "agents.csv").read_text().splitlines()
        assert lines == ["id,role,matched,departure,arrival"]

    def test_replication_freed_before_writing(self, quick_config, monkeypatch):
        """``run`` keeps only the report: its replication is freed before
        ``write_sim_report`` is called, not held through the writes."""
        freed, written = [], []
        build, write = experiments.init_simulation, cli.write_sim_report

        def watched(*args):
            sim = build(*args)
            weakref.finalize(sim, freed.append, True)
            return sim

        def writing(*args):
            written.append(list(freed))
            write(*args)

        monkeypatch.setattr(experiments, "init_simulation", watched)
        monkeypatch.setattr(cli, "write_sim_report", writing)
        assert main(["run", "--config", str(quick_config)]) == EXIT_OK
        assert written == [[True]]

    def test_unknown_config_key_usage_error(self, quick_config, tmp_path):
        raw = yaml.safe_load(Path(quick_config).read_text())
        raw["wheels"] = 4
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(raw))
        assert main(["run", "--config", str(bad)]) == EXIT_USAGE


RIDESHARE_SHARES = {"rider": 0.2, "rideshare_driver": 0.3, "regular_driver": 0.5}


class Digits(str):
    """A decimal integer that ``dump`` writes unquoted from its digits, so
    it may have more than Python converts to an int
    (``sys.get_int_max_str_digits``)."""


class _Dumper(yaml.SafeDumper):
    pass


_Dumper.add_representer(
    Digits, lambda dumper, digits: dumper.represent_scalar("tag:yaml.org,2002:int", digits))


def dump(data) -> str:
    """``yaml.safe_dump``, also of a ``Digits``."""
    return yaml.dump(data, Dumper=_Dumper)


HUGE_INTEGER = Digits("1" + "0" * 5000)

# (config edits, network-file edit, extra argv, text stderr must contain)
BAD_INPUTS = {
    "negative-length": ({}, lambda net: net["links"][0].update(length=-1.0),
                        [], "length"),
    "unknown-link-field": ({}, lambda net: net["links"][0].update(colour="blue"),
                           [], "colour"),
    "undeclared-endpoint": ({}, lambda net: net["links"][0].update(to=9),
                            [], "links[0].to (link 0): node 9 not declared"),
    "no-links": ({}, lambda net: net.update(links=[]), [],
                 "links must name at least one link"),
    "missing-link-field": ({}, lambda net: net["links"][0].pop("free_flow_time"),
                           [], "free_flow_time"),
    "duplicate-link-id": ({}, lambda net: net["links"][1].update(id=0),
                          [], "duplicate id 0 at links[0] and links[1]"),
    "duplicate-node-id": ({}, lambda net: net["nodes"].__setitem__(2, 0),
                          [], "duplicate id 0 at nodes[0] and nodes[2]"),
    "missing-links": ({}, lambda net: net.pop("links"), [], "missing key(s) ['links']"),
    "link-not-a-mapping": ({}, lambda net: net["links"].__setitem__(1, 5),
                           [], "links[1] must be a mapping"),
    "nodes-not-a-list": ({}, lambda net: net.update(nodes=4), [], "nodes must be a list"),
    "unknown-network-key": ({}, lambda net: net.update(extra=1), [],
                            "unknown key(s) ['extra']"),
    "fractional-general-lanes": ({}, lambda net: net["links"][0].update(general_lanes=2.5),
                                 [], "links[0].general_lanes"),
    "bool-link-length": ({}, lambda net: net["links"][0].update(length=True),
                         [], "links[0].length"),
    "fractional-link-id": ({}, lambda net: net["links"][0].update(id=0.5),
                           [], "links[0].id"),
    "string-carpool-flag": ({}, lambda net: net["links"][0].update(has_carpool_lane="no"),
                            [], "links[0].has_carpool_lane"),
    "nan-free-flow-time": ({}, lambda net: net["links"][0].update(
        free_flow_time=float("nan")), [], "links[0].free_flow_time"),
    "nan-toll": ({}, lambda net: net["links"][0].update(toll=float("nan")),
                 [], "links[0].toll"),
    "nan-observed-flow": ({}, lambda net: net["links"][0].update(
        observed_daily_flow=float("nan")), [], "links[0].observed_daily_flow"),
    "infinite-lane-capacity": ({}, lambda net: net["links"][0].update(
        lane_capacity=float("inf")), [], "links[0].lane_capacity"),
    "string-node": ({}, lambda net: net["nodes"].__setitem__(3, "x"), [], "nodes[3]"),
    "bool-node": ({}, lambda net: net["nodes"].__setitem__(1, True), [], "nodes[1]"),
    "negative-scale": ({"demand": {"scale": -1}}, None, [], "scale"),
    "negative-window-flexibility": ({"demand": {"window_flexibility": -1}}, None,
                                    [], "window_flexibility"),
    "nan-window-flexibility": ({"demand": {"window_flexibility": float("nan")}},
                               None, [], "window_flexibility"),
    "nan-scale": ({"demand": {"scale": float("nan")}}, None, [], "scale"),
    "infinite-scale": ({"demand": {"scale": float("inf")}}, None, [], "scale"),
    "negative-seats": ({"demand": {"seats": -2, "shares": RIDESHARE_SHARES}},
                       None, [], "seats"),
    "negative-od-rate": ({"demand": {"od_rates": {"0-2": -1.0}}}, None,
                         [], "demand.od_rates.0-2"),
    "nan-od-rate": ({"demand": {"od_rates": {"0-2": float("nan")}}}, None,
                    [], "demand.od_rates.0-2"),
    "degenerate-od-pair": ({"demand": {"od_rates": {"0-0": 1.0}}}, None,
                           [], "demand.od_rates.0-0"),
    "integer-od-key": ({"demand": {"od_rates": {5: 1.0}}}, None, [],
                       "demand.od_rates: bad O-D key 5"),
    "duplicate-od-pair": ({"demand": {"od_rates": {"0-2": 5.0, "00-2": 7.0}}}, None, [],
                          "demand.od_rates: O-D keys '0-2' and '00-2' name one pair"),
    "disconnected-pin": ({"demand": {"calibration_fixed_daily": {"2-0": 5.0}}}, None,
                         [], "demand.calibration_fixed_daily.2-0"),
    "unknown-node-pin": ({"demand": {"calibration_fixed_daily": {"0-9": 5.0}}}, None,
                         [], "demand.calibration_fixed_daily.0-9"),
    "nan-pin": ({"demand": {"calibration_fixed_daily": {"0-2": float("nan")}}}, None,
                [], "demand.calibration_fixed_daily.0-2"),
    "disconnected-od-pair": ({"demand": {"od_rates": {"2-0": 1.0}}}, None,
                             [], "2->0"),
    "unknown-od-node": ({"demand": {"od_rates": {"0-9": 1.0}}}, None,
                        [], "0->9"),
    "fractional-seats": ({"demand": {"seats": 2.5, "shares": RIDESHARE_SHARES}},
                         None, [], "demand.seats"),
    "bool-seats": ({"demand": {"seats": True, "shares": RIDESHARE_SHARES}},
                   None, [], "demand.seats"),
    "fractional-replications": ({"replications": 2.7}, None, [], "replications"),
    "bool-replications": ({"replications": True}, None, [], "replications"),
    "fractional-seed": ({"seed": 1.5}, None, [], "seed"),
    "bool-seed": ({"seed": True}, None, [], "seed"),
    "negative-seed": ({"seed": -1}, None, [], "seed"),
    "negative-seed-flag": ({}, None, ["--seed", "-1"], "seed"),
    "zero-horizon": ({"horizon": 0}, None, [], "horizon"),
    "infinite-horizon": ({"horizon": float("inf")}, None, [], "horizon"),
    "nan-horizon": ({"horizon": float("nan")}, None, [], "horizon"),
    "zero-dt": ({"dt": 0}, None, [], "dt"),
    "nan-dt": ({"dt": float("nan")}, None, [], "dt"),
    "unused-capacity-above-one": ({"unused_capacity": 1.5}, None, [], "unused_capacity"),
    "negative-unused-capacity": ({"unused_capacity": -0.1}, None, [],
                                 "unused_capacity"),
    "nan-flow-window": ({"flow_window": float("nan")}, None, [], "flow_window"),
    "nan-penalty": ({"penalty": float("nan")}, None, [], "penalty"),
    "infinite-penalty": ({"penalty": float("inf")}, None, [], "penalty"),
    "negative-penalty": ({"penalty": -1.0}, None, [], "penalty"),
    "nan-bpr-alpha": ({"bpr": {"alpha": float("nan")}}, None, [], "bpr.alpha"),
    "negative-bpr-alpha": ({"bpr": {"alpha": -0.15}}, None, [], "bpr.alpha"),
    "nan-bpr-beta": ({"bpr": {"beta": float("nan")}}, None, [], "bpr.beta"),
    "negative-bpr-beta": ({"bpr": {"beta": -4.0}}, None, [], "bpr.beta"),
    "nan-toll-weight": ({"weights": {"toll": float("nan")}}, None, [], "weights.toll"),
    "nan-time-weight": ({"weights": {"time": float("nan")}}, None, [], "weights.time"),
    "infinite-time-weight": ({"weights": {"time": float("inf")}}, None, [],
                             "weights.time"),
    "zero-weights": ({"weights": {"toll": 0, "time": 0}}, None, [],
                     "weights.toll and weights.time must not both be 0"),
    "nan-validation-threshold": ({"validation_error_threshold": float("nan")}, None,
                                 [], "validation_error_threshold"),
    "bool-horizon": ({"horizon": True}, None, [], "horizon"),
    "bool-dt": ({"dt": True}, None, [], "dt"),
    "bool-time-weight": ({"weights": {"time": True}}, None, [], "weights.time"),
    "bool-level": ({"levels": [True, 0.5]}, None, [], "levels"),
    "bool-scale": ({"demand": {"scale": True}}, None, [], "demand.scale"),
    "bool-share": ({"demand": {"shares": {"rider": True, "regular_driver": 0.0}}},
                   None, [], "demand.shares.rider"),
    "bool-od-rate": ({"demand": {"od_rates": {"0-2": True}}}, None, [],
                     "demand.od_rates.0-2"),
    "quoted-seed": ({"seed": "5"}, None, [], "seed"),
    "quoted-horizon": ({"horizon": "1.5"}, None, [], "horizon"),
    "quoted-od-rate": ({"demand": {"od_rates": {"0-2": "10.0"}}}, None, [],
                       "demand.od_rates.0-2"),
    "quoted-node": ({}, lambda net: net["nodes"].__setitem__(0, "0"), [], "nodes[0]"),
    "quoted-link-id": ({}, lambda net: net["links"][0].update(id="0"), [], "links[0].id"),
    "quoted-link-length": ({}, lambda net: net["links"][0].update(length="10.0"),
                           [], "links[0].length"),
    "quoted-free-flow-time": ({}, lambda net: net["links"][0].update(free_flow_time="0.55"),
                              [], "links[0].free_flow_time"),
    "quoted-toll": ({}, lambda net: net["links"][0].update(toll="1e-1"), [], "links[0].toll"),
    "integer-output-dir": ({"output_dir": 5}, None, [], "output_dir"),
    "calibration-without-observed-flows": (
        {}, lambda net: [link.pop("observed_daily_flow") for link in net["links"]],
        [], "demand.od_rates: calibration needs observed flows"),
    "zero-replications": ({"replications": 0}, None, [], "replications"),
    "zero-flow-window": ({"flow_window": 0}, None, [], "flow_window"),
    "empty-levels": ({"levels": []}, None, [], "levels"),
    "zero-link-length": ({}, lambda net: net["links"][0].update(length=0.0),
                         [], "links[0].length"),
    "zero-general-lanes": ({}, lambda net: net["links"][0].update(general_lanes=0),
                           [], "links[0].general_lanes"),
    "zero-lane-capacity": ({}, lambda net: net["links"][0].update(lane_capacity=0.0),
                           [], "links[0].lane_capacity"),
    "negative-toll": ({}, lambda net: net["links"][0].update(toll=-1.0),
                      [], "links[0].toll"),
    # integers too large for a float
    "overflowing-horizon": ({"horizon": 10**400}, None, [], "horizon"),
    "overflowing-level": ({"levels": [10**400]}, None, [], "levels[0]"),
    "overflowing-od-rate": ({"demand": {"od_rates": {"0-2": 10**400}}}, None, [],
                            "demand.od_rates.0-2"),
    "overflowing-link-length": ({}, lambda net: net["links"][0].update(length=10**400),
                                [], "links[0].length"),
    # integers the YAML constructor refuses to convert: the line and column
    # are named, after the file (the dump sorts the keys, so horizon is on
    # line 16 and the first link's length on line 6)
    "huge-integer-horizon": ({"horizon": HUGE_INTEGER}, None, [], "line 16, column 10"),
    "huge-integer-link-length": ({}, lambda net: net["links"][0].update(length=HUGE_INTEGER),
                                 [], "line 6, column 11"),
    # values in bounds whose product overflows: a step's cost on board, and
    # a Poisson mean numpy refuses to draw from (it refuses before drawing)
    "overflowing-step-cost": ({"weights": {"time": 1.0e308}, "dt": 10.0}, None, [],
                              "weights.time * dt overflows"),
    "overflowing-arrival-mean-horizon": ({"horizon": 1.0e300}, None, [],
                                         "* demand.scale * horizon = "),
    "overflowing-arrival-mean-scale": ({"demand": {"scale": 1.0e300}}, None, [],
                                       "* demand.scale * horizon = "),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_usage_error_names_field(case, quick_config, tmp_path, capsys):
    edits, network_edit, argv, named = BAD_INPUTS[case]
    raw = yaml.safe_load(Path(quick_config).read_text())
    for key, value in edits.items():
        if isinstance(value, dict):
            raw[key].update(value)
        else:
            raw[key] = value
    if network_edit is not None:
        net = yaml.safe_load(bundled_data_path("la_testbed.yaml").read_text())
        network_edit(net)
        raw["network"] = str(tmp_path / "net.yaml")
        Path(raw["network"]).write_text(dump(net))
    bad = tmp_path / "bad.yaml"
    bad.write_text(dump(raw))
    assert main(["run", "--config", str(bad)] + argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert named in err
    if network_edit is not None and not named.startswith("demand."):
        assert raw["network"] in err  # an error in the network file names it


@pytest.mark.parametrize("command", ["run", "validate"])
def test_background_needs_carpool_lane(command, quick_config, tmp_path, capsys):
    net = yaml.safe_load(bundled_data_path("la_testbed.yaml").read_text())
    for link in net["links"]:
        link["has_carpool_lane"] = False
    raw = yaml.safe_load(Path(quick_config).read_text())
    raw["network"] = str(tmp_path / "no_carpool.yaml")
    raw["unused_capacity"] = 0.5
    Path(raw["network"]).write_text(yaml.safe_dump(net))
    config = tmp_path / "background.yaml"
    config.write_text(yaml.safe_dump(raw))
    assert main([command, "--config", str(config)]) == EXIT_USAGE
    assert "unused_capacity" in capsys.readouterr().err


def test_validate_rejects_network_without_links(quick_config, tmp_path, capsys):
    raw = yaml.safe_load(Path(quick_config).read_text())
    raw["network"] = str(tmp_path / "no_links.yaml")
    Path(raw["network"]).write_text("nodes: [0, 1]\nlinks: []\n")
    config = tmp_path / "scenario.yaml"
    config.write_text(yaml.safe_dump(raw))
    assert main(["validate", "--config", str(config)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "links must name at least one link" in err and raw["network"] in err


def test_validate_rejects_one_link_network(quick_config, tmp_path, capsys):
    # one link leaves the goodness-of-fit test no degree of freedom
    raw = yaml.safe_load(Path(quick_config).read_text())
    raw["network"] = str(tmp_path / "one_link.yaml")
    Path(raw["network"]).write_text(yaml.safe_dump({"nodes": [0, 1], "links": [
        {"id": 0, "from": 0, "to": 1, "length": 10.0, "free_flow_time": 0.2,
         "has_carpool_lane": False, "observed_daily_flow": 1000}]}))
    del raw["demand"]["calibration_fixed_daily"]
    config = tmp_path / "scenario.yaml"
    config.write_text(yaml.safe_dump(raw))
    assert main(["validate", "--config", str(config)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "links must name at least two links" in err and raw["network"] in err
    assert not Path(raw["output_dir"]).exists()


@pytest.mark.parametrize("broken", ["config", "network"])
def test_unparsable_yaml_usage_error(broken, quick_config, tmp_path, capsys):
    raw = yaml.safe_load(Path(quick_config).read_text())
    net = tmp_path / "net.yaml"
    net.write_text("nodes: [0, 1\nlinks: []\n" if broken == "network"
                   else bundled_data_path("la_testbed.yaml").read_text())
    raw["network"] = str(net)
    config = tmp_path / "scenario.yaml"
    config.write_text(yaml.safe_dump(raw) + ("horizon: [1.5\n" if broken == "config" else ""))
    assert main(["run", "--config", str(config)]) == EXIT_USAGE
    assert str(net if broken == "network" else config) in capsys.readouterr().err


@pytest.mark.parametrize("command, below", [("run", ""), ("validate", "sub")])
def test_output_dir_at_or_under_a_file_usage_error(command, below, quick_config,
                                                   tmp_path, monkeypatch, capsys):
    """Refused before the first replication, naming ``output_dir`` and the file."""
    def fail(*args):
        raise AssertionError("a replication was built")

    monkeypatch.setattr(experiments, "init_simulation", fail)
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / below if below else blocker
    assert main([command, "--config", str(quick_config), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"output_dir: {out}" in err and str(blocker) in err


def test_config_directory_usage_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path)]) == EXIT_USAGE
    assert f"config file not found: {tmp_path}" in capsys.readouterr().err


@pytest.mark.parametrize("broken", ["config", "network"])
def test_non_utf8_file_usage_error(broken, quick_config, tmp_path, capsys):
    raw = yaml.safe_load(Path(quick_config).read_text())
    net = tmp_path / "net.yaml"
    if broken == "network":
        net.write_bytes(b"\x80abc: 1\n")
    else:
        net.write_text(bundled_data_path("la_testbed.yaml").read_text())
    raw["network"] = str(net)
    config = tmp_path / "scenario.yaml"
    config.write_bytes((b"\x80abc: 1\n" if broken == "config" else b"")
                       + yaml.safe_dump(raw).encode())
    assert main(["run", "--config", str(config)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(net if broken == "network" else config) in err
    assert "unacceptable character #x0080" in err
