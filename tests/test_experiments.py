import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ridesim.config import ConfigError, bundled_data_path, load_config
from ridesim.experiments import (
    chi2_isf,
    chi2_sf,
    chi_squared_gof,
    replication_seeds,
    run_capacity_sweep,
    run_validation,
)
from ridesim.network import Network
from ridesim.simulation import SimState


@pytest.fixture(scope="module")
def quick_validation_config(tmp_path_factory):
    # shrunk validation scenario: enough vehicles to be meaningful, fast to run
    cfg = load_config(bundled_data_path("validation.yaml"))
    return dataclasses.replace(cfg, horizon=2.0, replications=3)


@pytest.fixture(scope="module")
def quick_sweep_config():
    cfg = load_config(bundled_data_path("sweep.yaml"))
    return dataclasses.replace(cfg, horizon=2.0, replications=2)


# The chi-squared quantiles at 0.95, correctly rounded from 40-digit roots.
QUANTILES_95 = {1: 3.841458820694126, 2: 5.991464547107982, 3: 7.81472790325118,
                4: 9.487729036781158, 5: 11.070497693516355}


class TestChiSquaredQuantile:
    @pytest.mark.parametrize("df", sorted(QUANTILES_95))
    def test_within_two_ulps_of_correctly_rounded(self, df):
        quantile = QUANTILES_95[df]
        assert abs(chi2_isf(0.05, df) - quantile) <= 2 * math.ulp(quantile)

    def test_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for alpha in (0.01, 0.05, 0.10):
            for df in range(1, 301):
                expected = float(stats.chi2.ppf(1.0 - alpha, df))
                assert chi2_isf(alpha, df) == pytest.approx(expected, rel=1e-12), \
                    (alpha, df)

    @settings(deadline=None)
    @given(df=st.integers(1, 2000), alpha=st.floats(1e-9, 1.0 - 1e-9))
    def test_smallest_double_with_tail_at_most_alpha(self, df, alpha):
        x = chi2_isf(alpha, df)
        assert chi2_sf(x, df) <= alpha < chi2_sf(math.nextafter(x, 0.0), df)


class TestChiSquared:
    def test_proportional_observed_statistic_zero(self):
        observed = {0: 250.0, 1: 250.0, 2: 250.0, 3: 250.0}
        expected = {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25}
        statistic, critical, reject = chi_squared_gof(observed, expected)
        assert statistic == 0.0
        assert not reject

    def test_critical_value_df3(self):
        observed = {0: 10.0, 1: 10.0, 2: 10.0, 3: 10.0}
        expected = {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25}
        _, critical, _ = chi_squared_gof(observed, expected)
        assert abs(critical - QUANTILES_95[3]) <= 2 * math.ulp(QUANTILES_95[3])

    def test_concentrated_mass_rejects(self):
        observed = {0: 100.0, 1: 0.0, 2: 0.0, 3: 0.0}
        expected = {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25}
        statistic, _, reject = chi_squared_gof(observed, expected)
        assert statistic == pytest.approx(300.0)
        assert reject

    def test_statistic_scales_linearly_with_counts(self):
        expected = {0: 0.4, 1: 0.6}
        small = {0: 30.0, 1: 70.0}
        big = {0: 300.0, 1: 700.0}
        s1, _, _ = chi_squared_gof(small, expected)
        s2, _, _ = chi_squared_gof(big, expected)
        assert s2 == pytest.approx(10 * s1)

    def test_zero_total_rejected(self):
        with pytest.raises(ConfigError, match="positive total"):
            chi_squared_gof({0: 0.0, 1: 0.0}, {0: 0.5, 1: 0.5})

    def test_single_category_rejected(self):
        # no degree of freedom: the test would be vacuous
        with pytest.raises(ConfigError, match="at least two categories"):
            chi_squared_gof({0: 10.0}, {0: 1.0})

    def test_bad_proportions_rejected(self):
        with pytest.raises(ConfigError):
            chi_squared_gof({0: 5.0, 1: 5.0}, {0: 0.4, 1: 0.4})


class TestReplicationSeeds:
    def test_deterministic(self):
        assert replication_seeds(7, 5) == replication_seeds(7, 5)

    def test_distinct(self):
        seeds = replication_seeds(7, 10)
        assert len(set(seeds)) == 10


class TestValidation:
    def test_quick_run_matches_real_distribution(self, quick_validation_config):
        report = run_validation(quick_validation_config)
        assert report.mean_absolute_error <= 0.01
        assert not report.reject
        assert report.degrees_of_freedom == 3
        assert len(report.seeds) == 3

    def test_report_rows_shape(self, quick_validation_config):
        report = run_validation(quick_validation_config)
        rows = report.rows()
        assert [r[0] for r in rows] == [0, 1, 2, 3]
        for _, real, sim, err in rows:
            assert err == pytest.approx(abs(real - sim))

    def test_deterministic_report(self, quick_validation_config):
        a = run_validation(quick_validation_config)
        b = run_validation(quick_validation_config)
        assert a.simulated_proportions == b.simulated_proportions
        assert a.chi_squared == b.chi_squared

    def test_missing_observed_flows_rejected(self, quick_validation_config, tmp_path):
        net_file = tmp_path / "noflows.yaml"
        net_file.write_text(
            "nodes: [0, 1]\n"
            "links:\n"
            "  - {id: 0, from: 0, to: 1, length: 10.0, free_flow_time: 0.2,\n"
            "     has_carpool_lane: true}\n"
        )
        bad = dataclasses.replace(quick_validation_config, network=net_file)
        with pytest.raises(ConfigError, match="observed_daily_flow"):
            run_validation(bad)


class TestRouteMutants:
    """Declared mutants of route choice and the check that fails each
    (ROADMAP 14(c)), on the bundled validation at 2 replications, which
    passes unmutated (MAE 0.00072, chi-squared 0.41 against 7.81):

    - regular drivers at node 0 bound for 3 always take link 1, in the
      simulator only: criterion 1 rejects (MAE 0.0406 against 0.01,
      chi-squared 1,729 against 7.81);
    - ``Network.route_choices(0, 3)`` answers ``((1, 3),)``, so
      ``dijkstra_route``, the route function the simulator and the demand
      calibration share, sends 0 -> 3 by links 1 and 3: the calibration
      fails before any run ("calibration residuals exceed tolerance:
      {0: -12948.0}").

    Nothing is tuned so that a mutant fails."""

    @staticmethod
    def validate():
        return run_validation(load_config(bundled_data_path("validation.yaml"),
                                          {"replications": 2}))

    def test_unmutated_validation_passes(self):
        report = self.validate()
        assert report.mean_absolute_error <= 0.01 and not report.reject

    def test_simulator_detour_fails_criterion_1(self, monkeypatch):
        visit = SimState.vehicle_at_node

        def detour(sim, vehicle, node, now):
            if (node, vehicle.agent.destination) == (0, 3):
                return 1
            return visit(sim, vehicle, node, now)

        monkeypatch.setattr(SimState, "vehicle_at_node", detour)
        report = self.validate()
        assert report.mean_absolute_error > 0.01 and report.reject

    def test_shared_route_function_fails_calibration(self, monkeypatch):
        choices, run = Network.route_choices, SimState.run
        runs = []

        def forced(network, origin, dest):
            return ((1, 3),) if (origin, dest) == (0, 3) else choices(network, origin, dest)

        def counted(sim, *args, **kwargs):
            runs.append(sim)
            return run(sim, *args, **kwargs)

        monkeypatch.setattr(Network, "route_choices", forced)
        monkeypatch.setattr(SimState, "run", counted)
        with pytest.raises(ConfigError, match=r"calibration residuals exceed tolerance: \{0: "):
            self.validate()
        assert runs == []


class TestSweep:
    def test_rows_ordered_and_reproducible(self, quick_sweep_config):
        config = dataclasses.replace(quick_sweep_config, levels=(1.0, 0.25))
        a = run_capacity_sweep(config)
        b = run_capacity_sweep(config)
        assert [r.unused_fraction for r in a.rows] == [1.0, 0.25]
        assert [r.mean_match_rate for r in a.rows] == \
               [r.mean_match_rate for r in b.rows]
        assert a.seeds == b.seeds
        assert a.fingerprint == b.fingerprint

    def test_match_rates_within_bounds(self, quick_sweep_config):
        report = run_capacity_sweep(dataclasses.replace(quick_sweep_config,
                                                        levels=(1.0,)))
        for row in report.rows:
            assert 0.0 <= row.mean_match_rate <= 1.0

    def test_zero_riders_flagged(self, quick_sweep_config):
        tiny = dataclasses.replace(quick_sweep_config, horizon=0.01,
                                   levels=(1.0,), replications=1)
        report = run_capacity_sweep(tiny)
        row = report.rows[0]
        if row.riders == 0:
            assert row.warning == "no riders generated"
            assert row.mean_match_rate == 0.0

    def test_level_outside_range_rejected(self, quick_sweep_config):
        with pytest.raises(ConfigError, match="1.5 outside"):
            dataclasses.replace(quick_sweep_config, levels=(1.5,))

    def test_network_without_carpool_rejected(self, quick_sweep_config, tmp_path):
        net_file = tmp_path / "nocarpool.yaml"
        net_file.write_text(
            "nodes: [0, 1]\n"
            "links:\n"
            "  - {id: 0, from: 0, to: 1, length: 10.0, free_flow_time: 0.2,\n"
            "     has_carpool_lane: false, observed_daily_flow: 100}\n"
        )
        bad = dataclasses.replace(quick_sweep_config, network=net_file)
        with pytest.raises(ConfigError, match="carpool"):
            run_capacity_sweep(bad)
