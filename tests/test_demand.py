import math

import numpy as np
import pytest

from conftest import make_network
from ridesim.agents import Role, TimeWindow, VehicleAgent
from ridesim.demand import (
    DemandSpec,
    Shares,
    calibrate_od_rates,
    default_od_pairs,
    fallback_to_driver,
    free_flow_paths,
    generate_agents,
)
from ridesim.network import ConfigError

SWEEP_SHARES = Shares(0.10, 0.40, 0.50)
ALL_REGULAR = Shares(0.0, 0.0, 1.0)


def reference_agents(spec, network, seed):
    """``generate_agents`` as one loop per arrival, the same random draws."""
    od_pairs = sorted(spec.od_rates)
    routes = free_flow_paths(network, od_pairs)
    rng = np.random.default_rng(seed)
    arrivals = []
    for od in od_pairs:
        rate = spec.od_rates[od] * spec.scale
        if rate <= 0:
            continue
        count = rng.poisson(rate * spec.horizon)
        times = np.sort(rng.uniform(0.0, spec.horizon, size=count))
        arrivals.extend((float(t), od) for t in times)
    arrivals.sort(key=lambda item: (item[0], item[1]))
    draws = rng.random(len(arrivals))
    cut_rider = spec.shares.rider
    cut_driver = cut_rider + spec.shares.rideshare_driver
    agents = []
    for idx, ((time, od), draw) in enumerate(zip(arrivals, draws)):
        if draw < cut_rider:
            role = Role.RIDER
        elif draw < cut_driver:
            role = Role.RIDESHARE_DRIVER
        else:
            role = Role.REGULAR_DRIVER
        fft = routes[od][1]
        window = TimeWindow(
            earliest_departure=time,
            latest_departure=time + spec.window_flexibility,
            earliest_arrival=time + fft,
            latest_arrival=time + fft + spec.window_flexibility,
        )
        agents.append(VehicleAgent(
            id=idx, role=role, origin=od[0], destination=od[1],
            request_time=time, window=window,
            seats=spec.seats if role is Role.RIDESHARE_DRIVER else 0,
        ))
    return tuple(agents)


def grid_network(size=4):
    """Directed size x size grid, links east and south, 0.125 h each."""
    links = []
    for node in range(size * size):
        if node % size + 1 < size:
            links.append((node, node + 1, 0.125))
        if node + size < size * size:
            links.append((node, node + size, 0.125))
    return make_network(links)


class TestShares:
    def test_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            Shares(0.2, 0.4, 0.5)

    def test_bounds(self):
        with pytest.raises(ConfigError):
            Shares(-0.1, 0.6, 0.5)


class TestCalibration:
    def test_testbed_system(self, testbed):
        targets = {l.id: l.observed_daily_flow for l in testbed.links}
        rates = calibrate_od_rates(testbed, targets,
                                   fixed_daily={(0, 2): 26660.0})
        assert rates[(0, 3)] == pytest.approx(12948 / 24)
        assert rates[(1, 3)] == pytest.approx(58343 / 24)
        assert rates[(0, 2)] == pytest.approx(26660 / 24)
        assert rates[(0, 1)] == pytest.approx((53319 - 26660) / 24)
        assert rates[(1, 2)] == pytest.approx((106058 - 26660) / 24)

    def test_free_flow_assignment_reproduces_targets(self, testbed):
        targets = {l.id: l.observed_daily_flow for l in testbed.links}
        rates = calibrate_od_rates(testbed, targets,
                                   fixed_daily={(0, 2): 26660.0})
        # all-or-nothing free-flow loads: 0->3 takes the direct link
        loads = {0: rates[(0, 3)],
                 1: rates[(0, 1)] + rates[(0, 2)],
                 2: rates[(0, 2)] + rates[(1, 2)],
                 3: rates[(1, 3)]}
        for link_id, daily in targets.items():
            assert loads[link_id] * 24 == pytest.approx(daily, rel=1e-9)

    def test_default_pairs_are_forward_reachable(self, testbed):
        # the five forward-reachable pairs of the four-link testbed
        assert default_od_pairs(testbed) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]

    def test_all_zero_targets(self, testbed):
        with pytest.raises(ConfigError, match="^demand.od_rates: calibration needs "
                                              "observed flows"):
            calibrate_od_rates(testbed, {l.id: 0.0 for l in testbed.links})

    def test_unusable_target_rejected(self, testbed):
        # nothing routes over link 0 once 0->3 demand is excluded
        targets = {0: 1000.0, 1: 0.0, 2: 0.0, 3: 0.0}
        with pytest.raises(ConfigError, match="residual|negative"):
            calibrate_od_rates(testbed, targets,
                               od_pairs=[(0, 1), (1, 2)])

    def test_missing_target_rejected(self, testbed):
        with pytest.raises(ConfigError, match="missing"):
            calibrate_od_rates(testbed, {0: 1.0})


class TestGenerateAgents:
    def spec(self, shares=SWEEP_SHARES, scale=1.0, horizon=4.0, flex=0.25):
        rates = {(0, 2): 200.0, (0, 3): 100.0, (1, 3): 150.0}
        return DemandSpec(od_rates=rates, shares=shares,
                          window_flexibility=flex, horizon=horizon, scale=scale, seats=4)

    def test_zero_rates_empty(self, testbed):
        spec = DemandSpec(od_rates={(0, 2): 0.0}, shares=ALL_REGULAR,
                          window_flexibility=0.25, horizon=24.0, scale=1.0, seats=4)
        assert len(generate_agents(spec, testbed, 1)) == 0

    def test_deterministic(self, testbed):
        spec = self.spec()
        a = generate_agents(spec, testbed, 77)
        b = generate_agents(spec, testbed, 77)
        assert [x.request_time for x in a] == [x.request_time for x in b]
        assert [x.role for x in a] == [x.role for x in b]

    def test_seed_sensitivity(self, testbed):
        spec = self.spec()
        a = generate_agents(spec, testbed, 1)
        b = generate_agents(spec, testbed, 2)
        assert [x.request_time for x in a] != [x.request_time for x in b]

    def test_role_counts_within_3_sigma(self, testbed):
        spec = self.spec(horizon=8.0, scale=3.0)  # ~10k agents
        schedule = generate_agents(spec, testbed, 123)
        n = len(schedule)
        assert n > 5000
        counts = {role: 0 for role in Role}
        for agent in schedule:
            counts[agent.role] += 1
        for role, share in ((Role.RIDER, 0.10),
                            (Role.RIDESHARE_DRIVER, 0.40),
                            (Role.REGULAR_DRIVER, 0.50)):
            sigma = math.sqrt(n * share * (1 - share))
            assert abs(counts[role] - n * share) <= 3 * sigma

    def test_windows_admit_free_flow_trip(self, testbed):
        spec = self.spec(horizon=2.0)
        for agent in generate_agents(spec, testbed, 5):
            w = agent.window
            assert w.earliest_departure == agent.request_time
            assert w.latest_departure >= w.earliest_departure
            assert w.earliest_arrival <= w.latest_arrival
            # slack equals the configured flexibility
            assert (w.latest_arrival - w.earliest_arrival) == pytest.approx(0.25)

    def test_arrivals_sorted_and_capped(self, testbed):
        spec = self.spec(horizon=3.0)
        schedule = generate_agents(spec, testbed, 11)
        times = [a.request_time for a in schedule]
        assert times == sorted(times)
        assert all(0.0 <= t <= 3.0 for t in times)

    def test_poisson_counts(self, testbed):
        spec = DemandSpec(od_rates={(0, 2): 60.0}, shares=ALL_REGULAR,
                          window_flexibility=0.25, horizon=1.0, scale=1.0, seats=4)
        counts = [len(generate_agents(spec, testbed, s)) for s in range(200)]
        mean = np.mean(counts)
        assert 60 - 3 * math.sqrt(60 / 200) * 3 <= mean <= 60 + math.sqrt(60 / 200) * 9

    @pytest.mark.parametrize("case", [
        "grid", "calibrated", "zero-rate-pair", "all-zero", "scale-0", "all-riders",
    ])
    def test_equals_per_arrival_reference(self, testbed, case):
        network = testbed
        if case == "grid":
            network = grid_network()
            spec = DemandSpec({od: 3.5 for od in default_od_pairs(network)},
                              Shares(0.25, 0.5, 0.25), window_flexibility=0.3,
                              horizon=4.0, scale=1.0, seats=3)
        elif case == "calibrated":
            from ridesim.config import bundled_data_path, load_config
            rates = load_config(bundled_data_path("validation.yaml")).demand_spec(
                testbed).od_rates
            spec = DemandSpec(rates, SWEEP_SHARES, window_flexibility=0.25,
                              horizon=6.0, scale=0.1, seats=4)
        elif case == "zero-rate-pair":
            spec = DemandSpec({(0, 1): 0.0, (0, 2): 200.0, (1, 3): 150.0},
                              SWEEP_SHARES, window_flexibility=0.25, horizon=4.0,
                              scale=1.0, seats=4)
        elif case == "all-zero":
            spec = DemandSpec({(0, 2): 0.0, (1, 3): 0.0}, SWEEP_SHARES,
                              window_flexibility=0.25, horizon=24.0, scale=1.0, seats=4)
        elif case == "scale-0":
            spec = self.spec(scale=0.0)
        else:
            spec = self.spec(shares=Shares(1.0, 0.0, 0.0))
        for seed in (1, 2, 3):
            agents = generate_agents(spec, network, seed)
            reference = reference_agents(spec, network, seed)
            assert agents == reference
            assert repr(agents) == repr(reference)  # same field types too
        assert (len(agents) > 100) == (case not in ("all-zero", "scale-0"))

    def test_equal_times_keep_pair_order(self, testbed, monkeypatch):
        # with times rounded to quarter hours many arrivals tie: a tie must
        # keep the (time, O-D pair) order of the per-arrival sort
        make_rng = np.random.default_rng

        class CoarseTimes:
            def __init__(self, seed):
                self.rng = make_rng(seed)
                self.poisson, self.random = self.rng.poisson, self.rng.random

            def uniform(self, low, high, size):
                return np.floor(self.rng.uniform(low, high, size) * 4) / 4

        monkeypatch.setattr(np.random, "default_rng", CoarseTimes)
        spec = self.spec(horizon=2.0)
        agents = generate_agents(spec, testbed, 4)
        assert agents == reference_agents(spec, testbed, 4)
        times = [a.request_time for a in agents]
        assert len(set(times)) < len(times) / 10

    def test_disconnected_od_rejected(self, testbed):
        spec = DemandSpec(od_rates={(2, 0): 10.0}, shares=ALL_REGULAR,
                          window_flexibility=0.25, horizon=24.0, scale=1.0, seats=4)
        with pytest.raises(ConfigError, match="not connected"):
            generate_agents(spec, testbed, 3)


class TestFallback:
    def make_rider(self):
        window = TimeWindow(1.0, 1.25, 1.5, 1.75)
        return VehicleAgent(id=7, role=Role.RIDER, origin=0, destination=2,
                            request_time=1.0, window=window)

    def test_copies_trip(self):
        driver = fallback_to_driver(self.make_rider(), next_id=8)
        assert driver.role is Role.REGULAR_DRIVER
        assert (driver.origin, driver.destination) == (0, 2)
        assert driver.request_time == 1.0

    def test_fresh_id(self):
        driver = fallback_to_driver(self.make_rider(), next_id=99)
        assert driver.id == 99

    def test_non_rider_rejected(self):
        agent = VehicleAgent(id=1, role=Role.REGULAR_DRIVER, origin=0,
                             destination=3, request_time=0.0,
                             window=TimeWindow(0.0, 0.0, 0.55, 0.55))
        with pytest.raises(ValueError):
            fallback_to_driver(agent, next_id=2)
