import textwrap

import pytest
from hypothesis import assume, given, strategies as st

from ridesim.network import (
    ConfigError,
    LaneClass,
    flow_distribution,
    load_network,
    volume_delay,
)

BPR = (0.15, 4.0)  # the (alpha, beta) of every bundled scenario


def write_net(tmp_path, body: str):
    path = tmp_path / "net.yaml"
    path.write_text(textwrap.dedent(body))
    return path


class TestLoadNetwork:
    def test_bundled_testbed(self, testbed):
        assert len(testbed.nodes) == 4
        assert len(testbed.links) == 4
        assert testbed.link(2).has_carpool_lane
        assert not testbed.link(0).has_carpool_lane

    def test_testbed_totals_match_observed(self, testbed):
        assert sum(l.length for l in testbed.links) == pytest.approx(125.1)
        assert sum(l.free_flow_time for l in testbed.links) == pytest.approx(1.91)
        assert sum(l.observed_daily_flow for l in testbed.links) == 230668

    def test_testbed_speeds_plausible(self, testbed):
        for link in testbed.links:
            assert 64.0 <= link.length / link.free_flow_time <= 67.0

    def test_adjacency_consistent(self, testbed):
        rebuilt = {n: [] for n in testbed.nodes}
        for link in sorted(testbed.links, key=lambda l: l.id):
            rebuilt[link.from_node].append(link.id)
        assert testbed.adjacency == rebuilt

    def test_next_hops_unknown_destination_rejected(self, testbed):
        with pytest.raises(ValueError, match="destination 9"):
            testbed.next_hops(0, 9)

    def test_negative_length_rejected(self, tmp_path):
        path = write_net(tmp_path, """
            nodes: [0, 1]
            links:
              - {id: 0, from: 0, to: 1, length: -1.0, free_flow_time: 0.1,
                 has_carpool_lane: false}
        """)
        with pytest.raises(ConfigError, match="link 0"):
            load_network(path)

    def test_dangling_endpoint_rejected(self, tmp_path):
        path = write_net(tmp_path, """
            nodes: [0, 1]
            links:
              - {id: 0, from: 0, to: 9, length: 1.0, free_flow_time: 0.1,
                 has_carpool_lane: false}
        """)
        with pytest.raises(ConfigError, match="node 9"):
            load_network(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = write_net(tmp_path, """
            nodes: [0, 1]
            links:
              - {id: 0, from: 0, to: 1, length: 1.0, free_flow_time: 0.1,
                 has_carpool_lane: false, colour: blue}
        """)
        with pytest.raises(ConfigError, match="colour"):
            load_network(path)

    def test_missing_field_named(self, tmp_path):
        path = write_net(tmp_path, """
            nodes: [0, 1]
            links:
              - {id: 0, from: 0, to: 1, length: 1.0, has_carpool_lane: false}
        """)
        with pytest.raises(ConfigError, match="free_flow_time"):
            load_network(path)

    def test_self_loop_rejected(self, tmp_path):
        path = write_net(tmp_path, """
            nodes: [0]
            links:
              - {id: 0, from: 0, to: 0, length: 1.0, free_flow_time: 0.1,
                 has_carpool_lane: false}
        """)
        with pytest.raises(ConfigError, match="self-loop"):
            load_network(path)


class TestFlowDistribution:
    def test_table_values(self):
        dist = flow_distribution({0: 12948, 1: 53319, 2: 106058, 3: 58343})
        assert round(dist[0], 3) == 0.056
        assert round(dist[1], 3) == 0.231
        assert round(dist[2], 3) == 0.460
        assert round(dist[3], 3) == 0.253

    def test_symmetry(self):
        assert flow_distribution({0: 5, 1: 5}) == {0: 0.5, 1: 0.5}

    def test_degenerate_mass(self):
        dist = flow_distribution({0: 1, 1: 0, 2: 0, 3: 0})
        assert dist[0] == 1.0
        assert sum(dist.values()) == 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            flow_distribution({0: 0, 1: 0})

    @given(st.dictionaries(st.integers(0, 9),
                           st.floats(0, 1e6, allow_nan=False),
                           min_size=1, max_size=8))
    def test_sums_to_one(self, counts):
        assume(sum(counts.values()) > 0)
        dist = flow_distribution(counts)
        assert abs(sum(dist.values()) - 1.0) <= 1e-12
        assert all(0.0 <= v <= 1.0 for v in dist.values())


class TestVolumeDelay:
    def test_zero_flow_fixed_point(self, testbed):
        for link in testbed.links:
            for lane_class in LaneClass:
                assert volume_delay(link, lane_class, 0.0, *BPR) == link.free_flow_time

    def test_general_at_capacity(self, testbed):
        link = testbed.link(1)
        flow = link.general_lanes * link.lane_capacity
        assert volume_delay(link, LaneClass.GENERAL, flow, *BPR) == pytest.approx(0.253)

    def test_carpool_half_capacity(self, testbed):
        link = testbed.link(2)
        value = volume_delay(link, LaneClass.CARPOOL, 0.5 * link.lane_capacity, *BPR)
        assert value == pytest.approx(0.5046875)

    def test_negative_flow_rejected(self, testbed):
        with pytest.raises(ValueError):
            volume_delay(testbed.link(0), LaneClass.GENERAL, -1.0, *BPR)

    @given(st.floats(0, 5e4, allow_nan=False), st.floats(0, 5e4, allow_nan=False))
    def test_monotone_in_flow(self, testbed, f1, f2):
        lo, hi = sorted((f1, f2))
        for link in testbed.links:
            assert (volume_delay(link, LaneClass.GENERAL, lo, *BPR)
                    <= volume_delay(link, LaneClass.GENERAL, hi, *BPR))
