"""Tests for the open-loop simulation driver and measurement methodology."""

import pytest

from repro.core import baseline
from repro.noc import MeshTopology, Simulator
from repro.params import ArchitectureParams, MeshParams, SimulationParams
from repro.traffic import ProbabilisticTraffic, all_patterns

PARAMS = ArchitectureParams()


@pytest.fixture(scope="module")
def topo():
    return MeshTopology(MeshParams())


def make_source(topo, rate=0.02, seed=3):
    return ProbabilisticTraffic(topo, all_patterns(topo)["uniform"], rate, seed=seed)


class TestMethodology:
    def test_warmup_not_measured(self, topo):
        net = baseline(16, topology=topo).new_network()
        sim = SimulationParams(warmup_cycles=300, measure_cycles=500,
                               drain_cycles=4000)
        stats = Simulator(net, [make_source(topo)], sim).run()
        # ~0.02 * 100 * 500 = 1000 expected; warm-up would add ~600 more.
        assert stats.injected_packets == pytest.approx(1000, rel=0.15)

    def test_all_window_packets_accounted(self, topo):
        net = baseline(16, topology=topo).new_network()
        sim = SimulationParams(warmup_cycles=200, measure_cycles=500,
                               drain_cycles=6000)
        stats = Simulator(net, [make_source(topo)], sim).run()
        assert stats.delivered_packets == stats.injected_packets
        assert stats.delivery_ratio == 1.0

    def test_latency_positive_and_sane(self, topo):
        net = baseline(16, topology=topo).new_network()
        sim = SimulationParams(warmup_cycles=100, measure_cycles=400,
                               drain_cycles=4000)
        stats = Simulator(net, [make_source(topo)], sim).run()
        # Zero-load cross-chip worst case is ~100; light load sits near 40.
        assert 20 < stats.avg_packet_latency < 80
        assert stats.avg_flit_latency >= stats.avg_packet_latency * 0.8

    def test_simulate_convenience(self, topo):
        net = baseline(16, topology=topo).new_network()
        stats = Simulator(
            net, [make_source(topo)],
            SimulationParams(warmup_cycles=50, measure_cycles=200,
                             drain_cycles=2000),
        ).run()
        assert stats.delivered_packets > 0

    def test_saturated_network_reports_partial_delivery(self, topo):
        net = baseline(4, topology=topo).new_network()
        sim = SimulationParams(warmup_cycles=100, measure_cycles=400,
                               drain_cycles=300)
        stats = Simulator(net, [make_source(topo, rate=0.2)], sim).run()
        assert stats.delivery_ratio < 1.0

    def test_distance_histogram_collected(self, topo):
        net = baseline(16, topology=topo).new_network()
        sim = SimulationParams(warmup_cycles=50, measure_cycles=300,
                               drain_cycles=3000)
        stats = Simulator(net, [make_source(topo)], sim).run()
        assert sum(stats.distance_histogram.values()) == stats.injected_packets
        assert max(stats.distance_histogram) <= 18

    def test_percentiles_monotone(self, topo):
        net = baseline(16, topology=topo).new_network()
        sim = SimulationParams(warmup_cycles=50, measure_cycles=300,
                               drain_cycles=3000)
        stats = Simulator(net, [make_source(topo)], sim).run()
        p50 = stats.latency_percentile(0.5)
        p95 = stats.latency_percentile(0.95)
        assert p50 <= p95

    def test_summary_keys(self, topo):
        net = baseline(16, topology=topo).new_network()
        sim = SimulationParams(warmup_cycles=50, measure_cycles=200,
                               drain_cycles=2000)
        stats = Simulator(net, [make_source(topo)], sim).run()
        summary = stats.summary()
        for key in ("avg_packet_latency", "throughput_flits_per_cycle",
                    "delivery_ratio"):
            assert key in summary
