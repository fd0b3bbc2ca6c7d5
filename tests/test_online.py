"""Tests for network retuning, phased sources and multicast re-planning.

The runtime reconfiguration loop itself (``repro.control.ControlLoop``)
is tested in ``tests/test_control.py``.
"""

import pytest

from repro.core import PhasedSource, RFIOverlay
from repro.core.reconfig import ReconfigurationController
from repro.noc import (
    Message, MeshTopology, Network, RoutingTables, Shortcut,
)
from repro.noc.simulator import Simulator
from repro.params import ArchitectureParams, MeshParams, SimulationParams
from repro.traffic import ProbabilisticTraffic, all_patterns

PARAMS = ArchitectureParams()


@pytest.fixture(scope="module")
def topo():
    return MeshTopology(MeshParams())


class TestApplyShortcuts:
    def test_retune_idle_network(self, topo):
        first = RoutingTables(topo, [Shortcut(11, 88)])
        net = Network(topo, PARAMS, first)
        net.inject(Message(src=11, dst=88, size_bytes=39))
        assert net.drain(300)
        second = RoutingTables(topo, [Shortcut(22, 77)])
        net.apply_shortcuts(second)
        # Old RF port gone, new one present and usable end to end.
        assert 5 not in net.routers[11].out_links
        assert 5 in net.routers[22].out_links
        pkt = net.inject(Message(src=22, dst=77, size_bytes=39))
        assert net.drain(300)
        assert pkt.rf_hops == 1

    def test_refuses_with_packets_in_flight(self, topo):
        net = Network(topo, PARAMS, RoutingTables(topo, [Shortcut(11, 88)]))
        net.inject(Message(src=0, dst=99, size_bytes=39))
        net.step()
        with pytest.raises(RuntimeError):
            net.apply_shortcuts(RoutingTables(topo, []))

    def test_retune_to_empty(self, topo):
        net = Network(topo, PARAMS, RoutingTables(topo, [Shortcut(11, 88)]))
        net.apply_shortcuts(RoutingTables(topo, []))
        net.inject(Message(src=11, dst=88, size_bytes=39))
        assert net.drain(500)
        assert net.stats.rf_hop_sum == 0


class TestPhasedSource:
    def test_cycles_through_phases(self, topo):
        pats = all_patterns(topo)
        a = ProbabilisticTraffic(topo, pats["uniform"], 0.05, seed=1)
        b = ProbabilisticTraffic(topo, pats["1Hotspot"], 0.05, seed=2)
        phased = PhasedSource([a, b], phase_cycles=10)
        assert phased.current(0) is a
        assert phased.current(10) is b
        assert phased.current(20) is a

    def test_requires_sources(self):
        with pytest.raises(ValueError):
            PhasedSource([], phase_cycles=10)


class TestMulticastReconfigure:
    def test_multicast_reserves_band_and_transmitter(self, topo):
        import numpy as np

        overlay = RFIOverlay(topo, topo.rf_enabled_routers(50), adaptive=True)
        controller = ReconfigurationController(topo, overlay)
        frequency = np.random.default_rng(0).random(
            (topo.num_routers, topo.num_routers))
        transmitter = next(iter(overlay.access_points))
        plan = controller.reconfigure(
            frequency, multicast=True, multicast_transmitter=transmitter)
        # One band is the broadcast channel: budget - 1 shortcuts placed.
        assert len(plan.shortcuts) == controller.budget - 1
        # The transmitter's Tx mixer is taken by the multicast channel.
        assert all(s.src != transmitter for s in plan.shortcuts)
        # Every access-point Rx not claimed by a shortcut listens on the
        # broadcast channel (the transmitter's own free Rx included).
        assert plan.multicast_receivers
        claimed = {s.dst for s in plan.shortcuts}
        assert claimed.isdisjoint(plan.multicast_receivers)

    def test_multicast_requires_transmitter(self, topo):
        import numpy as np

        overlay = RFIOverlay(topo, topo.rf_enabled_routers(50), adaptive=True)
        controller = ReconfigurationController(topo, overlay)
        frequency = np.ones((topo.num_routers, topo.num_routers))
        with pytest.raises(ValueError):
            controller.reconfigure(frequency, multicast=True)

    def test_selection_config_not_mutated(self, topo):
        """The controller passes exclusions at construction, value-like."""
        overlay = RFIOverlay(topo, topo.rf_enabled_routers(50), adaptive=True)
        controller = ReconfigurationController(topo, overlay)
        config = controller._selection_config(4, frozenset({11}))
        assert config.budget == 4
        assert config.extra_forbidden == {11}
        # A fresh config without exclusions starts empty.
        assert controller._selection_config(4).extra_forbidden == set()


class TestVisualize:
    def test_heatmap_and_links(self, topo):
        from repro.noc.visualize import (
            hottest_links, render_link_report, render_traffic_heatmap,
            render_shortcuts,
        )

        net = Network(topo, PARAMS, RoutingTables(topo, [Shortcut(11, 88)]))
        source = ProbabilisticTraffic(
            topo, all_patterns(topo)["1Hotspot"], 0.03, seed=4
        )
        sim = SimulationParams(warmup_cycles=100, measure_cycles=600,
                               drain_cycles=4_000)
        stats = Simulator(net, [source], sim).run()
        heat = render_traffic_heatmap(stats, topo)
        assert len(heat.splitlines()) == 10
        links = hottest_links(stats, topo, count=5)
        assert len(links) == 5
        assert links[0][1] >= links[-1][1]
        report = render_link_report(stats, topo)
        assert "flits/cycle" in report
        drawing = render_shortcuts(topo, [Shortcut(11, 88)])
        assert drawing.count("s") == 1
        assert drawing.count("d") == 1

    def test_link_utilization_accessor(self, topo):
        net = Network(topo, PARAMS)
        net.stats.measure_start = 0
        net.inject(Message(src=0, dst=9, size_bytes=39))
        net.drain(300)
        net.stats.activity.cycles = net.cycle
        assert net.stats.link_utilization(0, 1) > 0
        assert net.stats.link_utilization(9, 8) == 0
