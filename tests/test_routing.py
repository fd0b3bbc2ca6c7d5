"""Unit tests for XY routing and shortest-path routing tables."""

import networkx as nx
import pytest

from repro.noc import MeshTopology, Port, RoutingTables, Shortcut, xy_port
from repro.noc.routing import EJECT
from repro.noc.topology import PORT_STEP
from repro.params import MeshParams


@pytest.fixture(scope="module")
def topo():
    return MeshTopology(MeshParams())


def walk(topo, tables, src, dst, limit=200):
    """Follow next-hop ports from src until ejection; return hop count."""
    cur, hops = src, 0
    while hops < limit:
        port = tables.port_for(cur, dst)
        if port == EJECT:
            return hops, cur
        if port == int(Port.RF):
            nxt = tables.rf_destination(cur)
            assert nxt is not None
        else:
            dx, dy = PORT_STEP[Port(port)]
            x, y = topo.coord(cur)
            nxt = topo.router_id(x + dx, y + dy)
        cur = nxt
        hops += 1
    raise AssertionError("routing loop")


class TestXY:
    def test_moves_x_first(self, topo):
        assert xy_port(topo, topo.router_id(0, 0), topo.router_id(5, 5)) == int(Port.EAST)
        assert xy_port(topo, topo.router_id(5, 0), topo.router_id(5, 5)) == int(Port.NORTH)
        assert xy_port(topo, topo.router_id(9, 9), topo.router_id(0, 9)) == int(Port.WEST)
        assert xy_port(topo, topo.router_id(0, 9), topo.router_id(0, 0)) == int(Port.SOUTH)

    def test_ejects_at_destination(self, topo):
        assert xy_port(topo, 42, 42) == EJECT

    def test_xy_path_length_is_manhattan(self, topo):
        tables = RoutingTables(topo)
        for src, dst in [(0, 99), (7, 34), (55, 12)]:
            cur, hops = src, 0
            while cur != dst:
                port = xy_port(topo, cur, dst)
                dx, dy = PORT_STEP[Port(port)]
                x, y = topo.coord(cur)
                cur = topo.router_id(x + dx, y + dy)
                hops += 1
            assert hops == topo.manhattan(src, dst)
        del tables


class TestTables:
    def test_mesh_distance_equals_manhattan(self, topo):
        tables = RoutingTables(topo)
        for src in [0, 17, 55, 99]:
            for dst in range(100):
                assert tables.distance(src, dst) == topo.manhattan(src, dst)

    def test_matches_networkx_with_shortcuts(self, topo):
        shortcuts = [
            Shortcut(topo.router_id(1, 1), topo.router_id(8, 8)),
            Shortcut(topo.router_id(8, 1), topo.router_id(1, 8)),
            Shortcut(topo.router_id(0, 5), topo.router_id(9, 5)),
        ]
        tables = RoutingTables(topo, shortcuts)
        g = nx.DiGraph(
            (r, n) for r, adj in enumerate(topo.adjacency) for _, n in adj
        )
        g.add_edges_from((s.src, s.dst) for s in shortcuts)
        lengths = dict(nx.all_pairs_shortest_path_length(g))
        for src in range(0, 100, 7):
            for dst in range(100):
                assert tables.distance(src, dst) == lengths[src][dst]

    def test_routes_terminate_with_correct_length(self, topo):
        shortcuts = [
            Shortcut(topo.router_id(1, 1), topo.router_id(8, 8)),
            Shortcut(topo.router_id(8, 8), topo.router_id(1, 1)),
        ]
        tables = RoutingTables(topo, shortcuts)
        for src in range(0, 100, 11):
            for dst in range(0, 100, 7):
                hops, end = walk(topo, tables, src, dst)
                assert end == dst
                assert hops == tables.distance(src, dst)

    def test_shortcut_used_when_profitable(self, topo):
        a, b = topo.router_id(0, 0), topo.router_id(9, 9)
        tables = RoutingTables(topo, [Shortcut(a, b)])
        # 18 mesh hops collapse to 1 RF hop.
        assert tables.distance(a, b) == 1
        assert tables.port_for(a, b) == int(Port.RF)
        assert tables.rf_destination(a) == b

    def test_shortcut_ignored_when_unprofitable(self, topo):
        a, b = topo.router_id(0, 0), topo.router_id(9, 9)
        tables = RoutingTables(topo, [Shortcut(a, b)])
        east = topo.router_id(1, 0)
        assert tables.port_for(a, east) != int(Port.RF)
        assert tables.distance(a, east) == 1

    def test_duplicate_outbound_rejected(self, topo):
        with pytest.raises(ValueError):
            RoutingTables(topo, [Shortcut(0, 50), Shortcut(0, 60)])

    def test_self_shortcut_rejected(self):
        with pytest.raises(ValueError):
            Shortcut(3, 3)

    def test_average_distance_improves(self, topo):
        base = RoutingTables(topo).average_distance()
        better = RoutingTables(
            topo,
            [
                Shortcut(topo.router_id(1, 1), topo.router_id(8, 8)),
                Shortcut(topo.router_id(8, 8), topo.router_id(1, 1)),
            ],
        ).average_distance()
        assert better < base

    def test_mesh_port_is_xy(self, topo):
        tables = RoutingTables(topo, [Shortcut(0, 88)])
        for src, dst in [(0, 99), (33, 2)]:
            assert tables.mesh_port_for(src, dst) == xy_port(topo, src, dst)
