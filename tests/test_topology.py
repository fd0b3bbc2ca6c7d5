"""Unit tests for the CMP mesh floorplan."""

import pytest

from repro.noc import MeshTopology, NodeKind, Port
from repro.params import MeshParams


@pytest.fixture(scope="module")
def topo():
    return MeshTopology(MeshParams())


class TestPlacement:
    def test_component_counts(self, topo):
        assert len(topo.cores) == 64
        assert len(topo.caches) == 32
        assert len(topo.memports) == 4

    def test_memory_at_corners(self, topo):
        corners = {
            topo.router_id(0, 0), topo.router_id(9, 0),
            topo.router_id(0, 9), topo.router_id(9, 9),
        }
        assert set(topo.memports) == corners

    def test_hotspot_router_is_cache(self, topo):
        """(7, 0) is a cache bank — the paper's 1Hotspot example."""
        assert topo.kind(topo.router_id(7, 0)) is NodeKind.CACHE

    def test_every_router_has_exactly_one_component(self, topo):
        kinds = [topo.kind(r) for r in range(100)]
        assert len(kinds) == 100
        assert all(isinstance(k, NodeKind) for k in kinds)

    def test_four_cache_clusters_of_eight(self, topo):
        clusters = topo.cache_clusters
        assert len(clusters) == 4
        assert all(len(c) == 8 for c in clusters)
        assert sorted(b for c in clusters for b in c) == sorted(topo.caches)

    def test_central_bank_is_in_its_cluster(self, topo):
        for i, cluster in enumerate(topo.cache_clusters):
            assert topo.central_bank(i) in cluster

    def test_cluster_of_roundtrip(self, topo):
        for i, cluster in enumerate(topo.cache_clusters):
            for bank in cluster:
                assert topo.cluster_of(bank) == i

    def test_cluster_of_rejects_core(self, topo):
        with pytest.raises(ValueError):
            topo.cluster_of(topo.cores[0])

    def test_counts_must_fill_mesh(self):
        with pytest.raises(ValueError):
            MeshTopology(MeshParams(num_cores=63))


class TestCoordinates:
    def test_roundtrip(self, topo):
        for r in range(100):
            x, y = topo.coord(r)
            assert topo.router_id(x, y) == r

    def test_out_of_range(self, topo):
        with pytest.raises(ValueError):
            topo.router_id(10, 0)
        with pytest.raises(ValueError):
            topo.coord(100)

    def test_manhattan(self, topo):
        assert topo.manhattan(topo.router_id(0, 0), topo.router_id(9, 9)) == 18
        assert topo.manhattan(5, 5) == 0


class TestConnectivity:
    def test_corner_has_two_neighbors(self, topo):
        assert len(topo.neighbors(topo.router_id(0, 0))) == 2

    def test_center_has_four_neighbors(self, topo):
        assert len(topo.neighbors(topo.router_id(5, 5))) == 4

    def test_neighbor_ports_are_consistent(self, topo):
        r = topo.router_id(4, 4)
        n = topo.neighbors(r)
        assert topo.coord(n[Port.NORTH]) == (4, 5)
        assert topo.coord(n[Port.SOUTH]) == (4, 3)
        assert topo.coord(n[Port.EAST]) == (5, 4)
        assert topo.coord(n[Port.WEST]) == (3, 4)

    def test_mesh_link_count(self, topo):
        # 2 * (W*(H-1) + H*(W-1)) directed links on a W x H grid.
        assert len(topo.mesh_links()) == 2 * (10 * 9 + 9 * 10)

    def test_grid_graph_strongly_connected(self, topo):
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(topo.num_routers))
        g.add_edges_from(
            (r, n) for r, adj in enumerate(topo.adjacency) for _, n in adj
        )
        assert nx.is_strongly_connected(g)


class TestRFPlacement:
    def test_fifty_is_checkerboard(self, topo):
        rf = topo.rf_enabled_routers(50)
        assert len(rf) == 50
        assert all(sum(topo.coord(r)) % 2 == 0 for r in rf)

    def test_twentyfive_is_staggered_quarter(self, topo):
        rf = topo.rf_enabled_routers(25)
        assert len(rf) == 25
        assert all((2 * topo.coord(r)[0] + topo.coord(r)[1]) % 4 == 0 for r in rf)

    def test_full_and_invalid_counts(self, topo):
        assert topo.rf_enabled_routers(100) == list(range(100))
        with pytest.raises(ValueError):
            topo.rf_enabled_routers(0)
        with pytest.raises(ValueError):
            topo.rf_enabled_routers(101)

    def test_arbitrary_count(self, topo):
        assert len(topo.rf_enabled_routers(37)) == 37
        assert len(set(topo.rf_enabled_routers(75))) == 75

    def test_render_marks_rf(self, topo):
        text = topo.render(set(topo.rf_enabled_routers(50)))
        assert text.count("*") == 50
        assert text.count("M") == 4


class TestSmallMeshes:
    def test_four_by_four(self):
        p = MeshParams(width=4, height=4, num_cores=8, num_caches=4, num_memports=4)
        topo = MeshTopology(p)
        assert len(topo.cores) == 8
        assert len(topo.caches) == 4
        assert len(topo.cache_clusters) == 4

    def test_router_spacing(self):
        p = MeshParams()
        assert p.router_spacing_mm == pytest.approx(2.0)
