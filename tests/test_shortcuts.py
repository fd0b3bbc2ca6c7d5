"""Unit + property tests for shortcut selection."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import MeshTopology, RoutingTables
from repro.params import MeshParams
from repro.shortcuts import (
    SelectionConfig, ShortcutSelector, add_edge_inplace, cost_after_edge,
    mesh_distances, region_members, region_origins, regions_overlap,
    select_application_shortcuts, select_architecture_shortcuts,
    select_region_shortcuts, total_cost, with_edge,
)
from repro.traffic import ProbabilisticTraffic, all_patterns, hotspot_routers


@pytest.fixture(scope="module")
def topo():
    return MeshTopology(MeshParams())


@pytest.fixture(scope="module")
def small_topo():
    return MeshTopology(
        MeshParams(width=5, height=5, num_cores=13, num_caches=8, num_memports=4)
    )


class TestGraph:
    def test_mesh_distances_are_manhattan(self, topo):
        dist = mesh_distances(topo)
        for a in (0, 37, 99):
            for b in (5, 50, 98):
                assert dist[a, b] == topo.manhattan(a, b)

    def test_with_edge_matches_networkx(self, small_topo):
        dist = mesh_distances(small_topo)
        updated = with_edge(dist, 0, 24)
        g = nx.DiGraph(
            (r, n) for r, adj in enumerate(small_topo.adjacency) for _, n in adj
        )
        g.add_edge(0, 24)
        lengths = dict(nx.all_pairs_shortest_path_length(g))
        n = small_topo.params.num_routers
        for a in range(n):
            for b in range(n):
                assert updated[a, b] == lengths[a][b]

    def test_inplace_matches_functional(self, small_topo):
        dist = mesh_distances(small_topo)
        expected = with_edge(dist, 3, 20)
        add_edge_inplace(dist, 3, 20)
        assert (dist == expected).all()

    def test_cost_after_edge_consistent(self, small_topo):
        dist = mesh_distances(small_topo)
        assert cost_after_edge(dist, 0, 24) == pytest.approx(
            total_cost(with_edge(dist, 0, 24))
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 24), st.integers(0, 24))
    def test_edge_never_increases_cost(self, i, j):
        small = MeshTopology(
            MeshParams(width=5, height=5, num_cores=13, num_caches=8, num_memports=4)
        )
        dist = mesh_distances(small)
        if i == j:
            return
        assert cost_after_edge(dist, i, j) <= total_cost(dist)


class TestConstraints:
    def test_budget_respected(self, topo):
        shortcuts = select_architecture_shortcuts(topo, SelectionConfig(budget=7))
        assert len(shortcuts) == 7

    def test_port_limits(self, topo):
        shortcuts = select_architecture_shortcuts(topo, SelectionConfig(budget=16))
        sources = [s.src for s in shortcuts]
        dests = [s.dst for s in shortcuts]
        assert len(set(sources)) == len(sources)
        assert len(set(dests)) == len(dests)

    def test_corners_excluded(self, topo):
        shortcuts = select_architecture_shortcuts(topo, SelectionConfig(budget=16))
        corners = {0, 9, 90, 99}
        for sc in shortcuts:
            assert sc.src not in corners
            assert sc.dst not in corners

    def test_allowed_set_respected(self, topo):
        rf = set(topo.rf_enabled_routers(25))
        config = SelectionConfig(budget=10, allowed=rf)
        freq = np.ones((100, 100)) - np.eye(100)
        shortcuts = select_application_shortcuts(topo, freq, config)
        for sc in shortcuts:
            assert sc.src in rf
            assert sc.dst in rf

    def test_extra_forbidden(self, topo):
        config = SelectionConfig(budget=16, extra_forbidden={55})
        shortcuts = select_architecture_shortcuts(topo, config)
        for sc in shortcuts:
            assert 55 not in (sc.src, sc.dst)

    def test_budget_larger_than_feasible(self, small_topo):
        # 25 routers minus 4 corners leaves 21 candidates; each can source
        # at most one shortcut so the run stops early without error.
        shortcuts = select_architecture_shortcuts(
            small_topo, SelectionConfig(budget=100)
        )
        assert 0 < len(shortcuts) <= 21


class TestQuality:
    def test_greedy_improves_average_distance(self, topo):
        base = RoutingTables(topo).average_distance()
        shortcuts = select_architecture_shortcuts(topo, SelectionConfig(budget=16))
        assert RoutingTables(topo, shortcuts).average_distance() < base * 0.85

    def test_permutation_at_least_as_good_in_cost(self, small_topo):
        cfg = SelectionConfig(budget=6)
        for method in ("greedy", "permutation"):
            pass
        greedy = select_architecture_shortcuts(small_topo, cfg, "greedy")
        perm = select_architecture_shortcuts(small_topo, cfg, "permutation")

        def final_cost(shortcuts):
            dist = mesh_distances(small_topo)
            for sc in shortcuts:
                add_edge_inplace(dist, sc.src, sc.dst)
            return total_cost(dist)

        # The paper found the heuristics comparable; permutation optimizes
        # the objective directly so it must not be (meaningfully) worse.
        assert final_cost(perm) <= final_cost(greedy) * 1.02

    def test_first_greedy_edge_is_max_distance(self, topo):
        selector = ShortcutSelector(topo, SelectionConfig(budget=1))
        sc = selector.add_greedy_edge()
        # Distances 18 and 17 are only achievable with a corner endpoint,
        # and corners are excluded — so the max eligible distance is 16.
        assert topo.manhattan(sc.src, sc.dst) == 16

    def test_weighted_selection_targets_hot_pairs(self, topo):
        n = topo.params.num_routers
        freq = np.ones((n, n)) - np.eye(n)
        hot_src, hot_dst = topo.router_id(1, 1), topo.router_id(8, 8)
        freq[hot_src, hot_dst] = 1e6
        shortcuts = select_application_shortcuts(
            topo, freq, SelectionConfig(budget=1)
        )
        assert shortcuts[0].src == hot_src
        assert shortcuts[0].dst == hot_dst


class TestRegions:
    def test_region_geometry(self, topo):
        origins = region_origins(topo)
        assert len(origins) == 64  # (10-3+1)^2
        members = region_members(topo, (0, 0))
        assert len(members) == 9
        assert topo.router_id(1, 1) in members

    def test_overlap_detection(self):
        assert regions_overlap((0, 0), (2, 2))
        assert not regions_overlap((0, 0), (3, 0))
        assert not regions_overlap((0, 0), (0, 3))

    def test_region_selection_clusters_near_hotspot(self, topo):
        pattern = all_patterns(topo)["1Hotspot"]
        profile = ProbabilisticTraffic(topo, pattern, 0.05, seed=3).collect_profile(
            10_000
        )
        rf = set(topo.rf_enabled_routers(50))
        plain = select_application_shortcuts(
            topo, profile, SelectionConfig(budget=16, allowed=set(rf))
        )
        region = select_region_shortcuts(
            topo, profile, SelectionConfig(budget=16, allowed=set(rf))
        )
        hot = hotspot_routers(topo, 1)[0]

        def near_hot(shortcuts, radius=2):
            return sum(
                1
                for sc in shortcuts
                if min(topo.manhattan(sc.src, hot), topo.manhattan(sc.dst, hot))
                <= radius
            )

        assert near_hot(region) > near_hot(plain)

    def test_region_selection_respects_constraints(self, topo):
        pattern = all_patterns(topo)["2Hotspot"]
        profile = ProbabilisticTraffic(topo, pattern, 0.05, seed=4).collect_profile(
            5_000
        )
        shortcuts = select_region_shortcuts(
            topo, profile, SelectionConfig(budget=16)
        )
        assert len(shortcuts) == 16
        assert len({s.src for s in shortcuts}) == 16
        assert len({s.dst for s in shortcuts}) == 16

    def test_frequency_shape_checked(self, topo):
        with pytest.raises(ValueError):
            select_application_shortcuts(topo, np.ones((5, 5)))
