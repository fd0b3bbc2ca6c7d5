"""Tests for the central parameter dataclasses."""

import pytest

from repro.params import (
    DEFAULT_PARAMS, ArchitectureParams, MeshParams, MessageParams,
    RFIParams, RouterParams, SimulationParams, TechnologyParams,
)


class TestMeshParams:
    def test_defaults_match_paper(self):
        p = MeshParams()
        assert p.num_routers == 100
        assert p.num_cores + p.num_caches + p.num_memports == 100
        assert p.network_ghz == 2.0
        assert p.core_ghz == 4.0
        assert p.router_spacing_mm == pytest.approx(2.0)

    def test_scaled_copy(self):
        p = MeshParams().scaled(link_bytes=4)
        assert p.link_bytes == 4
        assert MeshParams().link_bytes == 16  # original untouched

    def test_frozen(self):
        with pytest.raises(Exception):
            MeshParams().width = 5  # type: ignore[misc]


class TestRouterParams:
    def test_pipeline_depths(self):
        p = RouterParams()
        assert p.pipeline_head_cycles == 5
        assert p.pipeline_body_cycles == 3
        assert p.total_vcs == p.num_vcs + p.num_escape_vcs


class TestRFIParams:
    def test_paper_constants(self):
        p = RFIParams()
        assert p.num_lines == 43
        assert p.shortcut_budget == 16
        assert p.energy_pj_per_bit == 0.75
        assert p.area_um2_per_gbps == 124.0

    def test_budget_scales_with_aggregate(self):
        import dataclasses

        half = dataclasses.replace(RFIParams(), aggregate_bytes_per_cycle=128)
        assert half.shortcut_budget == 8


class TestArchitectureParams:
    def test_with_link_bytes(self):
        p = ArchitectureParams().with_link_bytes(8)
        assert p.mesh.link_bytes == 8
        assert p.router == ArchitectureParams().router

    def test_with_topology(self):
        p = ArchitectureParams().with_topology(width=4, height=4, num_cores=8,
                                               num_caches=4, num_memports=4)
        assert p.mesh.num_routers == 16

    def test_with_topology_provider(self):
        p = ArchitectureParams().with_topology(provider="torus")
        assert p.mesh.provider == "torus"
        assert p.topology is p.mesh

    def test_default_instance(self):
        assert DEFAULT_PARAMS.mesh.width == 10
        assert DEFAULT_PARAMS.message == MessageParams()
        assert DEFAULT_PARAMS.technology == TechnologyParams()
        assert DEFAULT_PARAMS.simulation == SimulationParams()
