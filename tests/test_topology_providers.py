"""Topology-provider layer: registry, providers, digests, golden parity.

The golden oracle (``tests/data/mesh_golden.json``) was captured on the
pre-refactor implementation, where the 10x10 mesh was hardcoded into
params, routing, the kernels, and the visualizer.  The refactor's
contract has three legs, all verified here:

1. **Bit identity on the mesh** — the mesh provider must reproduce every
   oracle :meth:`NetworkStats.digest` across the full kernel
   differential matrix (both kernels x unicast/faults/multicast).
2. **Warm cache survives** — mesh job digests are unchanged from the
   oracle, so every pre-refactor result-store entry keeps its address;
   non-mesh providers *must* fork the digest (they simulate a different
   network).
3. **New substrates are safe** — the concentrated mesh and torus
   providers pass the escape-CDG acyclicity proof (the torus through the
   BFS spanning-tree escape, since wraparound makes dimension-ordered
   routing cyclic) and run end-to-end: simulate, sweep, faults.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.exec.jobs import JobSpec, SpecError, job_digest, sweep_grid
from repro.experiments import FAST_CONFIG, ExperimentRunner
from repro.experiments.config import DEFAULT_CONFIG
from repro.noc.routing import RoutingTables, Shortcut
from repro.noc.topology import (
    DEFAULT_TOPOLOGY,
    TOPOLOGIES,
    TOPOLOGY_CAPABILITIES,
    ConcentratedMeshTopology,
    MeshTopology,
    NodeKind,
    Port,
    TopologyCapabilityError,
    TopologySpec,
    TorusTopology,
    build_topology,
    list_topologies,
    register,
    require_topology_capabilities,
    resolve_topology,
    topology_capabilities,
    unregister,
)
from repro.params import DEFAULT_PARAMS, SimulationParams, TopologyParams

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "mesh_golden.json").read_text()
)

KERNEL_NAMES = ("reference", "batch")

#: The oracle was captured with exactly these windows (see the golden
#: file's ``sim`` block); any drift here invalidates the comparison.
SIM = SimulationParams(warmup_cycles=50, measure_cycles=300,
                       drain_cycles=2_000)

FAULTS = GOLDEN["faults"]

#: Small, fast windows for the non-mesh end-to-end runs (no oracle to
#: match there, so the windows only need to exercise the machinery).
SMALL_SIM = SimulationParams(warmup_cycles=50, measure_cycles=200,
                             drain_cycles=1_500)


def _config(kernel: str = "batch", sim: SimulationParams = SIM):
    return dataclasses.replace(
        FAST_CONFIG,
        sim=dataclasses.replace(sim, kernel=kernel),
        profile_cycles=2_000,
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_first_party_rows(self):
        assert DEFAULT_TOPOLOGY == "mesh"
        assert isinstance(TOPOLOGIES["mesh"], TopologySpec)
        assert TOPOLOGIES["mesh"].factory is MeshTopology
        assert TOPOLOGIES["cmesh"].factory is ConcentratedMeshTopology
        assert TOPOLOGIES["torus"].factory is TorusTopology
        # All three first-party providers declare the full flag set.
        for name in ("mesh", "cmesh", "torus"):
            assert topology_capabilities(name) == TOPOLOGY_CAPABILITIES
        # Default provider listed first, the rest alphabetically.
        rows = list_topologies()
        assert [row["name"] for row in rows] == ["mesh", "cmesh", "torus"]
        assert rows[0]["default"] is True
        assert all(row["summary"] for row in rows)

    def test_resolve_precedence(self):
        assert resolve_topology("torus", "cmesh") == "torus"
        assert resolve_topology(None, "cmesh") == "cmesh"
        assert resolve_topology(None, None) == DEFAULT_TOPOLOGY
        with pytest.raises(KeyError, match="hypercube"):
            resolve_topology("hypercube", None)

    def test_build_topology_funnel(self):
        params = TopologyParams()
        assert isinstance(build_topology(params), MeshTopology)
        assert isinstance(build_topology(params, provider="torus"),
                          TorusTopology)
        torus_params = TopologyParams(provider="torus")
        assert isinstance(build_topology(torus_params), TorusTopology)
        # An explicit request beats the params provider.
        assert isinstance(build_topology(torus_params, provider="mesh"),
                          MeshTopology)

    def test_capability_gate_names_alternatives(self):
        class BareTopology(MeshTopology):
            name = "bare"

        register("bare", BareTopology, capabilities={"overlay"})
        try:
            with pytest.raises(TopologyCapabilityError) as exc:
                require_topology_capabilities("bare", {"multicast"})
            msg = str(exc.value)
            assert "bare" in msg and "multicast" in msg and "mesh" in msg
            spec = require_topology_capabilities("bare", {"overlay"})
            assert spec.name == "bare"
        finally:
            unregister("bare")


# ---------------------------------------------------------------------------
# provider structure
# ---------------------------------------------------------------------------

class TestTorusProvider:
    def test_wrap_neighbors(self):
        topo = TorusTopology(TopologyParams())
        # Corner router 0 has all four neighbors via wraparound.
        n = topo.neighbors(0)
        assert n[Port.WEST] == topo.router_id(topo.width - 1, 0)
        assert n[Port.SOUTH] == topo.router_id(0, topo.height - 1)
        assert n[Port.EAST] == topo.router_id(1, 0)
        assert n[Port.NORTH] == topo.router_id(0, 1)

    def test_wrap_distance_and_min_port(self):
        topo = TorusTopology(TopologyParams())
        w, h = topo.width, topo.height
        # Opposite corners are 2 hops around the wrap, not 18 across.
        far = topo.router_id(w - 1, h - 1)
        assert topo.manhattan(0, far) == 2
        dist = topo.distance_matrix()
        assert dist[0, far] == 2
        # Walking min_port from every source terminates in exactly the
        # wrap-aware Manhattan distance (minimality + termination).
        rng_pairs = [(0, far), (5, 55), (99, 0), (23, 77)]
        for src, dst in rng_pairs:
            cur, hops = src, 0
            while cur != dst:
                port = topo.min_port(cur, dst)
                assert port != Port.LOCAL
                cur = topo.neighbors(cur)[port]
                hops += 1
                assert hops <= topo.manhattan(src, dst)
            assert hops == topo.manhattan(src, dst)

    def test_tree_escape_and_acyclicity_proof(self):
        topo = TorusTopology(TopologyParams())
        assert not topo.minimal_escape_deadlock_free
        # Wraparound rings make dimension order cyclic, so construction
        # must fall back to the BFS spanning-tree escape and prove it.
        tables = RoutingTables(topo, ())
        tables.validate_escape()


class TestConcentratedMeshProvider:
    def test_collapse_geometry(self):
        topo = ConcentratedMeshTopology(TopologyParams())
        assert (topo.width, topo.height) == (5, 5)
        assert topo.num_routers == 25
        # Concentration preserves die size: fewer, farther-apart routers.
        assert topo.router_spacing_mm == pytest.approx(
            2 * MeshTopology(TopologyParams()).router_spacing_mm)

    def test_kind_precedence_over_tiles(self):
        logical = MeshTopology(TopologyParams())
        topo = ConcentratedMeshTopology(TopologyParams())
        c = topo.params.concentration
        # Each router adopts the rarest kind in its c x c logical tile
        # (MEMORY > CACHE > CORE), so all 4 memports survive collapse.
        assert len(topo.memports) == len(logical.memports)
        assert len(topo.caches) > 0
        for router in topo.memports:
            x, y = topo.coord(router)
            tile = {
                logical.kind(logical.router_id(x * c + dx, y * c + dy))
                for dx in range(c) for dy in range(c)
            }
            assert NodeKind.MEMORY in tile

    def test_concentration_must_divide(self):
        with pytest.raises(ValueError, match="must divide"):
            ConcentratedMeshTopology(TopologyParams(concentration=3))

    def test_express_tier_routes(self):
        topo = ConcentratedMeshTopology(TopologyParams())
        pairs = topo.express_pairs()
        assert len(pairs) == 4
        assert len({src for src, _ in pairs}) == 4  # one outbound per hub
        tables = RoutingTables(topo, [Shortcut(a, b) for a, b in pairs])
        tables.validate_escape()
        base = topo.distance_matrix()
        hub_src, hub_dst = pairs[0]
        assert tables.distance(hub_src, hub_dst) <= base[hub_src, hub_dst]

    def test_escape_proof(self):
        topo = ConcentratedMeshTopology(TopologyParams())
        assert topo.minimal_escape_deadlock_free
        RoutingTables(topo, ()).validate_escape()

    def test_rf_count_clamps_to_router_budget(self):
        topo = ConcentratedMeshTopology(TopologyParams())
        # The config default of 50 access points exceeds the 25 routers;
        # the cmesh provider clamps instead of refusing.
        assert len(topo.rf_enabled_routers(50)) == 25


class TestProviderGraphs:
    @pytest.mark.parametrize("name", ["mesh", "cmesh", "torus"])
    def test_distance_matrix_matches_bfs(self, name):
        topo = build_topology(TopologyParams(), provider=name)
        dist = topo.distance_matrix()
        # Symmetric, zero diagonal, connected.
        assert (dist == dist.T).all()
        assert (np.diag(dist) == 0).all()
        assert dist.max() < topo.num_routers

    @pytest.mark.parametrize("name", ["mesh", "cmesh", "torus"])
    def test_neighbor_links_are_bidirectional(self, name):
        topo = build_topology(TopologyParams(), provider=name)
        for router in range(topo.num_routers):
            for port, other in topo.neighbors(router).items():
                back = topo.neighbors(other)
                assert router in back.values()
                assert topo.opposite_port(port) in back


# ---------------------------------------------------------------------------
# golden parity: stats digests (leg 1)
# ---------------------------------------------------------------------------

def _matrix_digest(kernel, kind, style, workload=None, *, adaptive=False,
                   faults=None, realization=None, locality=50):
    runner = ExperimentRunner(_config(kernel))
    if kind == "unicast":
        design = runner.design(style, 16, workload=workload,
                               adaptive_routing=adaptive)
        result = runner.run_unicast(design, workload, faults=faults)
    else:
        design = runner.design(style, 16, workload="uniform")
        result = runner.run_multicast(design, realization, locality)
    assert result.stats is not None
    return result.stats.digest()


MATRIX = {
    "unicast/baseline/uniform": ("unicast", "baseline", "uniform", {}),
    "unicast/static/1Hotspot": ("unicast", "static", "1Hotspot", {}),
    "unicast/wire/hotBiDF": ("unicast", "wire", "hotBiDF", {}),
    "unicast/adaptive/uniform": ("unicast", "adaptive", "uniform",
                                 {"adaptive": True}),
    "faults/static/uniform": ("unicast", "static", "uniform",
                              {"faults": FAULTS}),
    "multicast/adaptive+mc/rf": ("multicast", "adaptive+mc", None,
                                 {"realization": "rf"}),
    "multicast/static/vct": ("multicast", "static", None,
                             {"realization": "vct"}),
    "multicast/baseline/unicast": ("multicast", "baseline", None,
                                   {"realization": "unicast"}),
}


@pytest.mark.parametrize("scenario", sorted(MATRIX))
@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_mesh_provider_matches_pre_refactor_oracle(scenario, kernel):
    kind, style, workload, kw = MATRIX[scenario]
    digest = _matrix_digest(kernel, kind, style, workload, **kw)
    assert digest == GOLDEN["stats_digests"][scenario], (
        f"{scenario} on kernel {kernel!r} diverged from the pre-refactor "
        "mesh oracle")


# ---------------------------------------------------------------------------
# golden parity: job digests (leg 2)
# ---------------------------------------------------------------------------

GOLDEN_JOB_SPECS = {
    "unicast-default": JobSpec(),
    "unicast-static-8B-seed7": JobSpec(style="static", link_bytes=8,
                                       workload="biDF", seed=7),
    "unicast-adaptive-routing": JobSpec(style="adaptive",
                                        workload="1Hotspot",
                                        adaptive_routing=True),
    "unicast-faulted": JobSpec(style="static",
                               extra=(("faults", "link:30-31"),)),
    "multicast-rf-50": JobSpec(kind="multicast", style="adaptive+mc",
                               workload="multicast-50", realization="rf",
                               locality_percent=50),
    "probe": JobSpec(kind="probe", workload="uniform", rate=0.02,
                     extra=(("sim", "400/2500/12000"),)),
    "stats-ablation": JobSpec(kind="stats", style="tag",
                              extra=(("a", "1"), ("b", "2"))),
}


class TestDigestSemantics:
    @pytest.mark.parametrize("cfg_name,cfg", [
        ("default", DEFAULT_CONFIG), ("fast", FAST_CONFIG),
    ])
    @pytest.mark.parametrize("spec_name", sorted(GOLDEN_JOB_SPECS))
    def test_mesh_job_digests_unchanged(self, cfg_name, cfg, spec_name):
        # The warm result cache survives the refactor: every mesh job
        # keeps its pre-provider-layer store address.
        digest = job_digest(GOLDEN_JOB_SPECS[spec_name], cfg, DEFAULT_PARAMS)
        assert digest == GOLDEN["job_digests"][f"{cfg_name}/{spec_name}"]

    def test_explicit_mesh_params_share_the_address(self):
        spec = JobSpec()
        explicit = DEFAULT_PARAMS.with_topology(provider="mesh")
        assert (job_digest(spec, FAST_CONFIG, explicit)
                == GOLDEN["job_digests"]["fast/unicast-default"])
        # The concentration knob is inert on the mesh provider, so it
        # must not fork mesh addresses either.
        knobbed = DEFAULT_PARAMS.with_topology(concentration=4)
        assert (job_digest(spec, FAST_CONFIG, knobbed)
                == GOLDEN["job_digests"]["fast/unicast-default"])

    def test_non_mesh_topologies_fork_the_digest(self):
        spec = JobSpec()
        mesh = job_digest(spec, FAST_CONFIG, DEFAULT_PARAMS)
        via_extra = job_digest(
            dataclasses.replace(spec, extra=(("topology", "torus"),)),
            FAST_CONFIG, DEFAULT_PARAMS)
        via_params = job_digest(
            spec, FAST_CONFIG, DEFAULT_PARAMS.with_topology(provider="torus"))
        cmesh = job_digest(
            dataclasses.replace(spec, extra=(("topology", "cmesh"),)),
            FAST_CONFIG, DEFAULT_PARAMS)
        assert len({mesh, via_extra, via_params, cmesh}) == 4
        # The concentration knob is live once the provider is cmesh.
        assert (job_digest(
            spec, FAST_CONFIG,
            DEFAULT_PARAMS.with_topology(provider="cmesh")
        ) != job_digest(
            spec, FAST_CONFIG,
            DEFAULT_PARAMS.with_topology(provider="cmesh", concentration=5)
        ))

    def test_sweep_grid_drops_default_mesh_request(self):
        plain = sweep_grid(["static"], [16], ["uniform"])
        explicit = sweep_grid(["static"], [16], ["uniform"],
                              topology="mesh")
        assert plain == explicit
        torus = sweep_grid(["static"], [16], ["uniform"], topology="torus")
        assert dict(torus[0].extra)["topology"] == "torus"
        with pytest.raises(SpecError, match="unknown topology 'hypercube'"):
            sweep_grid(["static"], [16], ["uniform"], topology="hypercube")


# ---------------------------------------------------------------------------
# end-to-end on the new substrates (leg 3)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_runner():
    return ExperimentRunner(_config("batch", SMALL_SIM))


@pytest.mark.parametrize("name", ["cmesh", "torus"])
class TestNonMeshEndToEnd:
    def test_simulate_and_faults(self, small_runner, name):
        runner = small_runner
        design = runner.design("static", 16, topology=name)
        assert design.topology.name == name
        design.tables.validate_escape()
        clean = runner.run_unicast(design, "uniform")
        assert clean.stats.delivered_packets > 0
        assert clean.stats.delivery_ratio > 0.9
        faulted = runner.run_unicast(design, "uniform",
                                     faults="link:1-2@20-140")
        assert faulted.stats.delivered_packets > 0
        assert faulted.stats.digest() != clean.stats.digest()

    def test_overlay_and_multicast(self, small_runner, name):
        runner = small_runner
        design = runner.design("adaptive+mc", 16, workload="uniform",
                               topology=name)
        assert len(design.tables.shortcuts) > 0
        result = runner.run_multicast(design, "rf", 50)
        assert result.stats.delivered_packets > 0

    def test_api_adaptive_overlay_delivers(self, name):
        import repro

        result = repro.simulate("adaptive", "uniform", fast=True,
                                metrics=False, topology=name)
        assert result.stats.delivery_ratio > 0.9

    def test_sweep_addresses_and_runs(self, name, tmp_path):
        from repro.exec import ResultStore, run_sweep

        specs = sweep_grid(["baseline"], [16], ["uniform"], topology=name)
        store = ResultStore(tmp_path / "cache")
        config = _config("batch", SMALL_SIM)
        report = run_sweep(specs, config=config, store=store)
        assert report.outcomes[0].result.stats.delivered_packets > 0
        assert not report.outcomes[0].cached
        # Same grid again: answered warm from the forked address.
        warm = run_sweep(specs, config=config, store=store)
        assert warm.outcomes[0].cached
        assert warm.outcomes[0].digest == report.outcomes[0].digest
        mesh_digest = job_digest(
            sweep_grid(["baseline"], [16], ["uniform"])[0],
            config, DEFAULT_PARAMS)
        assert report.outcomes[0].digest != mesh_digest


def test_runner_results_identical_via_request_or_params(tmp_path):
    # Asking for the torus per-job (extra) and ambiently (params) must
    # simulate the same network, even though the digests differ.
    config = _config("batch", SMALL_SIM)
    by_request = ExperimentRunner(config)
    design_r = by_request.design("baseline", 16, topology="torus")
    stats_r = by_request.run_unicast(design_r, "uniform").stats.digest()
    by_params = ExperimentRunner(
        config, DEFAULT_PARAMS.with_topology(provider="torus"))
    design_p = by_params.design("baseline", 16)
    stats_p = by_params.run_unicast(design_p, "uniform").stats.digest()
    assert stats_r == stats_p


def test_mesh_design_unaffected_by_other_topology_requests():
    # Building a torus design on a runner must not perturb the default
    # mesh design or its memoization.
    runner = ExperimentRunner(_config("batch", SMALL_SIM))
    mesh_first = runner.design("static", 16)
    runner.design("static", 16, topology="torus")
    assert runner.design("static", 16) is mesh_first
    assert runner.design("static", 16).topology.name == "mesh"
