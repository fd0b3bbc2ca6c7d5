"""Tests for the fault-injection and graceful-degradation subsystem."""

import random

import pytest

from repro.exec.jobs import sweep_grid
from repro.exec.serialize import decode_stats, encode_stats
from repro.experiments import FAST_CONFIG, ExperimentRunner
from repro.faults import (
    Fault, FaultPartitionError, FaultSchedule, as_schedule, degraded_design,
    kill_bands, mesh_faults, mtbf_schedule, remap_bands, usable_band_count,
    validate_schedule,
)
from repro.noc import DisconnectedMeshError, MeshTopology, RoutingTables
from repro.noc.routing import EJECT
from repro.noc.topology import PORT_STEP, Port
from repro.params import DEFAULT_PARAMS, MeshParams


@pytest.fixture(scope="module")
def topo():
    return MeshTopology(MeshParams())


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(FAST_CONFIG)


def walk(topo, tables, src, dst, limit=200):
    """Follow next-hop ports from src until ejection; return hop count."""
    cur, hops = src, 0
    while hops < limit:
        port = tables.port_for(cur, dst)
        if port == EJECT:
            return hops
        if port == int(Port.RF):
            cur = tables.rf_destination(cur)
            assert cur is not None
        else:
            dx, dy = PORT_STEP[Port(port)]
            x, y = topo.coord(cur)
            cur = topo.router_id(x + dx, y + dy)
        hops += 1
    raise AssertionError(f"routing loop {src}->{dst}")


# ---------------------------------------------------------------------------
# fault model
# ---------------------------------------------------------------------------

class TestFaultModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            Fault("gamma-ray", (3,))
        with pytest.raises(ValueError):
            Fault("band", (3, 4))          # wrong arity
        with pytest.raises(ValueError):
            Fault("link", (5,))            # links need two routers
        with pytest.raises(ValueError):
            Fault("link", (5, 5))          # distinct routers
        with pytest.raises(ValueError):
            Fault("band", (3,), start=-1)
        with pytest.raises(ValueError):
            Fault("band", (3,), start=100, end=100)  # empty window

    def test_structural_vs_runtime(self):
        assert Fault("band", (3,)).structural
        assert not Fault("band", (3,), start=10).structural
        assert not Fault("band", (3,), end=500).structural
        fault = Fault("link", (12, 13), start=100, end=500)
        assert not fault.active(99)
        assert fault.active(100) and fault.active(499)
        assert not fault.active(500)

    def test_canonical_round_trip(self):
        spec = "band:3;line:7@2000;link:12-13@100-500;router:45"
        schedule = FaultSchedule.parse(spec)
        assert FaultSchedule.parse(schedule.canonical()) == schedule
        assert schedule.canonical() == spec

    def test_schedule_dedups_and_sorts(self):
        a = Fault("band", (3,))
        b = Fault("band", (1,))
        schedule = FaultSchedule.of([a, b, a])
        assert schedule.faults == (b, a)
        assert hash(schedule) == hash(FaultSchedule.of([b, a]))
        assert schedule.digest() == FaultSchedule.of([b, a]).digest()

    def test_views_and_events(self):
        schedule = FaultSchedule.parse("band:0;link:12-13@100-500;router:7")
        assert len(schedule.structural()) == 2
        assert len(schedule.runtime()) == 1
        assert schedule.of_kind("band") == (Fault("band", (0,)),)
        assert schedule.event_cycles() == [0, 100, 500]

    def test_mtbf_deterministic(self):
        components = [("band", (i,)) for i in range(8)]
        one = mtbf_schedule(components, mtbf=5e4, repair=5e3,
                            horizon=12_000, seed=1)
        two = mtbf_schedule(components, mtbf=5e4, repair=5e3,
                            horizon=12_000, seed=1)
        other = mtbf_schedule(components, mtbf=5e4, repair=5e3,
                              horizon=12_000, seed=2)
        assert one == two and one.digest() == two.digest()
        assert one != other

    def test_mtbf_spec_parses(self):
        schedule = FaultSchedule.parse(
            "mtbf:bands=4,mtbf=20000,repair=2000,horizon=40000,seed=3"
        )
        assert schedule == mtbf_schedule(
            [("band", (i,)) for i in range(4)],
            mtbf=20_000, repair=2_000, horizon=40_000, seed=3,
        )
        with pytest.raises(ValueError):
            FaultSchedule.parse("mtbf:bands=4,seed=3")  # missing mtbf/horizon

    def test_kill_bands_nests(self):
        small = {f.target[0] for f in kill_bands(4, num_bands=16, seed=7)}
        large = {f.target[0] for f in kill_bands(8, num_bands=16, seed=7)}
        assert small < large
        assert len(kill_bands(16, num_bands=16, seed=7)) == 16
        assert not kill_bands(0, num_bands=16, seed=7)

    def test_as_schedule(self):
        assert as_schedule(None) is None
        assert as_schedule("") is None
        assert as_schedule(FaultSchedule()) is None
        schedule = FaultSchedule.parse("band:0")
        assert as_schedule(schedule) is schedule
        assert as_schedule("band:0") == schedule
        with pytest.raises(TypeError):
            as_schedule(42)


# ---------------------------------------------------------------------------
# degradation machinery
# ---------------------------------------------------------------------------

class TestDegrade:
    def test_usable_band_count(self):
        rfi = DEFAULT_PARAMS.rfi
        assert usable_band_count(16, 0, rfi) == 16
        assert usable_band_count(16, rfi.num_lines, rfi) == 0
        # One dead line sheds at most one 256 Gbps channel (96 Gbps lines).
        assert usable_band_count(16, 1, rfi) in (15, 16)
        assert usable_band_count(16, 6, rfi) < 16

    def test_remap_band_fault(self, runner):
        shortcuts = runner.design("static", 16).tables.shortcuts
        survivors = remap_bands(shortcuts, [Fault("band", (0,))],
                                DEFAULT_PARAMS.rfi)
        assert len(survivors) == len(shortcuts) - 1
        assert shortcuts[0] not in survivors
        assert survivors == list(shortcuts[1:])  # order preserved

    def test_remap_dead_router(self, runner):
        shortcuts = runner.design("static", 16).tables.shortcuts
        victim = shortcuts[3].src
        survivors = remap_bands(shortcuts, [], DEFAULT_PARAMS.rfi,
                                dead_routers=frozenset({victim}))
        assert all(victim not in (sc.src, sc.dst) for sc in survivors)

    def test_remap_line_shedding(self, runner):
        shortcuts = runner.design("static", 16).tables.shortcuts
        faults = [Fault("line", (i,)) for i in range(20)]
        survivors = remap_bands(shortcuts, faults, DEFAULT_PARAMS.rfi)
        expected = usable_band_count(16, 20, DEFAULT_PARAMS.rfi)
        assert len(survivors) == expected < len(shortcuts)
        assert survivors == list(shortcuts[:expected])  # shed from high end

    def test_remap_range_checks(self):
        rfi = DEFAULT_PARAMS.rfi
        with pytest.raises(ValueError):
            remap_bands([], [Fault("band", (99,))], rfi)
        with pytest.raises(ValueError):
            remap_bands([], [Fault("line", (999,))], rfi)

    def test_mesh_faults_validation(self, topo):
        links, routers = mesh_faults(
            topo, FaultSchedule.parse("link:1-0;router:7")
        )
        assert links == frozenset({(0, 1)})  # normalized order
        assert routers == frozenset({7})
        with pytest.raises(ValueError):
            mesh_faults(topo, [Fault("link", (0, 5))])   # not adjacent
        with pytest.raises(ValueError):
            mesh_faults(topo, [Fault("router", (999,))])

    def test_partition_refused(self, topo):
        # Cutting both links of corner router 0 strands it.
        schedule = FaultSchedule.parse("link:0-1;link:0-10")
        with pytest.raises(FaultPartitionError):
            validate_schedule(topo, schedule)
        # Even when the cut is only transient.
        transient = FaultSchedule.parse("link:0-1@100-200;link:0-10@100-200")
        with pytest.raises(FaultPartitionError):
            validate_schedule(topo, transient)
        validate_schedule(topo, FaultSchedule.parse("link:0-1;band:3"))

    def test_degraded_design_identity_and_rebuild(self, runner):
        design = runner.design("static", 16)
        assert degraded_design(design, FaultSchedule()) is design
        schedule = FaultSchedule.parse("band:0")
        degraded = degraded_design(design, schedule)
        assert degraded.name.startswith(design.name + "+f")
        assert len(degraded.tables.shortcuts) == 15
        assert degraded.faults == schedule

    def test_all_bands_dead_is_bare_mesh(self, runner):
        design = runner.design("static", 16)
        baseline = runner.design("baseline", 16)
        degraded = degraded_design(design, kill_bands(16, num_bands=16, seed=7))
        assert not degraded.tables.shortcuts
        assert degraded.tables._port == baseline.tables._port


# ---------------------------------------------------------------------------
# fault-aware routing tables
# ---------------------------------------------------------------------------

class TestFaultTables:
    def test_zero_fault_parity(self, topo):
        from repro.noc.routing import xy_port

        tables = RoutingTables(topo)
        rng = random.Random(0)
        for _ in range(50):
            src, dst = rng.sample(range(100), 2)
            assert tables.mesh_port_for(src, dst) == xy_port(topo, src, dst)
            assert tables.escape_port_for(src, dst) == xy_port(topo, src, dst)

    def test_failed_link_avoided(self, topo):
        tables = RoutingTables(topo, (), failed_links=[(44, 45)])
        assert tables.faulted and not tables.link_alive(44, 45)
        rng = random.Random(1)
        for _ in range(40):
            src, dst = rng.sample(range(100), 2)
            walk(topo, tables, src, dst)

    def test_failed_router_excluded(self, topo):
        tables = RoutingTables(topo, (), failed_routers=[55])
        assert 55 not in tables.alive_routers
        rng = random.Random(2)
        alive = list(tables.alive_routers)
        for _ in range(40):
            src, dst = rng.sample(alive, 2)
            walk(topo, tables, src, dst)

    def test_partition_raises(self, topo):
        with pytest.raises(DisconnectedMeshError):
            RoutingTables(topo, (), failed_links=[(0, 1), (0, 10)])

    def test_shortcut_on_dead_router_rejected(self, runner, topo):
        shortcuts = runner.design("static", 16).tables.shortcuts
        victim = shortcuts[0].src
        with pytest.raises(ValueError):
            RoutingTables(topo, shortcuts, failed_routers=[victim])

    def test_escape_validates_under_faults(self, topo):
        tables = RoutingTables(
            topo, (), failed_links=[(44, 45), (12, 22)], failed_routers=[77],
        )
        rng = random.Random(3)
        alive = list(tables.alive_routers)
        for _ in range(30):
            src, dst = rng.sample(alive, 2)
            cur, hops = src, 0
            while cur != dst:
                port = tables.escape_port_for(cur, dst)
                dx, dy = PORT_STEP[Port(port)]
                x, y = topo.coord(cur)
                cur = topo.router_id(x + dx, y + dy)
                hops += 1
                assert hops <= 100, "escape walk did not terminate"


class TestFaultProperties:
    """Property-style invariants under seeded random removals."""

    def test_any_shortcut_subset_stays_connected(self, runner, topo):
        shortcuts = list(runner.design("static", 16).tables.shortcuts)
        for seed in range(10):
            rng = random.Random(seed)
            keep = rng.sample(shortcuts, rng.randrange(len(shortcuts) + 1))
            tables = RoutingTables(topo, keep)  # must not raise
            src, dst = rng.sample(range(100), 2)
            walk(topo, tables, src, dst)

    def test_port_for_terminates_under_link_faults(self, topo):
        edges = [
            (a, b)
            for a in range(100)
            for b in topo.neighbors(a).values()
            if a < b
        ]
        for seed in range(10):
            rng = random.Random(seed)
            failed = rng.sample(edges, 6)
            try:
                tables = RoutingTables(topo, (), failed_links=failed)
            except DisconnectedMeshError:
                continue  # refusal is the other acceptable outcome
            for _ in range(25):
                src, dst = rng.sample(range(100), 2)
                walk(topo, tables, src, dst)
                # The escape network must terminate independently too.
                cur, hops = src, 0
                while cur != dst:
                    port = tables.escape_port_for(cur, dst)
                    dx, dy = PORT_STEP[Port(port)]
                    x, y = topo.coord(cur)
                    cur = topo.router_id(x + dx, y + dy)
                    hops += 1
                    assert hops <= 100


# ---------------------------------------------------------------------------
# simulation integration
# ---------------------------------------------------------------------------

class TestFaultSimulation:
    def test_zero_faults_is_bit_identical(self, runner):
        design = runner.design("static", 16)
        plain = runner.run_unicast(design, "uniform")
        explicit = runner.run_unicast(design, "uniform", faults=None)
        empty = runner.run_unicast(design, "uniform", faults="")
        assert plain.avg_latency == explicit.avg_latency == empty.avg_latency
        assert plain.design == explicit.design == empty.design
        # The spec grid keeps its historical shape without faults.
        specs = sweep_grid(["static"], [16], ["uniform"])
        assert specs[0].extra == ()

    def test_structural_band_faults_degrade(self, runner):
        design = runner.design("static", 16)
        clean = runner.run_unicast(design, "uniform")
        faulted = runner.run_unicast(design, "uniform",
                                     faults=kill_bands(8, num_bands=16, seed=7))
        assert faulted.design.startswith(design.name + "+f")
        assert faulted.avg_latency > clean.avg_latency
        assert faulted.stats.delivery_ratio == 1.0

    def test_all_bands_dead_matches_baseline(self, runner):
        static = runner.run_unicast(
            runner.design("static", 16), "uniform",
            faults=kill_bands(16, num_bands=16, seed=7),
        )
        baseline = runner.run_unicast(runner.design("baseline", 16), "uniform")
        assert static.avg_latency == pytest.approx(baseline.avg_latency,
                                                   rel=1e-12)
        assert (static.stats.delivered_packets
                == baseline.stats.delivered_packets)

    def test_transient_outage_recovers(self, runner):
        design = runner.design("static", 16)
        clean = runner.run_unicast(design, "uniform")
        faulted = runner.run_unicast(
            design, "uniform",
            faults="band:0@300-900;link:44-45@300-900",
        )
        stats = faulted.stats
        assert stats.delivery_ratio == 1.0
        assert stats.fault_retries > 0
        assert faulted.avg_latency > clean.avg_latency

    def test_structural_router_fault_drops(self, runner):
        design = runner.design("baseline", 16)
        result = runner.run_unicast(design, "uniform", faults="router:55")
        assert result.stats.fault_drops > 0
        assert result.stats.delivery_ratio == 1.0  # survivors all arrive

    def test_partition_refused_before_simulation(self, runner):
        design = runner.design("baseline", 16)
        with pytest.raises(FaultPartitionError):
            runner.run_unicast(design, "uniform",
                               faults="link:0-1@100-200;link:0-10@100-200")

    def test_fault_events_observed(self, runner):
        from repro.obs import EventTracer, MetricsRegistry, Observation

        obs = Observation(metrics=MetricsRegistry(), tracer=EventTracer())
        runner.run_unicast(
            runner.design("static", 16), "uniform", observation=obs,
            faults="band:0@300-900;link:44-45@300-900",
        )
        events = obs.tracer.events("fault")
        assert events, "no fault events traced"
        assert all(e.packet == -1 for e in events)
        details = {e.detail.split(":", 1)[0] for e in events}
        assert "down" in details and "up" in details
        snapshot = obs.metrics.snapshot()
        assert obs.metrics.snapshot_total(snapshot, "fault_events") > 0

    def test_fault_trace_is_deterministic(self):
        import repro

        def fault_events():
            obs = repro.Observation(tracer=repro.EventTracer())
            repro.simulate(
                "static", "uniform", fast=True, metrics=False,
                observation=obs,
                faults="mtbf:bands=16,mtbf=20000,repair=2000,"
                       "horizon=6000,seed=9;link:44-45@300-900",
            )
            return repr(obs.tracer.events("fault"))

        first = fault_events()
        assert "down" in first
        assert first == fault_events()

    def test_stats_serialization_round_trip(self, runner):
        result = runner.run_unicast(
            runner.design("static", 16), "uniform",
            faults="band:0@300-900;link:44-45@300-900",
        )
        payload = encode_stats(result.stats)
        decoded = decode_stats(payload)
        assert decoded.fault_retries == result.stats.fault_retries
        assert decoded.fault_drops == result.stats.fault_drops
        assert decoded.fault_reroutes == result.stats.fault_reroutes
        # Pre-fault store entries (no counters in the payload) decode as 0.
        for key in ("fault_drops", "fault_retries", "fault_reroutes"):
            payload.pop(key)
        legacy = decode_stats(payload)
        assert legacy.fault_drops == legacy.fault_retries == 0

    def test_engine_and_grid_carry_faults(self, runner):
        from repro.exec.engine import run_sweep

        specs = sweep_grid(["static"], [16], ["uniform"], faults="band:0")
        assert specs[0].extra == (("faults", "band:0"),)
        report = run_sweep(specs, config=FAST_CONFIG)
        assert report.results[0].design.startswith("static-16B+f")

    def test_api_simulate_faults(self):
        import repro

        result = repro.simulate("static", "uniform", fast=True,
                                metrics=False, faults="band:0")
        assert result.design.startswith("static-16B+f")
        clean = repro.simulate("static", "uniform", fast=True, metrics=False)
        assert clean.design == "static-16B"

    def test_cli_faults_flag(self, capsys):
        from repro.cli import main

        assert main(["simulate", "--design", "static", "--fast",
                     "--faults", "band:0"]) == 0
        out = capsys.readouterr().out
        assert "+f" in out and "faults" in out
