"""Tests for the observability layer: metrics, tracing, observation."""

import pytest

from repro.experiments import FAST_CONFIG, ExperimentRunner
from repro.noc import MeshTopology, Simulator
from repro.obs import (
    EventTracer, MetricsRegistry, Observation, read_jsonl, validate_event,
)
from repro.obs.metrics import Counter, Histogram, label_key
from repro.obs.result import RunResult
from repro.params import DEFAULT_PARAMS, SimulationParams
from repro.traffic import ProbabilisticTraffic

SIM = SimulationParams(warmup_cycles=50, measure_cycles=400,
                       drain_cycles=4_000)


def _observed_run(style="static", trace_capacity=65_536):
    """One seeded fast run with metrics + tracing attached."""
    runner = ExperimentRunner(FAST_CONFIG)
    design = runner.design(style, 16)
    observation = Observation(
        metrics=MetricsRegistry(), tracer=EventTracer(trace_capacity)
    )
    network = design.new_network()
    source = ProbabilisticTraffic(
        runner.topology, runner.patterns["uniform"], 0.015, seed=9
    )
    stats = Simulator(network, [source], SIM, observation=observation).run()
    return stats, observation


class TestMetricsRegistry:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        a = reg.counter("flits", router="(1, 2)", port="E")
        a.inc()
        a.inc(2)
        same = reg.counter("flits", port="E", router="(1, 2)")
        assert same is a
        assert reg.value("flits", router="(1, 2)", port="E") == 3.0

    def test_label_key_canonical(self):
        assert label_key({"b": 2, "a": "x"}) == (("a", "x"), ("b", "2"))

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(TypeError):
            reg.gauge("m")

    def test_family_total_across_labels(self):
        reg = MetricsRegistry()
        reg.counter("f", band=0).inc(3)
        reg.counter("f", band=1).inc(4)
        assert reg.total("f") == 7.0
        assert len(reg.series("f")) == 2

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (0.5, 1, 2, 3, 100):
            h.observe(v)
        assert h.count == 5
        assert h.mean == pytest.approx(106.5 / 5)
        # 0.5 and 1 -> bucket 0; 2 -> 1; 3 -> 2; 100 -> 7 (64 < 100 <= 128)
        assert h.buckets == {0: 2, 1: 1, 2: 1, 7: 1}

    def test_snapshot_roundtrip_total(self):
        reg = MetricsRegistry()
        reg.counter("f", band=0).inc(3)
        reg.counter("f", band=1).inc(4)
        reg.histogram("lat").observe(5)
        snap = reg.snapshot()
        assert snap["f"] == [
            {"labels": {"band": "0"}, "value": 3.0},
            {"labels": {"band": "1"}, "value": 4.0},
        ]
        assert MetricsRegistry.snapshot_total(snap, "f") == 7.0
        assert snap["lat"][0]["count"] == 1

    def test_value_unpublished_is_none(self):
        assert MetricsRegistry().value("nope") is None


class TestReconciliation:
    """Metrics must mirror the window statistics exactly."""

    @pytest.fixture(scope="class")
    def run(self):
        return _observed_run()

    def test_flits_routed_equals_switch_traversals(self, run):
        stats, obs = run
        assert obs.metrics.total("flits_routed") == (
            stats.activity.switch_traversals
        )

    def test_buffer_writes_reconcile(self, run):
        stats, obs = run
        assert obs.metrics.total("buffer_writes") == (
            stats.activity.buffer_writes
        )

    def test_rf_band_flits_reconcile(self, run):
        stats, obs = run
        assert obs.metrics.total("rf_band_flits") == stats.activity.rf_flits
        assert stats.activity.rf_flits > 0   # static design uses shortcuts

    def test_packet_counters_reconcile(self, run):
        stats, obs = run
        m = obs.metrics
        assert m.value("packets_injected") == stats.injected_packets
        assert m.value("deliveries") == stats.delivery_events
        assert m.value("packets_completed") == stats.delivered_packets

    def test_latency_histogram_matches_sum(self, run):
        stats, obs = run
        hist = obs.metrics.histogram("packet_latency_cycles")
        assert hist.count == stats.delivery_events
        assert hist.total == pytest.approx(stats.latency_sum)

    def test_band_occupancy_gauges(self, run):
        stats, obs = run
        occupancy = obs.metrics.total("rf_band_occupancy")
        expected = stats.activity.rf_flits / stats.activity.cycles
        assert occupancy == pytest.approx(expected)

    def test_rf_energy_matches_phy(self, run):
        stats, obs = run
        energy = obs.metrics.value("rf_energy_pj")
        # 16 B flits at the published 0.75 pJ/bit.
        assert energy == pytest.approx(
            stats.activity.rf_flits * 16 * 8 * 0.75
        )

    def test_trace_event_flit_counts_sum_to_activity(self, run):
        """hop/rf event counts reproduce the activity counters exactly."""
        stats, obs = run
        assert obs.tracer.dropped_events == 0
        hops = len(obs.tracer.events("hop"))
        rf = len(obs.tracer.events("rf"))
        assert hops == stats.activity.mesh_flit_hops
        assert rf == stats.activity.rf_flits
        # Every traversal is a mesh hop, an RF hop, or an ejection flit.
        assert hops + rf + stats.activity.local_flit_hops == (
            stats.activity.switch_traversals
        )

    def test_per_router_event_counts_sum_to_activity(self, run):
        """Summing per-router event counts reconciles with the totals."""
        stats, obs = run
        per_router: dict[int, int] = {}
        for event in obs.tracer.events():
            if event.kind in ("hop", "rf"):
                per_router[event.router] = per_router.get(event.router, 0) + 1
        assert sum(per_router.values()) == (
            stats.activity.mesh_flit_hops + stats.activity.rf_flits
        )

    def test_observation_does_not_perturb_results(self):
        """Observed and unobserved runs are statistically identical."""
        runner = ExperimentRunner(FAST_CONFIG)
        design = runner.design("static", 16)

        def one(observation):
            network = design.new_network()
            source = ProbabilisticTraffic(
                runner.topology, runner.patterns["uniform"], 0.015, seed=9
            )
            return Simulator(
                network, [source], SIM, observation=observation
            ).run()

        bare = one(None)
        observed = one(Observation(metrics=MetricsRegistry()))
        assert observed.avg_packet_latency == bare.avg_packet_latency
        assert observed.delivered_packets == bare.delivered_packets
        assert observed.activity == bare.activity


class TestTracer:
    def test_ring_bounds(self):
        tracer = EventTracer(capacity=10)
        for i in range(25):
            tracer.emit(i, "hop", packet=i, router=0, port="E")
        assert len(tracer) == 10
        assert tracer.emitted_events == 25
        assert tracer.dropped_events == 15
        # The ring keeps the newest events.
        assert [e.cycle for e in tracer.events()] == list(range(15, 25))

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventTracer(capacity=0)

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = EventTracer()
        tracer.emit(3, "inject", 7, router=1, dst=42)
        tracer.emit(5, "rf", 7, router=1, port="RF", dst=90, band=4)
        tracer.emit(9, "deliver", 7, router=42)
        path = tracer.write_jsonl(tmp_path / "trace.jsonl")
        events = read_jsonl(path)
        assert [e.kind for e in events] == ["inject", "rf", "deliver"]
        assert events[1].band == 4
        assert events[0].port is None      # elided fields come back as None

    def test_validate_rejects_bad_events(self):
        with pytest.raises(ValueError):
            validate_event({"cycle": 1, "kind": "hop"})         # no packet
        with pytest.raises(ValueError):
            validate_event({"cycle": 1, "kind": "warp", "packet": 2})
        with pytest.raises(ValueError):
            validate_event({"cycle": 1, "kind": "hop", "packet": 2,
                            "extra": True})
        with pytest.raises(ValueError):
            validate_event({"cycle": "one", "kind": "hop", "packet": 2})

    def test_read_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            read_jsonl(path)

    def test_sim_params_flag_builds_tracer(self):
        topo = MeshTopology(DEFAULT_PARAMS.mesh)
        runner = ExperimentRunner(FAST_CONFIG)
        design = runner.design("baseline", 16)
        sim = SimulationParams(warmup_cycles=0, measure_cycles=50,
                               drain_cycles=500, trace_events=True,
                               trace_buffer_events=128)
        simulator = Simulator(
            design.new_network(),
            [ProbabilisticTraffic(topo, runner.patterns["uniform"], 0.01,
                                  seed=3)],
            sim,
        )
        assert simulator.observation is not None
        assert simulator.observation.tracer.capacity == 128
        simulator.run()
        assert simulator.observation.tracer.emitted_events > 0


class TestSimulatorShims:
    def test_default_sim_is_fresh_per_instance(self):
        runner = ExperimentRunner(FAST_CONFIG)
        design = runner.design("baseline", 16)
        source = ProbabilisticTraffic(
            runner.topology, runner.patterns["uniform"], 0.01, seed=3
        )
        s1 = Simulator(design.new_network(), [source])
        s2 = Simulator(design.new_network(), [source])
        assert s1.sim == SimulationParams()
        assert s1.sim is not s2.sim


class TestRunResult:
    def test_with_provenance(self):
        r = RunResult(design="d", workload="w", avg_latency=1.0,
                      avg_flit_latency=1.0)
        tagged = r.with_provenance("abc")
        assert tagged.provenance == "abc"
        assert r.provenance is None
