"""Tests for repro.control: the closed-loop reconfiguration control plane."""

import dataclasses
import json

import numpy as np
import pytest

from repro.control import (
    ControlConfig, DecisionJournal, DecisionRecord, ShortcutDecider,
    TrafficProfile, compile_configuration, parse_phased_workload,
    phased_workload_name, run_closed_loop, shortcut_objective,
)
from repro.experiments import FAST_CONFIG, ExperimentRunner
from repro.noc import MeshTopology
from repro.params import MeshParams, SimulationParams

#: Short windows that still fire several control epochs.
CONTROL_CONFIG = dataclasses.replace(
    FAST_CONFIG,
    sim=SimulationParams(warmup_cycles=200, measure_cycles=2_400,
                         drain_cycles=6_000),
)

#: Loop knobs matched to those windows.
SPEC = "epoch=600,min=20"

WORKLOAD = "phased:hotBiDF+uniDF@1000"


@pytest.fixture(scope="module")
def topo():
    return MeshTopology(MeshParams())


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(CONTROL_CONFIG)


class TestControlConfig:
    def test_canonical_round_trip(self):
        config = ControlConfig(epoch_cycles=600, hysteresis=0.03,
                               decay=0.25, budget=8)
        again = ControlConfig.from_spec(config.canonical())
        assert again == config
        # Canonical form is stable under re-canonicalization.
        assert again.canonical() == config.canonical()

    def test_empty_spec_is_defaults(self):
        assert ControlConfig.from_spec("") == ControlConfig()
        assert ControlConfig.from_spec(None) == ControlConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown control key"):
            ControlConfig.from_spec("bogus=1")

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            ControlConfig.from_spec("epoch=nope")
        with pytest.raises(ValueError):
            ControlConfig.from_spec("epoch=0")
        with pytest.raises(ValueError):
            ControlConfig(decay=1.5)
        with pytest.raises(ValueError):
            ControlConfig(drain_deadline_cycles=-1)


class TestTrafficProfile:
    def test_observe_and_decay(self):
        profile = TrafficProfile(100, decay=0.5)
        profile.record(3, 9, size_bytes=40)
        profile.record(3, 9, size_bytes=40)
        assert profile.window_messages == 2
        assert profile.volume[3, 9] == 80
        profile.decay_window()
        assert profile.window_messages == 0
        assert profile.volume[3, 9] == 40  # faded, not forgotten

    def test_merge_pairs_wire_shape(self):
        profile = TrafficProfile(100)
        merged = profile.merge_pairs([(0, 99, 5), [7, 3, 2, 160]])
        assert merged == 2
        assert profile.frequency[0, 99] == 5
        assert profile.volume[0, 99] == 5      # bytes default to count
        assert profile.volume[7, 3] == 160
        assert profile.total_messages == 7

    def test_merge_rejects_bad_rows(self):
        profile = TrafficProfile(100)
        with pytest.raises(ValueError):
            profile.merge_pairs([(0, 400, 1)])
        with pytest.raises(ValueError):
            profile.merge_pairs([(0, 1, -2)])

    def test_snapshot_is_json_safe(self):
        profile = TrafficProfile(100)
        profile.merge_pairs([(1, 2, 10, 400)])
        snap = json.loads(json.dumps(profile.snapshot()))
        assert snap["active_pairs"] == 1
        assert snap["top_pairs"][0] == {"src": 1, "dst": 2, "volume": 400.0}


class TestDecider:
    def _frequency(self, topo, pairs):
        m = np.zeros((topo.num_routers, topo.num_routers))
        for src, dst, weight in pairs:
            m[src, dst] = weight
        return m

    def test_objective_drops_with_shortcut(self, topo):
        freq = self._frequency(topo, [(0, 99, 100.0)])
        base = shortcut_objective(topo, freq, ())
        cut = shortcut_objective(topo, freq, ((0, 99),))
        assert cut < base

    def test_no_traffic_skips(self, topo):
        decider = ShortcutDecider(topo, topo.rf_enabled_routers(50),
                                  budget=16)
        decision = decider.decide(
            np.zeros((topo.num_routers, topo.num_routers)), ())
        assert (decision.action, decision.reason) == ("skip", "no-traffic")

    def test_unchanged_placement_skips(self, topo):
        decider = ShortcutDecider(topo, topo.rf_enabled_routers(50),
                                  budget=16)
        freq = np.ones((topo.num_routers, topo.num_routers))
        first = decider.decide(freq, ())
        assert first.action == "apply"
        again = decider.decide(freq, first.shortcuts)
        assert (again.action, again.reason) == ("skip", "unchanged")

    def test_hysteresis_blocks_marginal_swaps(self, topo):
        freq = np.ones((topo.num_routers, topo.num_routers))
        eager = ShortcutDecider(topo, topo.rf_enabled_routers(50),
                                budget=16, hysteresis=0.0)
        proposal = eager.decide(freq, ())
        assert proposal.action == "apply"
        # The same proposal under an impossible bar is a hysteresis skip.
        strict = ShortcutDecider(topo, topo.rf_enabled_routers(50),
                                 budget=16, hysteresis=0.99)
        decision = strict.decide(freq, ())
        assert (decision.action, decision.reason) == ("skip", "hysteresis")
        assert decision.predicted_gain < 0.99


class TestCompiler:
    def test_recompile_same_set_is_noop(self, topo):
        shortcuts = ((0, 99), (9, 90))
        first, tables = compile_configuration(topo, shortcuts)
        assert not first.is_noop          # from cold, everything retunes
        assert first.table_update_cycles == topo.num_routers - 1
        again, _ = compile_configuration(topo, shortcuts, first)
        assert again.is_noop
        assert again.digest == first.digest
        assert again.total_overhead_cycles == 0

    def test_survivors_keep_their_bands(self, topo):
        first, _ = compile_configuration(topo, ((0, 99), (9, 90), (4, 55)))
        bands = {(s, d): b for b, s, d in first.bands}
        second, _ = compile_configuration(topo, ((9, 90), (18, 81)), first)
        kept = {(s, d): b for b, s, d in second.bands}
        assert kept[(9, 90)] == bands[(9, 90)]
        # Only the new pair retunes; the survivor is pruned (untouched).
        assert len(second.retunes) == 1
        assert second.pruned == 1

    def test_reordered_selection_is_noop_against_previous(self, topo):
        """Band stability makes a reordered selection digest-identical."""
        a, _ = compile_configuration(topo, ((0, 99), (9, 90)))
        b, _ = compile_configuration(topo, ((9, 90), (0, 99)), a)
        assert b.is_noop
        assert a.digest == b.digest


class TestJournal:
    def _record(self, epoch, action="applied"):
        return DecisionRecord(
            epoch=epoch, cycle=epoch * 100, action=action, reason="gain",
            objective_before=10.0, objective_after=8.0, predicted_gain=0.2,
            config_digest="abc", shortcuts=16, drain_cycles=3,
            overhead_cycles=103, window_messages=500,
        )

    def test_digest_depends_on_records(self):
        a, b = DecisionJournal(), DecisionJournal()
        a.append(self._record(1))
        b.append(self._record(1))
        assert a.digest() == b.digest()
        b.append(self._record(2, action="skipped"))
        assert a.digest() != b.digest()

    def test_round_trip(self):
        journal = DecisionJournal()
        journal.append(self._record(1))
        journal.append(self._record(2, action="skipped"))
        again = DecisionJournal.from_dicts(journal.to_dicts())
        assert again.digest() == journal.digest()
        assert again.counts() == journal.counts()

    def test_write_jsonl(self, tmp_path):
        journal = DecisionJournal()
        journal.append(self._record(1))
        path = journal.write_jsonl(tmp_path / "journal.jsonl")
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[-1]["kind"] == "summary"
        assert lines[-1]["digest"] == journal.digest()


class TestPhasedWorkloads:
    def test_parse(self):
        phases, cycles = parse_phased_workload("phased:a+b+c@1500")
        assert phases == ("a", "b", "c")
        assert cycles == 1500

    def test_default_cycles(self):
        phases, cycles = parse_phased_workload("phased:a+b")
        assert phases == ("a", "b")
        assert cycles == 2000

    def test_plain_name_passes_through(self):
        assert parse_phased_workload("uniform") == (("uniform",), 0)

    def test_round_trip_name(self):
        name = phased_workload_name(("a", "b"), 1500)
        assert parse_phased_workload(name) == (("a", "b"), 1500)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_phased_workload("phased:@100")
        with pytest.raises(ValueError):
            parse_phased_workload("phased:a+b@nope")


class TestControlLoop:
    """The epoch scheduler itself, driven cycle by cycle on a bare network."""

    def make(self, topo, source=None, **knobs):
        from repro.control import ControlLoop
        from repro.core import RFIOverlay, baseline
        from repro.core.reconfig import ReconfigurationController
        from repro.params import ArchitectureParams
        from repro.traffic import ProbabilisticTraffic, hotspot_at

        overlay = RFIOverlay(topo, topo.rf_enabled_routers(50), adaptive=True)
        controller = ReconfigurationController(topo, overlay)
        if source is None:
            pattern = hotspot_at(topo, [(7, 0)], strength=16)
            source = ProbabilisticTraffic(topo, pattern, 0.02, seed=3)
        net = baseline(16, ArchitectureParams(), topo).new_network()
        return net, ControlLoop(source, controller, ControlConfig(**knobs))

    def test_applied_retune_charges_overhead(self, topo):
        net, loop = self.make(topo, epoch_cycles=800)
        for _ in range(2_500):
            loop.tick(net)
            net.step()
        applied = [r for r in loop.journal if r.action == "applied"]
        assert applied
        for record in applied:
            # 99-cycle table update + tuning, plus a non-negative drain.
            assert record.overhead_cycles >= 99
            assert record.drain_cycles >= 0
            assert record.shortcuts == 16

    def test_under_evidenced_window_is_skipped(self, topo):
        class Silent:
            def sample_messages(self, cycle):
                return []

        net, loop = self.make(topo, Silent(), epoch_cycles=50)
        for _ in range(500):
            loop.tick(net)
            net.step()
        assert loop.applied == 0
        assert len(loop.journal) >= 2
        assert {(r.action, r.reason) for r in loop.journal} == {
            ("skipped", "insufficient-traffic")}

    def test_drain_deadline_skips_the_epoch(self, topo):
        """A network that never quiesces costs a skipped epoch, not a hang."""
        from repro.control.loop import Phase
        from repro.noc import Message

        net, loop = self.make(topo, drain_deadline_cycles=5)
        loop.phase = Phase.DRAIN
        loop._drain_started = net.cycle
        for _ in range(10):
            # Keep the network permanently busy: a fresh wormhole every
            # cycle, so in_flight never reaches zero during the drain.
            net.inject(Message(src=0, dst=99, size_bytes=39))
            loop.tick(net)
            net.step()
        assert [(r.action, r.reason) for r in loop.journal] == [
            ("skipped", "drain-deadline")]
        assert loop.journal.to_dicts()[0]["drain_cycles"] == 5
        assert loop.phase is Phase.MEASURE
        # The epoch rolled: the next attempt is a full epoch away, not hot.
        assert loop.next_epoch_at > net.cycle


class TestClosedLoopRuns:
    def test_deterministic_journal_digest(self, runner):
        """Same (seed, profile stream) -> identical decision journal."""
        first = run_closed_loop(runner, WORKLOAD, style="adaptive",
                                control=SPEC)
        fresh = ExperimentRunner(CONTROL_CONFIG)
        second = run_closed_loop(fresh, WORKLOAD, style="adaptive",
                                 control=SPEC)
        assert len(first.journal) >= 1
        assert first.journal_digest == second.journal_digest
        assert first.result.avg_latency == second.result.avg_latency

    def test_epochs_fire_and_metrics_count(self, runner):
        run = run_closed_loop(runner, WORKLOAD, control=SPEC)
        summary = run.summary()
        assert summary["records"] >= 2
        assert summary["applied"] >= 1 and summary["skipped"] >= 1
        assert summary["applied"] + summary["skipped"] == summary["records"]
        assert run.result.stats.delivery_ratio == pytest.approx(1.0)

    def test_warm_store_replay_returns_identical_journal(self, tmp_path):
        from repro.exec import ResultStore

        store = ResultStore(tmp_path / "cache")
        cold_runner = ExperimentRunner(CONTROL_CONFIG, store=store)
        cold = run_closed_loop(cold_runner, WORKLOAD, control=SPEC)
        warm_runner = ExperimentRunner(CONTROL_CONFIG, store=store)
        warm = run_closed_loop(warm_runner, WORKLOAD, control=SPEC)
        assert warm_runner.simulations_run == 0   # pure store hit
        assert warm.journal_digest == cold.journal_digest
        assert warm.result.avg_latency == cold.result.avg_latency

    def test_online_digest_forks_from_offline(self, runner):
        from repro.control.run import control_spec
        from repro.exec import JobSpec, job_digest

        online = control_spec("uniform", style="baseline", control="")
        offline = JobSpec(kind="unicast", style="baseline",
                          workload="uniform")
        assert (job_digest(online, runner.config, runner.params)
                != job_digest(offline, runner.config, runner.params))

    def test_rejects_non_control_styles(self, runner):
        with pytest.raises(ValueError, match="baseline"):
            run_closed_loop(runner, "uniform", style="wire", control="")

    def test_rejects_unknown_phase(self, runner):
        # Caught by the shared vocabulary before any network is built.
        with pytest.raises(ValueError, match=r"unknown workloads \['bogus'\]"):
            run_closed_loop(runner, "phased:uniform+bogus@500", control=SPEC)


class TestApiAndSweep:
    def test_simulate_online(self):
        from repro.api import simulate

        result = simulate("baseline", "uniform", fast=True, online="min=1")
        assert result.avg_latency > 0

    def test_simulate_online_rejects_tracing(self, tmp_path):
        from repro.api import simulate

        with pytest.raises(ValueError, match="online"):
            simulate("baseline", "uniform", fast=True, online=True,
                     trace_events=tmp_path / "t.jsonl")

    def test_sweep_grid_control(self):
        from repro.exec import sweep_grid

        specs = sweep_grid(["adaptive"], [16], ["uniform"],
                           control="epoch=600")
        assert len(specs) == 1
        assert dict(specs[0].extra)["control"] == (
            ControlConfig.from_spec("epoch=600").canonical())

    def test_sweep_grid_control_style_restriction(self):
        from repro.exec import sweep_grid

        with pytest.raises(ValueError, match="online runs accept designs"):
            sweep_grid(["wire"], [16], ["uniform"], control="")


class TestServeWiring:
    def test_parse_simulate_online(self):
        from repro.serve.protocol import parse_simulate, spec_fields

        spec = parse_simulate({"design": "adaptive", "online": True,
                               "workload": WORKLOAD})
        assert dict(spec.extra)["control"] == ControlConfig().canonical()
        fields = spec_fields(spec)
        assert fields["online"] == ControlConfig().canonical()
        assert parse_simulate(fields).extra == spec.extra

    def test_parse_simulate_rejects_offline_phased(self):
        from repro.serve.protocol import RequestError, parse_simulate

        with pytest.raises(RequestError, match="online"):
            parse_simulate({"workload": WORKLOAD})

    def test_parse_simulate_rejects_online_wire(self):
        from repro.serve.protocol import RequestError, parse_simulate

        with pytest.raises(RequestError, match="online runs"):
            parse_simulate({"design": "wire", "online": True})

    def test_parse_sweep_online(self):
        from repro.serve.protocol import parse_sweep

        specs = parse_sweep({"styles": ["baseline", "adaptive"],
                             "workloads": [WORKLOAD], "online": "epoch=600"})
        assert len(specs) == 2
        assert all("control" in dict(s.extra) for s in specs)

    def test_service_profile_and_control(self):
        from repro.serve.service import SimulationService

        service = SimulationService(fast=True)
        status, body, _ = service.profile(
            {"pairs": [[0, 99, 500, 8000], [5, 94, 300, 4800]]})
        assert status == 200
        assert body["merged"] == 2
        assert body["profile"]["window_messages"] == 800
        status, body, _ = service.control({"online": "hysteresis=0.01"})
        assert status == 200
        assert body["action"] == "apply"
        assert 1 <= len(body["shortcuts"]) <= 16
        assert body["bands"]["digest"]
        # Asking again with the proposal live is an unchanged skip.
        status, body, _ = service.control(
            {"online": "hysteresis=0.01", "current": body["shortcuts"]})
        assert status == 200
        assert (body["action"], body["reason"]) == ("skip", "unchanged")

    def test_service_rejects_bad_payloads(self):
        from repro.serve.service import SimulationService

        service = SimulationService(fast=True)
        status, body, _ = service.profile({"pairs": [[0, 400, 1]]})
        assert status == 400
        status, body, _ = service.control({"online": "bogus=1"})
        assert status == 400


class TestCampaignAxis:
    def test_control_axis_expands_online_cells(self):
        from repro.campaign.spec import spec_from_dict

        spec = spec_from_dict({"name": "ctl", "styles": ["adaptive"],
                               "workloads": [WORKLOAD],
                               "control": ["epoch=600"]})
        cells = spec.expand(CONTROL_CONFIG)
        assert len(cells) == 1
        assert "control" in dict(cells[0].extra)

    def test_default_axis_keeps_digest(self):
        from repro.campaign.spec import CampaignSpec
        from repro.params import DEFAULT_PARAMS

        base = CampaignSpec()
        explicit = dataclasses.replace(base, control=(None,))
        assert (explicit.digest(CONTROL_CONFIG, DEFAULT_PARAMS)
                == base.digest(CONTROL_CONFIG, DEFAULT_PARAMS))
        online = dataclasses.replace(base, styles=("baseline",),
                                     control=("",))
        assert (online.digest(CONTROL_CONFIG, DEFAULT_PARAMS)
                != base.digest(CONTROL_CONFIG, DEFAULT_PARAMS))

    def test_mixed_axis_rejects_phased_workloads(self):
        from repro.campaign.spec import CampaignError, spec_from_dict

        with pytest.raises(CampaignError,
                           match="requires an online .closed-loop. run"):
            spec_from_dict({"name": "bad", "styles": ["adaptive"],
                            "workloads": [WORKLOAD],
                            "control": [None, ""]})


class TestCli:
    def test_control_command_json(self, capsys):
        from repro.cli import main

        code = main(["control", "--workload", WORKLOAD, "--control", SPEC,
                     "--fast", "--no-cache", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["control"].startswith("deadline=")
        assert payload["journal"]["records"] >= 0
        assert payload["avg_latency"] > 0

    def test_simulate_online_flag(self, capsys):
        from repro.cli import main

        code = main(["simulate", "--design", "adaptive", "--workload",
                     WORKLOAD, "--online", SPEC, "--fast", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["online"].startswith("deadline=")

    def test_phased_without_online_is_bad_input(self, capsys):
        from repro.cli import main

        code = main(["simulate", "--workload", WORKLOAD, "--fast"])
        assert code == 2
