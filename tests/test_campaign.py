"""Tests for repro.campaign: specs, Pareto reduction, resumable runs."""

import dataclasses
import json

import pytest

from repro.campaign import (
    CampaignError, CampaignSpec, load_manifest, load_spec, manifest_path,
    manifest_report, manifest_status, pareto_frontier, run_campaign,
    spec_from_dict,
)
from repro.campaign.pareto import dominates, objective_vector
from repro.exec import ResultStore, sweep_grid
from repro.experiments.campaigns import NAMED_CAMPAIGNS, SMOKE
from repro.experiments.config import ExperimentConfig
from repro.obs import MetricsRegistry
from repro.params import DEFAULT_PARAMS, SimulationParams
from repro.serve.client import ServeClient, ServeResponse

TINY_CONFIG = ExperimentConfig(
    sim=SimulationParams(warmup_cycles=50, measure_cycles=200,
                         drain_cycles=1_500),
    profile_cycles=1_000,
)

#: 8 cells in 2 chunks — the resume-semantics workhorse.
TINY_SPEC = CampaignSpec(
    name="tiny",
    styles=("baseline", "static"),
    widths=(16, 8),
    workloads=("uniform", "1Hotspot"),
    chunk=4,
)


# -- spec construction, validation, loading ----------------------------------

class TestSpec:
    def test_defaults_validate(self):
        assert CampaignSpec().validate() is not None

    def test_named_campaigns_validate(self):
        for spec in NAMED_CAMPAIGNS.values():
            spec.validate()

    @pytest.mark.parametrize("bad", [
        {"styles": ["warp-drive"]},
        {"widths": [12]},
        {"workloads": ["nope"]},
        {"objectives": ["speed"]},
        {"faults": [";;"]},
        {"faults": ["band:bogus"]},
        {"styles": []},
        {"sample": 0},
        {"chunk": 0},
        {"kernel": "turbo"},
        {"seeds": ["one"]},
        {"name": ""},
    ])
    def test_invalid_axes_raise(self, bad):
        with pytest.raises(CampaignError):
            CampaignSpec(**bad).validate()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(CampaignError, match="unknown campaign keys"):
            spec_from_dict({"styles": ["baseline"], "warp": 9})

    def test_from_dict_rejects_non_list_axis(self):
        with pytest.raises(CampaignError, match="must be a list"):
            spec_from_dict({"styles": "baseline"})

    def test_load_toml(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text(
            'name = "t"\nstyles = ["static"]\nwidths = [8]\n'
            'workloads = ["uniform"]\nobjectives = ["latency", "area"]\n')
        spec = load_spec(path)
        assert spec.styles == ("static",)
        assert spec.objectives == ("latency", "area")

    def test_load_json_with_null_seed(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "name": "t", "styles": ["baseline"], "seeds": [None, 7],
        }))
        assert load_spec(path).seeds == (None, 7)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(CampaignError, match="cannot read"):
            load_spec(tmp_path / "absent.toml")

    def test_load_bad_toml(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text("styles = [")
        with pytest.raises(CampaignError, match="invalid TOML"):
            load_spec(path)


class TestExpansion:
    def test_grid_size_and_expand_agree(self):
        spec = CampaignSpec(styles=("baseline", "static"), widths=(16, 8),
                            workloads=("uniform",), seeds=(1, 2),
                            faults=("", "band:0"))
        assert spec.grid_size() == 16
        assert len(spec.expand(TINY_CONFIG)) == 16

    def test_cells_are_normalized(self):
        cells = TINY_SPEC.expand(TINY_CONFIG)
        assert all(cell.seed is not None for cell in cells)
        assert all(cell.num_access_points is not None for cell in cells)

    def test_fault_axis_addresses_distinct_cells(self):
        spec = CampaignSpec(faults=("", "band:0"))
        cells = spec.expand(TINY_CONFIG)
        assert len(cells) == 2
        assert cells[0].extra == ()
        assert dict(cells[1].extra)["faults"] == "band:0"

    def test_sampling_is_deterministic_and_order_preserving(self):
        spec = CampaignSpec(styles=("baseline", "static", "adaptive"),
                            widths=(16, 8, 4),
                            workloads=("uniform", "1Hotspot"),
                            sample=7, sample_seed=11)
        first = spec.expand(TINY_CONFIG)
        second = spec.expand(TINY_CONFIG)
        assert first == second
        assert len(first) == 7
        full = dataclasses.replace(spec, sample=None).expand(TINY_CONFIG)
        positions = [full.index(cell) for cell in first]
        assert positions == sorted(positions)

    def test_sample_seed_changes_subset(self):
        spec = CampaignSpec(styles=("baseline", "static", "adaptive"),
                            widths=(16, 8, 4), sample=3)
        other = dataclasses.replace(spec, sample_seed=99)
        assert spec.expand(TINY_CONFIG) != other.expand(TINY_CONFIG)

    def test_sample_larger_than_grid_keeps_everything(self):
        spec = CampaignSpec(sample=50)
        assert len(spec.expand(TINY_CONFIG)) == spec.grid_size()


class TestCampaignDigest:
    def test_stable(self):
        a = TINY_SPEC.digest(TINY_CONFIG, DEFAULT_PARAMS)
        b = TINY_SPEC.digest(TINY_CONFIG, DEFAULT_PARAMS)
        assert a == b and len(a) == 64

    def test_axis_changes_move_it(self):
        base = TINY_SPEC.digest(TINY_CONFIG, DEFAULT_PARAMS)
        changed = dataclasses.replace(TINY_SPEC, widths=(16,))
        assert changed.digest(TINY_CONFIG, DEFAULT_PARAMS) != base

    def test_config_changes_move_it(self):
        base = TINY_SPEC.digest(TINY_CONFIG, DEFAULT_PARAMS)
        other = dataclasses.replace(TINY_CONFIG, traffic_seed=99)
        assert TINY_SPEC.digest(other, DEFAULT_PARAMS) != base

    def test_reduction_knobs_are_neutral(self):
        base = TINY_SPEC.digest(TINY_CONFIG, DEFAULT_PARAMS)
        for change in ({"kernel": "reference"}, {"chunk": 2},
                       {"objectives": ("area",)}):
            neutral = dataclasses.replace(TINY_SPEC, **change)
            assert neutral.digest(TINY_CONFIG, DEFAULT_PARAMS) == base, change


# -- satellite: sweep_grid must not silently drop a fault spec ---------------

class TestSweepGridFaults:
    def test_empty_truthy_fault_spec_raises(self):
        with pytest.raises(ValueError, match="names no faults"):
            sweep_grid(["baseline"], [16], ["uniform"], faults=";;")

    def test_none_still_means_fault_free(self):
        cells = sweep_grid(["baseline"], [16], ["uniform"], faults=None)
        assert cells[0].extra == ()

    def test_real_spec_still_lands_in_extra(self):
        cells = sweep_grid(["baseline"], [16], ["uniform"], faults="band:3")
        assert dict(cells[0].extra)["faults"] == "band:3"


# -- Pareto reduction --------------------------------------------------------

def _cell(label, **metrics):
    return {"label": label, "status": "done", "metrics": metrics}


class TestPareto:
    def test_dominates(self):
        assert dominates((1.0, 1.0), (2.0, 2.0))
        assert dominates((1.0, 2.0), (1.0, 3.0))
        assert not dominates((1.0, 3.0), (2.0, 1.0))
        assert not dominates((1.0, 1.0), (1.0, 1.0))

    def test_frontier_drops_dominated(self):
        cells = [
            _cell("best-lat", avg_latency=10.0, power_w=30.0),
            _cell("best-pow", avg_latency=30.0, power_w=10.0),
            _cell("dominated", avg_latency=31.0, power_w=31.0),
        ]
        front = pareto_frontier(cells, ("latency", "power"))
        assert [c["label"] for c in front] == ["best-lat", "best-pow"]
        assert front[0]["objectives"] == {"latency": 10.0, "power": 30.0}

    def test_ties_all_survive_in_order(self):
        cells = [_cell("a", avg_latency=1.0, power_w=1.0),
                 _cell("b", avg_latency=1.0, power_w=1.0)]
        front = pareto_frontier(cells, ("latency", "power"))
        assert [c["label"] for c in front] == ["a", "b"]

    def test_missing_or_nan_metric_never_survives(self):
        cells = [_cell("ok", avg_latency=5.0, power_w=5.0),
                 _cell("no-power", avg_latency=1.0),
                 _cell("nan", avg_latency=1.0, power_w=float("nan"))]
        front = pareto_frontier(cells, ("latency", "power"))
        assert [c["label"] for c in front] == ["ok"]

    def test_unknown_objective_raises(self):
        with pytest.raises(CampaignError, match="unknown objective"):
            pareto_frontier([_cell("x", avg_latency=1.0)], ("speed",))
        with pytest.raises(CampaignError):
            pareto_frontier([], ())

    def test_objective_vector_rejects_bool(self):
        assert objective_vector({"avg_latency": True}, ("latency",)) is None


# -- the resumable runner ----------------------------------------------------

@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """One interrupted-then-resumed campaign and one uninterrupted twin."""
    root = tmp_path_factory.mktemp("campaigns")
    registry = MetricsRegistry()

    store_a = ResultStore(root / "cache_a")
    killed = run_campaign(TINY_SPEC, config=TINY_CONFIG, store=store_a,
                          directory=root / "a", max_chunks=1,
                          registry=registry)
    writes_before_resume = store_a.stats.writes
    killed_manifest = load_manifest(root / "a")
    resume_store = ResultStore(root / "cache_a")   # fresh handle, same disk
    resumed = run_campaign(TINY_SPEC, config=TINY_CONFIG, store=resume_store,
                           directory=root / "a", registry=registry)

    store_b = ResultStore(root / "cache_b")
    uninterrupted = run_campaign(TINY_SPEC, config=TINY_CONFIG, store=store_b,
                                 directory=root / "b")
    final_manifest = load_manifest(root / "b")
    return {
        "root": root,
        "registry": registry,
        "killed": killed,
        "killed_manifest": killed_manifest,
        "writes_before_resume": writes_before_resume,
        "resume_store": resume_store,
        "resumed": resumed,
        "uninterrupted": uninterrupted,
        "final_manifest": final_manifest,
    }


class TestRunAndResume:
    def test_kill_at_chunk_boundary_checkpoints(self, world):
        killed = world["killed"]
        assert killed.status == "running"
        assert killed.cold == 4 and killed.pending == 4
        assert world["writes_before_resume"] == 4
        manifest = world["killed_manifest"]
        assert manifest["status"] == "running"
        assert sum(1 for c in manifest["cells"]
                   if c["status"] == "done") == 4

    def test_resume_runs_only_pending_cells(self, world):
        resumed = world["resumed"]
        assert resumed.status == "done"
        assert resumed.carried == 4
        assert resumed.cold == 4 and resumed.warm == 0
        # Zero re-simulation: the resumed run neither re-ran nor even
        # re-loaded the cells completed before the kill.
        stats = world["resume_store"].stats
        assert stats.writes == 4
        assert stats.hits == 0
        assert world["writes_before_resume"] + stats.writes == 8

    def test_resumed_equals_uninterrupted(self, world):
        resumed, twin = world["resumed"], world["uninterrupted"]
        assert [c["digest"] for c in resumed.cells] == \
               [c["digest"] for c in twin.cells]
        assert [c["metrics"] for c in resumed.done_cells] == \
               [c["metrics"] for c in twin.done_cells]

    def test_identical_pareto_sets(self, world):
        def essence(frontier):
            return [(c["digest"], c["objectives"]) for c in frontier]

        front_a = world["resumed"].pareto()
        front_b = world["uninterrupted"].pareto()
        assert front_a and essence(front_a) == essence(front_b)

    def test_warm_rerun_is_all_store_hits(self, world):
        result = run_campaign(
            TINY_SPEC, config=TINY_CONFIG,
            store=ResultStore(world["root"] / "cache_b"),
            directory=world["root"] / "b_warm")
        assert result.status == "done"
        assert result.warm == 8 and result.cold == 0

    def test_fully_carried_rerun_is_a_no_op(self, world):
        store = ResultStore(world["root"] / "cache_b")
        result = run_campaign(TINY_SPEC, config=TINY_CONFIG, store=store,
                              directory=world["root"] / "b")
        assert result.carried == 8
        assert result.cold == result.warm == 0
        assert store.stats.hits == store.stats.misses == 0

    def test_digest_mismatch_is_refused(self, world):
        other = dataclasses.replace(TINY_SPEC, widths=(16,))
        with pytest.raises(CampaignError, match="fresh"):
            run_campaign(other, config=TINY_CONFIG,
                         store=ResultStore(world["root"] / "cache_b"),
                         directory=world["root"] / "b")

    def test_fresh_restarts_warm_from_store(self, world):
        result = run_campaign(
            TINY_SPEC, config=TINY_CONFIG,
            store=ResultStore(world["root"] / "cache_b"),
            directory=world["root"] / "b", fresh=True)
        assert result.carried == 0
        assert result.warm == 8

    def test_registry_counters(self, world):
        registry = world["registry"]
        assert registry.value("campaign_cells", source="sim") == 8
        assert registry.value("campaign_pending") == 0

    def test_manifest_shape(self, world):
        manifest = world["final_manifest"]
        assert manifest["campaign"] == \
               TINY_SPEC.digest(TINY_CONFIG, DEFAULT_PARAMS)
        cell = manifest["cells"][0]
        assert set(cell) >= {"digest", "job", "label", "status", "source",
                             "wall_s", "metrics"}
        assert cell["metrics"]["avg_latency"] > 0
        assert "fault_drops" in cell["metrics"]

    def test_corrupt_manifest_raises(self, tmp_path):
        path = manifest_path(tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ not json")
        with pytest.raises(CampaignError, match="corrupt"):
            run_campaign(TINY_SPEC, config=TINY_CONFIG,
                         store=ResultStore(tmp_path / "cache"),
                         directory=tmp_path)

    def test_wrong_schema_raises(self, tmp_path):
        path = manifest_path(tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"schema": 999}))
        with pytest.raises(CampaignError, match="schema"):
            load_manifest(tmp_path)


class TestManifestViews:
    def test_status_counts(self, world):
        status = manifest_status(world["final_manifest"])
        assert status["cells"] == 8 and status["done"] == 8
        assert status["pending"] == 0
        assert status["sources"] == {"sim": 8}

    def test_report_has_frontier(self, world):
        report = manifest_report(world["final_manifest"])
        assert report["pareto"]["size"] >= 1
        assert report["objectives"] == ["latency", "power"]
        assert all(set(c["objectives"]) == {"latency", "power"}
                   for c in report["frontier"])

    def test_report_objective_override(self, world):
        report = manifest_report(world["final_manifest"],
                                 objectives=("latency",))
        assert report["objectives"] == ["latency"]
        assert report["pareto"]["size"] == 1


# -- satellite: ServeClient bounded retry-with-backoff -----------------------

class ScriptedClient(ServeClient):
    """A ServeClient whose responses are scripted, not networked."""

    def __init__(self, responses):
        super().__init__()
        self.responses = list(responses)
        self.calls = 0

    def simulate(self, **fields):
        self.calls += 1
        return self.responses.pop(0)


def _shed(retry_after=None):
    headers = {}
    if retry_after is not None:
        headers["retry-after"] = str(retry_after)
    return ServeResponse(status=429, headers=headers,
                         payload={"error": "shed"})


def _ok():
    return ServeResponse(status=200, headers={},
                         payload={"status": "ok", "source": "computed"})


class _UpperBoundJitter:
    """Full jitter draws uniform(0, base); this pins the draw at base."""

    def uniform(self, low, high):
        return high


class TestServeClientRetry:
    def test_honors_retry_after_hint(self):
        client = ScriptedClient([_shed(retry_after=3), _ok()])
        sleeps = []
        response = client.simulate_with_retry(sleep=sleeps.append,
                                              jitter=_UpperBoundJitter())
        assert response.ok and client.calls == 2
        assert sleeps == [3.0]

    def test_exponential_backoff_without_hint(self):
        client = ScriptedClient([_shed(), _shed(), _ok()])
        sleeps = []
        response = client.simulate_with_retry(backoff_s=0.25,
                                              sleep=sleeps.append,
                                              jitter=_UpperBoundJitter())
        assert response.ok and client.calls == 3
        assert sleeps == [0.25, 0.5]

    def test_backoff_is_capped(self):
        client = ScriptedClient([_shed(retry_after=500), _ok()])
        sleeps = []
        client.simulate_with_retry(max_backoff_s=2.0, sleep=sleeps.append,
                                   jitter=_UpperBoundJitter())
        assert sleeps == [2.0]

    def test_budget_exhaustion_returns_last_shed(self):
        client = ScriptedClient([_shed()] * 4)
        sleeps = []
        response = client.simulate_with_retry(retries=3, sleep=sleeps.append)
        assert response.status == 429
        assert client.calls == 4 and len(sleeps) == 3

    def test_non_429_errors_return_immediately(self):
        client = ScriptedClient([
            ServeResponse(status=400, headers={}, payload={"error": "bad"}),
        ])
        sleeps = []
        response = client.simulate_with_retry(sleep=sleeps.append)
        assert response.status == 400 and sleeps == []


# -- driving a campaign through the serving tier -----------------------------

class TestViaServe:
    def test_campaign_through_live_server(self, tmp_path):
        from repro.serve import ServeClient, ServerThread, SimulationService

        spec = dataclasses.replace(TINY_SPEC, styles=("baseline",),
                                   widths=(16,), chunk=2)
        service = SimulationService(config=TINY_CONFIG,
                                    store=ResultStore(tmp_path / "cache"))
        thread = ServerThread(service)
        client = ServeClient(port=thread.start(), timeout=300.0)
        try:
            first = run_campaign(spec, config=TINY_CONFIG, client=client,
                                 directory=tmp_path / "c1")
            assert first.status == "done"
            assert first.cold == 2 and first.warm == 0
            assert all(c["source"] == "computed"
                       for c in first.done_cells)
            second = run_campaign(spec, config=TINY_CONFIG, client=client,
                                  directory=tmp_path / "c2")
            assert second.warm == 2 and second.cold == 0
            assert [c["metrics"]["avg_latency"]
                    for c in second.done_cells] == \
                   [c["metrics"]["avg_latency"] for c in first.done_cells]
        finally:
            thread.stop()


# -- the api facade ----------------------------------------------------------

class TestApiFacade:
    def test_dict_spec(self, tmp_path):
        from repro import api

        result = api.campaign(
            {"name": "api-dict", "styles": ["baseline"], "widths": [16],
             "workloads": ["uniform"]},
            config=TINY_CONFIG, store=tmp_path / "cache",
            directory=tmp_path / "camp")
        assert result.status == "done"
        assert len(result.cells) == 1

    def test_bad_spec_type(self):
        from repro import api

        with pytest.raises(TypeError):
            api.campaign(42)

    def test_named_campaign_resolves(self, monkeypatch):
        import repro.campaign.runner as runner_mod
        from repro import api

        seen = {}

        def fake_run(spec, **kwargs):
            seen["spec"] = spec
            raise RuntimeError("stop here")

        # The facade imports run_campaign lazily from the runner module.
        monkeypatch.setattr(runner_mod, "run_campaign", fake_run)
        with pytest.raises(RuntimeError, match="stop here"):
            api.campaign("smoke")
        assert seen["spec"] is SMOKE
