"""Tests for the execution engine: jobs, store, serialization, sweeps.

Everything runs on a 6x6 mesh with tiny simulation windows so the whole
module stays fast; the grid cases cover the acceptance criteria: cache
hits skip simulation entirely, digests track every input, corrupt entries
are quarantined and recomputed, and parallel sweeps are byte-identical to
serial ones with a warm re-run simulating nothing.
"""

import dataclasses
import json
import os

import pytest

from repro.exec import (
    JobSpec, ResultStore, decode_result, encode_result, job_digest,
    normalize_spec, run_sweep, sweep_grid,
)
from repro.exec import engine as engine_module
from repro.experiments import ExperimentConfig, ExperimentRunner
from repro.experiments.repetition import (
    RepeatedMeasure, repeat_unicast, t_critical,
)
from repro.experiments.saturation import find_saturation
from repro.noc.simulator import Simulator
from repro.params import DEFAULT_PARAMS, SimulationParams

PARAMS = DEFAULT_PARAMS.with_topology(
    width=6, height=6, num_cores=22, num_caches=10, num_memports=4
)
CONFIG = ExperimentConfig(
    sim=SimulationParams(warmup_cycles=50, measure_cycles=200,
                         drain_cycles=1_500),
    profile_cycles=500,
    num_access_points=18,
)
#: 3 designs x 2 workloads — the acceptance-criteria grid.
GRID = sweep_grid(["baseline", "static", "wire"], [16],
                  ["uniform", "uniDF"])


def grid_bytes(results) -> str:
    """Canonical byte representation of a result list."""
    return json.dumps([encode_result(r) for r in results], sort_keys=True)


@pytest.fixture()
def store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "cache")


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------

class TestDigest:
    def test_stable(self):
        spec = JobSpec(style="baseline", workload="uniform")
        assert (job_digest(spec, CONFIG, PARAMS)
                == job_digest(spec, CONFIG, PARAMS))

    @pytest.mark.parametrize("change", [
        {"style": "static"},
        {"link_bytes": 8},
        {"workload": "uniDF"},
        {"seed": 99},
        {"num_access_points": 12},
        {"adaptive_routing": True},
        {"kind": "probe", "rate": 0.05},
        {"extra": (("sim", "1/2/3"),)},
    ])
    def test_any_spec_field_changes_digest(self, change):
        base = JobSpec(style="baseline", workload="uniform")
        assert (job_digest(base, CONFIG, PARAMS)
                != job_digest(dataclasses.replace(base, **change),
                              CONFIG, PARAMS))

    def test_any_config_field_changes_digest(self):
        spec = JobSpec()
        longer = dataclasses.replace(
            CONFIG, sim=dataclasses.replace(CONFIG.sim, measure_cycles=999)
        )
        reseeded = dataclasses.replace(CONFIG, seed=1)
        assert (job_digest(spec, CONFIG, PARAMS)
                != job_digest(spec, longer, PARAMS))
        assert (job_digest(spec, CONFIG, PARAMS)
                != job_digest(spec, reseeded, PARAMS))

    def test_any_params_field_changes_digest(self):
        spec = JobSpec()
        wider = PARAMS.with_topology(link_bytes=8)
        more_vcs = dataclasses.replace(
            PARAMS, router=dataclasses.replace(PARAMS.router, num_vcs=8)
        )
        assert (job_digest(spec, CONFIG, PARAMS)
                != job_digest(spec, CONFIG, wider))
        assert (job_digest(spec, CONFIG, PARAMS)
                != job_digest(spec, CONFIG, more_vcs))

    def test_config_defaults_normalize(self):
        # seed=None means "the config's traffic seed" — same address.
        implicit = JobSpec(seed=None)
        explicit = JobSpec(seed=CONFIG.traffic_seed)
        assert (job_digest(implicit, CONFIG, PARAMS)
                == job_digest(explicit, CONFIG, PARAMS))
        assert normalize_spec(implicit, CONFIG).seed == CONFIG.traffic_seed


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------

class TestStore:
    def test_roundtrip(self, store):
        digest = "a" * 64
        store.save(digest, {"x": 1}, meta={"spec": "test"})
        assert store.load(digest) == {"x": 1}
        assert store.stats.hits == 1
        assert store.stats.writes == 1
        assert len(store) == 1

    def test_miss(self, store):
        assert store.load("b" * 64) is None
        assert store.stats.misses == 1

    def test_corrupt_entry_quarantined_and_recomputed(self, store):
        digest = "c" * 64
        store.save(digest, {"x": 1})
        store.path_for(digest).write_text("{not json at all")
        assert store.load(digest) is None          # detected, not crashed
        assert store.stats.quarantined == 1
        assert not store.path_for(digest).exists() # moved out of the way
        assert len(list(store.quarantine_dir.glob("*.json"))) == 1
        store.save(digest, {"x": 2})               # recompute path
        assert store.load(digest) == {"x": 2}

    def test_truncated_entry_quarantined(self, store):
        digest = "d" * 64
        store.save(digest, {"payload": list(range(100))})
        full = store.path_for(digest).read_text()
        store.path_for(digest).write_text(full[: len(full) // 2])
        assert store.load(digest) is None
        assert store.stats.quarantined == 1

    def test_schema_mismatch_is_a_miss(self, store, tmp_path):
        digest = "e" * 64
        store.save(digest, {"x": 1})
        old = ResultStore(store.root, schema_version=store.schema_version + 1)
        assert old.load(digest) is None
        assert old.stats.quarantined == 1

    def test_wrong_digest_content_is_a_miss(self, store):
        digest, other = "f" * 64, "0" * 64
        store.save(digest, {"x": 1})
        store.path_for(digest).rename(store.path_for(other))
        assert store.load(other) is None
        assert store.stats.quarantined == 1

    def test_invalidate_and_clear(self, store):
        store.save("1" * 64, {"x": 1})
        store.save("2" * 64, {"x": 2})
        assert store.invalidate("1" * 64) is True
        assert store.invalidate("1" * 64) is False
        assert store.clear() == 1
        assert len(store) == 0


# ---------------------------------------------------------------------------
# serialization fidelity
# ---------------------------------------------------------------------------

class TestSerialize:
    def test_result_roundtrip_is_lossless(self, store):
        runner = ExperimentRunner(CONFIG, PARAMS)
        result = runner.run_unicast(runner.design("baseline", 16), "uniform")
        decoded = decode_result(encode_result(result))
        assert encode_result(decoded) == encode_result(result)
        assert decoded.avg_latency == result.avg_latency
        assert decoded.total_power_w == result.total_power_w
        assert decoded.stats.avg_hops == result.stats.avg_hops
        assert (decoded.stats.latency_percentile(0.95)
                == result.stats.latency_percentile(0.95))
        assert (decoded.stats.avg_latency_by_class()
                == result.stats.avg_latency_by_class())
        assert decoded.stats.link_flits == dict(result.stats.link_flits)

    def test_payload_is_json_safe(self):
        runner = ExperimentRunner(CONFIG, PARAMS)
        result = runner.run_unicast(runner.design("baseline", 16), "uniform")
        json.dumps(encode_result(result))  # must not raise


# ---------------------------------------------------------------------------
# runner <-> store integration
# ---------------------------------------------------------------------------

class TestRunnerStore:
    def test_cache_hit_skips_simulation(self, store, monkeypatch):
        warm = ExperimentRunner(CONFIG, PARAMS, store=store)
        first = warm.run_unicast(warm.design("baseline", 16), "uniform")
        assert warm.simulations_run == 1

        calls = {"n": 0}
        real_run = Simulator.run

        def counting_run(self):
            calls["n"] += 1
            return real_run(self)

        monkeypatch.setattr(Simulator, "run", counting_run)
        fresh = ExperimentRunner(CONFIG, PARAMS, store=store)
        again = fresh.run_unicast(fresh.design("baseline", 16), "uniform")
        assert calls["n"] == 0                  # never simulated
        assert fresh.simulations_run == 0
        assert encode_result(again) == encode_result(first)

    def test_same_name_designs_never_alias(self):
        runner = ExperimentRunner(CONFIG, PARAMS)
        wide = runner.design("baseline", 16)
        narrow = dataclasses.replace(runner.design("baseline", 8),
                                     name=wide.name)
        wide_result = runner.run_unicast(wide, "uniform")
        narrow_result = runner.run_unicast(narrow, "uniform")
        assert wide_result is not narrow_result
        assert wide_result.avg_latency != narrow_result.avg_latency

    def test_corrupt_entry_recomputed_transparently(self, store):
        warm = ExperimentRunner(CONFIG, PARAMS, store=store)
        first = warm.run_unicast(warm.design("baseline", 16), "uniform")
        entry = next(iter(store.entries()))
        entry.write_text(entry.read_text()[:40])   # truncate

        fresh = ExperimentRunner(CONFIG, PARAMS, store=store)
        again = fresh.run_unicast(fresh.design("baseline", 16), "uniform")
        assert fresh.simulations_run == 1          # recomputed
        assert store.stats.quarantined == 1
        assert encode_result(again) == encode_result(first)

    def test_saturation_probes_cached(self, store):
        runner = ExperimentRunner(CONFIG, PARAMS, store=store)
        design = runner.design("baseline", 16)
        first = find_saturation(runner, design, "uniform",
                                rate_hi=0.08, tolerance=0.02)
        done = runner.simulations_run
        assert done > 0
        again = find_saturation(runner, design, "uniform",
                                rate_hi=0.08, tolerance=0.02)
        assert runner.simulations_run == done      # all probes replayed
        assert again == first

    def test_cached_stats_keyed_by_fields(self, store):
        runner = ExperimentRunner(CONFIG, PARAMS, store=store)
        seen = []

        def fake(tagged, workload):
            def simulate():
                seen.append(tagged)
                return runner.run_unicast(
                    runner.design("baseline", 16), workload
                ).stats
            return simulate

        a = runner.cached_stats("t", {"knob": 1}, fake("a", "uniform"))
        b = runner.cached_stats("t", {"knob": 2}, fake("b", "uniDF"))
        a2 = runner.cached_stats("t", {"knob": 1}, fake("a2", "uniform"))
        assert seen == ["a", "b"]                  # 'a2' came from the store
        assert a.avg_packet_latency == a2.avg_packet_latency
        assert b.avg_packet_latency != a.avg_packet_latency

    def test_repetition_through_store(self, store):
        runner = ExperimentRunner(CONFIG, PARAMS, store=store)
        design = runner.design("baseline", 16)
        first = repeat_unicast(runner, design, "uniform", seeds=(1, 2, 3))
        done = runner.simulations_run
        fresh = ExperimentRunner(CONFIG, PARAMS, store=store)
        again = repeat_unicast(fresh, fresh.design("baseline", 16),
                               "uniform", seeds=(1, 2, 3))
        assert done == 3
        assert fresh.simulations_run == 0
        assert again == first


# ---------------------------------------------------------------------------
# the sweep engine
# ---------------------------------------------------------------------------

class TestSweep:
    def test_parallel_identical_to_serial(self, tmp_path):
        serial = run_sweep(GRID, config=CONFIG, params=PARAMS,
                           store=ResultStore(tmp_path / "serial"), jobs=1)
        parallel = run_sweep(GRID, config=CONFIG, params=PARAMS,
                             store=ResultStore(tmp_path / "parallel"), jobs=2)
        assert serial.misses == parallel.misses == len(GRID)
        assert grid_bytes(serial.results) == grid_bytes(parallel.results)

    def test_warm_rerun_simulates_nothing(self, store):
        cold = run_sweep(GRID, config=CONFIG, params=PARAMS,
                         store=store, jobs=1)
        warm = run_sweep(GRID, config=CONFIG, params=PARAMS,
                         store=store, jobs=2)
        assert cold.misses == len(GRID) and cold.hits == 0
        assert warm.hits == len(GRID) and warm.misses == 0
        assert all(outcome.cached for outcome in warm.outcomes)
        assert warm.summary()["simulated_cycles"] == 0
        assert grid_bytes(cold.results) == grid_bytes(warm.results)

    def test_results_in_submission_order(self, store):
        report = run_sweep(GRID, config=CONFIG, params=PARAMS,
                           store=store, jobs=2)
        expected = [normalize_spec(spec, CONFIG) for spec in GRID]
        assert [outcome.spec for outcome in report.outcomes] == expected

    def test_progress_events(self, store):
        events = []
        run_sweep(GRID[:2], config=CONFIG, params=PARAMS, store=store,
                  progress=events.append)
        assert [e["event"] for e in events] == ["done", "done"]
        run_sweep(GRID[:2], config=CONFIG, params=PARAMS, store=store,
                  progress=events.append)
        assert [e["event"] for e in events[2:]] == ["hit", "hit"]

    def test_retry_once_recovers(self, monkeypatch, store):
        real = engine_module.execute_spec
        failures = {"left": 1}

        def flaky(runner, spec, observation=None, stage_profile=None):
            if failures["left"]:
                failures["left"] -= 1
                raise RuntimeError("transient")
            return real(runner, spec, observation, stage_profile)

        monkeypatch.setattr(engine_module, "execute_spec", flaky)
        report = run_sweep(GRID[:1], config=CONFIG, params=PARAMS,
                           store=store, jobs=1)
        assert report.outcomes[0].attempts == 2
        assert report.outcomes[0].result.avg_latency > 0

    def test_persistent_failure_raises(self, monkeypatch, store):
        def broken(runner, spec, observation=None, stage_profile=None):
            raise RuntimeError("permanent")

        monkeypatch.setattr(engine_module, "execute_spec", broken)
        with pytest.raises(RuntimeError, match="permanent"):
            run_sweep(GRID[:1], config=CONFIG, params=PARAMS,
                      store=store, jobs=1)

    @pytest.mark.skipif((os.cpu_count() or 1) < 4,
                        reason="speedup needs >= 4 cores")
    def test_four_workers_at_least_twice_as_fast(self, tmp_path):
        # Heavier windows so per-cell work dominates pool start-up.
        config = dataclasses.replace(
            CONFIG, sim=SimulationParams(warmup_cycles=100,
                                         measure_cycles=1_500,
                                         drain_cycles=6_000),
        )
        grid = sweep_grid(["baseline", "static", "wire"], [16, 8],
                          ["uniform", "uniDF"])     # 12 cells
        serial = run_sweep(grid, config=config, params=PARAMS,
                           store=ResultStore(tmp_path / "serial"), jobs=1)
        parallel = run_sweep(grid, config=config, params=PARAMS,
                             store=ResultStore(tmp_path / "parallel"), jobs=4)
        assert grid_bytes(serial.results) == grid_bytes(parallel.results)
        assert parallel.wall_s <= serial.wall_s / 2


# ---------------------------------------------------------------------------
# repetition statistics (the t-table satellite)
# ---------------------------------------------------------------------------

class TestTTable:
    def test_exact_rows(self):
        assert t_critical(1) == pytest.approx(12.706)
        assert t_critical(4) == pytest.approx(2.776)
        assert t_critical(120) == pytest.approx(1.980)

    def test_between_rows_rounds_down_conservatively(self):
        assert t_critical(11) == pytest.approx(2.228)   # df=10 row
        assert t_critical(45) == pytest.approx(2.021)   # df=40 row

    def test_beyond_table_is_normal_limit(self):
        assert t_critical(500) == pytest.approx(1.960)

    def test_df_validated(self):
        with pytest.raises(ValueError):
            t_critical(0)

    def test_halfwidth_uses_sample_count(self):
        five = RepeatedMeasure((1.0, 2.0, 3.0, 4.0, 5.0))
        expected = t_critical(4) * five.std / (5 ** 0.5)
        assert five.confidence_halfwidth() == pytest.approx(expected)
        # A 3-sample measure must use the wider df=2 value, not df=4's.
        three = RepeatedMeasure((1.0, 2.0, 3.0))
        assert three.confidence_halfwidth() == pytest.approx(
            t_critical(2) * three.std / (3 ** 0.5)
        )

    def test_explicit_override_kept(self):
        m = RepeatedMeasure((1.0, 2.0, 3.0))
        assert m.confidence_halfwidth(t_value=10.0) == pytest.approx(
            10.0 * m.std / (3 ** 0.5)
        )

    def test_single_sample_has_no_halfwidth(self):
        assert RepeatedMeasure((1.0,)).confidence_halfwidth() == 0.0


# ---------------------------------------------------------------------------
# the CLI verb
# ---------------------------------------------------------------------------

class TestSweepCLI:
    def test_cold_then_warm(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["sweep", "--styles", "baseline", "--widths", "16",
                "--workloads", "uniform", "--fast", "--jobs", "1",
                "--cache", str(tmp_path / "cache"),
                "--out", str(tmp_path / "sweep.json")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 cache hits" not in out
        assert (tmp_path / "sweep.json").exists()
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert payload["summary"]["cache_misses"] == 1

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 cache hits, 0 simulated" in out
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert payload["summary"]["cache_hits"] == 1
        assert payload["jobs"][0]["cached"] is True
