"""The one cell pipeline: ``ExperimentRunner.prepare(spec)``.

However a cell is computed — the sweep engine, a store-backed runner, a
pool worker — it goes through one spec → simulator → result → payload
path, so the payload stored at its digest has one shape, its provenance is
its address, and a warm replay is a hit whichever surface wrote the entry.
"""

import dataclasses

import pytest

from repro.control.run import control_spec, run_closed_loop
from repro.exec import (
    JobSpec, ResultStore, job_digest, normalize_spec, run_sweep, sweep_grid,
)
from repro.exec.engine import _run_job
from repro.experiments import FAST_CONFIG, ExperimentRunner
from repro.params import DEFAULT_PARAMS, SimulationParams

CONFIG = dataclasses.replace(
    FAST_CONFIG,
    sim=SimulationParams(warmup_cycles=100, measure_cycles=1_200,
                         drain_cycles=4_000),
)

ONLINE_WORKLOAD = "phased:hotBiDF+uniDF@500"
ONLINE_CONTROL = "epoch=300,min=20"

CELLS = {
    "plain": sweep_grid(["static"], [16], ["uniform"])[0],
    "faulted": sweep_grid(["static"], [16], ["uniform"],
                          faults="link:30-31")[0],
    "torus": sweep_grid(["static"], [16], ["uniform"], topology="torus")[0],
    "multicast-vct": JobSpec(kind="multicast", style="adaptive+mc",
                             workload="multicast-20", realization="vct",
                             locality_percent=20, design_workload="uniform"),
    "online": control_spec(ONLINE_WORKLOAD, control=ONLINE_CONTROL),
}


def _stored(store: ResultStore, spec: JobSpec, params=DEFAULT_PARAMS) -> dict:
    payload = store.load(job_digest(spec, CONFIG, params))
    assert payload is not None
    return payload


@pytest.mark.parametrize("cell", ["plain", "faulted", "multicast-vct",
                                  "online"])
def test_three_writers_one_payload(cell, tmp_path):
    spec = CELLS[cell]
    swept = ResultStore(tmp_path / "swept")
    run_sweep([spec], config=CONFIG, store=swept)
    direct = ResultStore(tmp_path / "direct")
    ExperimentRunner(CONFIG, store=direct).prepare(spec).run()
    shipped = _run_job(normalize_spec(spec, CONFIG), None, False,
                       ExperimentRunner(CONFIG))[0]
    assert _stored(swept, spec) == _stored(direct, spec) == shipped
    assert ("control" in shipped) == (cell == "online")


def test_closed_loop_hits_a_sweep_warmed_store(tmp_path):
    # The journal rides in the result, so an online entry written by the
    # sweep engine (or the serve pool, or a campaign) replays exactly like
    # one `repro control` wrote.
    cold = run_closed_loop(ExperimentRunner(CONFIG), ONLINE_WORKLOAD,
                           control=ONLINE_CONTROL)
    assert len(cold.journal) >= 2
    store = ResultStore(tmp_path / "cache")
    report = run_sweep([CELLS["online"]], config=CONFIG, store=store)
    assert report.results[0].control["summary"] == cold.summary()
    warm_runner = ExperimentRunner(CONFIG, store=store)
    warm = run_closed_loop(warm_runner, ONLINE_WORKLOAD,
                           control=ONLINE_CONTROL)
    assert warm_runner.simulations_run == 0
    assert warm.journal_digest == cold.journal_digest
    assert warm.digest == report.outcomes[0].digest


def test_journal_less_online_entry_is_recomputed_once(tmp_path):
    store = ResultStore(tmp_path / "cache")
    run_sweep([CELLS["online"]], config=CONFIG, store=store)
    digest = job_digest(CELLS["online"], CONFIG, DEFAULT_PARAMS)
    legacy = store.load(digest)
    del legacy["control"]
    store.save(digest, legacy)
    runner = ExperimentRunner(CONFIG, store=store)
    run_closed_loop(runner, ONLINE_WORKLOAD, control=ONLINE_CONTROL)
    assert runner.simulations_run == 1
    assert "control" in store.load(digest)


@pytest.mark.parametrize("cell,provider", [
    *((cell, "mesh") for cell in sorted(CELLS)),
    ("torus", "torus"), ("plain", "torus"), ("online", "torus"),
])
def test_provenance_is_the_address(cell, provider, tmp_path):
    # Under a params-selected provider an explicit request for that same
    # provider still addresses the cell by the spec it was handed.
    params = DEFAULT_PARAMS.with_topology(provider=provider)
    store = ResultStore(tmp_path / "cache")
    report = run_sweep([CELLS[cell]], config=CONFIG, params=params,
                       store=store)
    outcome = report.outcomes[0]
    assert outcome.result.provenance == outcome.digest
    assert _stored(store, CELLS[cell], params)["provenance"] == outcome.digest


@pytest.mark.parametrize("cell", ["plain", "multicast-vct", "online"])
def test_prepared_run_is_idempotent_and_memoized(cell):
    runner = ExperimentRunner(CONFIG)
    prep = runner.prepare(CELLS[cell])
    assert prep.result is None and prep.simulator is not None
    first = prep.run()
    assert prep.run() is first
    assert runner.simulations_run == 1
    again = runner.prepare(CELLS[cell])
    assert again.result is first and again.run() is first
    assert runner.simulations_run == 1


def test_design_object_callers_share_the_memo():
    runner = ExperimentRunner(CONFIG)
    design = runner.design("adaptive+mc", 16, workload="uniform")
    first = runner.run_multicast(design, "vct", 20)
    assert runner.run_multicast(design, "vct", 20) is first
    assert runner.prepare(CELLS["multicast-vct"]).run() is first
    assert runner.simulations_run == 1
