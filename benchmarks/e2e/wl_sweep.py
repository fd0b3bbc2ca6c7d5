"""``sweep_cold``: a 64-cell design-space sweep into an empty store.

Short windows make the per-cell overhead (design build, shortcut
selection, routing tables, power model, encode, store write) comparable
to the simulation itself.  Untraced, the timed section is one
``run_sweep(..., jobs=1)``; traced, the benchmark walks every cell by
hand through the same public calls under one parent span per cell, so
the two per-cell walls can be compared.  An *op* is a cell.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from repro.campaign import CampaignSpec, run_campaign
from repro.exec import (
    ResultStore, decode_result, encode_result, job_digest, normalize_spec,
    run_sweep, sweep_grid,
)
from repro.experiments import ExperimentRunner
from repro.experiments.export import jsonable
from repro.params import DEFAULT_PARAMS
from repro.shortcuts.region import select_region_shortcuts
from repro.shortcuts.selection import select_application_shortcuts

from harness import Context, Timed, median, sim_config, timed_us
from wl_kernel import design_probes

STYLES = ("baseline", "static", "wire", "adaptive")
WIDTHS = (16, 8)
PATTERNS = ("uniform", "1Hotspot", "uniDF", "hotBiDF")
#: The paper's headline latency ratios against the 16 B baseline.
PAPER_RATIO = {"static": 0.80, "adaptive": 0.68}


def payload_digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def paper_latency_err(specs, results) -> float:
    """Mean |style16 / baseline16 - paper ratio| over the grid's workloads."""
    latency: dict = {}
    for spec, result in zip(specs, results):
        if spec.link_bytes == 16:
            latency.setdefault((spec.style, spec.workload), []).append(
                result.avg_latency)
    mean = {key: sum(vals) / len(vals) for key, vals in latency.items()}
    errors = []
    for style, ratio in PAPER_RATIO.items():
        errors.append(sum(
            abs(mean[(style, w)] / mean[("baseline", w)] - ratio)
            for w in PATTERNS) / len(PATTERNS))
    return sum(errors) / len(errors)


@dataclass
class State:
    config: object
    widths: tuple
    seeds: tuple
    specs: list
    root: Path


class SweepCold:
    name = "sweep_cold"
    setup_repeats = 3
    reuse_state = False

    def setup(self, ctx: Context, profiled: bool = False) -> State:
        config = sim_config(ctx.size(50), ctx.size(200, minimum=20), 1500,
                            traffic_seed=ctx.traffic_seed())
        # A traced run sweeps one traffic seed at 16 B (16 cells): the
        # per-cell fixed cost does not shrink with the windows, only the
        # cell count does.
        widths = WIDTHS[:1] if ctx.traced else WIDTHS
        seeds = tuple(ctx.traffic_seed(i)
                      for i in range(1 if ctx.traced else 2))
        specs = [normalize_spec(spec, config) for spec in
                 sweep_grid(STYLES, widths, PATTERNS, seeds=seeds)]
        return State(config, widths, seeds, specs, ctx.tmpdir("store"))

    def teardown(self, state: State) -> None:
        pass

    # -- timed section ------------------------------------------------------

    def run(self, ctx: Context, state: State, recorder) -> Timed:
        store = ResultStore(state.root)
        if recorder is None:
            start = time.perf_counter()
            report = run_sweep(state.specs, config=state.config, store=store,
                               jobs=1)
            wall = time.perf_counter() - start
            results = report.results
            timed = Timed(
                wall_s=wall, ops=len(state.specs),
                op_ms=[o.wall_s * 1e3 for o in report.outcomes])
            timed.extra["profile"] = report.summary()["profile"]
            timed.extra["retries"] = sum(
                o.attempts - 1 for o in report.outcomes)
        else:
            start = time.perf_counter()
            results, op_ms, cycles = self._handwalk(state, store, recorder)
            wall = time.perf_counter() - start
            timed = Timed(wall_s=wall, ops=len(state.specs), op_ms=op_ms)
            timed.extra["walk_cycles"] = cycles
        timed.extra["store"] = store.stats.as_dict()
        for result in results:
            stats = result.stats
            timed.sim_cycles += stats.activity.cycles
            timed.latency_sum += stats.latency_sum
            timed.delivered += stats.delivery_events
            timed.switch_traversals += stats.activity.switch_traversals
            timed.power_w.append(result.total_power_w)
            if stats.delivered_packets != stats.injected_packets:
                timed.failed += 1
        digests = [job_digest(spec, state.config, DEFAULT_PARAMS)
                   for spec in state.specs]
        timed.extra["payloads"] = [
            (digest, payload_digest(encode_result(result)))
            for digest, result in zip(digests, results)]
        timed.extra["paper_latency_err"] = paper_latency_err(
            state.specs, results)
        timed.pin = {
            "cells": len(results),
            "cells_digest": payload_digest(timed.extra["payloads"]),
            "sim_avg_latency_cycles": timed.latency_sum / timed.delivered,
            "sim_power_w": sum(timed.power_w) / len(timed.power_w),
            "paper_latency_err": timed.extra["paper_latency_err"],
        }
        return timed

    def _handwalk(self, state: State, store: ResultStore, recorder):
        """Each cell through the calls ``run_sweep`` makes, span by span."""
        runner = ExperimentRunner(state.config)
        results, op_ms, cycles = [], [], 0
        seen_designs = set()
        for index, raw in enumerate(state.specs):
            with recorder.span("cell", "exec.engine",
                               trace_id=f"cell-{index}") as cell:
                with recorder.span("normalize_spec", "exec.jobs"):
                    spec = normalize_spec(raw, state.config)
                with recorder.span("job_digest", "exec.jobs"):
                    digest = job_digest(spec, state.config, runner.params)
                with recorder.span("store.load", "exec.store"):
                    store.load(digest)
                key = (spec.style, spec.link_bytes, spec.design_workload)
                first = key not in seen_designs
                seen_designs.add(key)
                with recorder.span(
                        "runner.design.first" if first else "runner.design",
                        "experiments.runner"):
                    design = runner.design(
                        spec.style, spec.link_bytes,
                        workload=spec.design_workload,
                        num_access_points=spec.num_access_points,
                        adaptive_routing=spec.adaptive_routing)
                with recorder.span("prepare_unicast", "experiments.runner"):
                    prep = runner.prepare_unicast(design, spec.workload,
                                                  seed=spec.seed)
                with recorder.span("simulator.run", "noc.kernel"):
                    stats = prep.simulator.run()
                cycles += prep.simulator.network.cycle
                with recorder.span("finish", "power"):
                    result = prep.finish(stats)
                with recorder.span("encode_result", "exec.serialize"):
                    payload = encode_result(result)
                with recorder.span("store.save", "exec.store"):
                    store.save(digest, payload,
                               meta={"spec": jsonable(spec)})
                with recorder.span("decode_result", "exec.serialize"):
                    results.append(decode_result(payload))
            op_ms.append((cell["end"] - cell["start"]) * 1e3)
        return results, op_ms, cycles

    # -- checks and probes --------------------------------------------------

    def verify(self, ctx: Context, state: State, timed: Timed) -> int:
        """Every reported result equals the entry stored under its digest."""
        store = ResultStore(state.root)
        bad = 0
        for digest, reported in timed.extra["payloads"]:
            payload = store.load(digest)
            if payload is None or payload_digest(payload) != reported:
                bad += 1
        return bad

    def probes(self, ctx: Context, state: State, base: Timed, traced: Timed,
               recorder) -> tuple[dict, int]:
        cells = len(state.specs)
        spans = recorder.spans

        def per_call_us(name: str, average=median) -> float:
            return average([s["end"] - s["start"] for s in spans
                            if s["name"] == name]) * 1e6

        children_s = sum(s["end"] - s["start"] for s in spans
                         if s["parent_id"] is not None)
        start = time.perf_counter()
        warm = run_sweep(state.specs, config=state.config,
                         store=ResultStore(state.root), jobs=1)
        warm_cell_us = (time.perf_counter() - start) * 1e6 / cells
        start = time.perf_counter()
        campaign = run_campaign(
            CampaignSpec(name="e2e", styles=STYLES, widths=state.widths,
                         workloads=PATTERNS, seeds=state.seeds),
            config=state.config, store=ResultStore(state.root),
            directory=ctx.tmpdir("campaign"))
        campaign_cell_us = (time.perf_counter() - start) * 1e6 / cells
        mismatches = (cells - warm.hits) + (cells - campaign.warm)

        runner = ExperimentRunner(state.config)
        design = runner.design("static", 16)
        stats = runner.prepare_unicast(design, "uniform").simulator.run()
        profile = runner.profile("uniform")
        start = time.perf_counter()
        select_application_shortcuts(runner.topology, profile)
        select_region_shortcuts(runner.topology, profile)
        select_ms = (time.perf_counter() - start) * 1e3
        layers = design_probes(runner)
        layers["shortcuts.select_ms"] += select_ms
        warm_store = ResultStore(state.root)
        entries = list(warm_store.entries())
        run_s = recorder.total("simulator.run")
        layers.update({
            **{f"exec.engine.{key}": base.extra["profile"].get(key, 0.0)
               for key in ("simulate_s", "encode_s", "store_save_s",
                           "decode_s")},
            "exec.engine.cell_handwalk_ms": children_s * 1e3 / cells,
            "exec.engine.unattributed_ms_per_cell": (
                (base.wall_s - children_s) * 1e3 / cells),
            "exec.engine.warm_cell_us": warm_cell_us,
            "exec.engine.retries": base.extra["retries"],
            "campaign.warm_overhead_us_per_cell": (
                campaign_cell_us - warm_cell_us),
            "exec.jobs.normalize_us": per_call_us("normalize_spec"),
            "exec.jobs.digest_us": per_call_us("job_digest"),
            "exec.serialize.encode_us": per_call_us("encode_result"),
            "exec.serialize.decode_us": per_call_us("decode_result"),
            "exec.store.save_us": per_call_us("store.save"),
            "exec.store.load_us": timed_us(
                lambda: warm_store.load(base.extra["payloads"][0][0]), 50),
            "exec.store.entry_bytes": (
                sum(p.stat().st_size for p in entries) / len(entries)),
            **{f"exec.store.{key}": base.extra["store"][key]
               for key in ("hits", "misses", "writes", "quarantined")},
            "experiments.runner.design_ms": (
                per_call_us("runner.design.first", statistics.fmean) / 1e3),
            "power.evaluate_us": timed_us(
                lambda: (runner.power_model.power(design, stats),
                         runner.power_model.area(design)), 20),
            "noc.kernel.step_us": run_s * 1e6 / traced.extra["walk_cycles"],
            "noc.kernel.cycles": traced.extra["walk_cycles"],
        })
        return layers, mismatches


WORKLOADS = [SweepCold()]
