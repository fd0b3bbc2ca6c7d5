"""``control_loop``: the online reconfiguration control plane.

The timed section is one ``run_closed_loop`` over a three-phase workload
(ingest -> decide -> compile -> apply every 500 cycles), then direct
``ShortcutDecider.decide`` calls on a seeded drifting 100x100 matrix that
alternate a moved and an unchanged placement.  ``decide`` is most of the
loop's host time, so a kernel gain barely registers here while a cheaper
unchanged-placement path must.  An *op* is a decision.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.control import (
    ShortcutDecider, TrafficProfile, compile_configuration, run_closed_loop,
)
from repro.core.online import PhasedSource
from repro.experiments import ExperimentRunner
from repro.noc import Simulator
from repro.traffic import ProbabilisticTraffic

from harness import Context, Timed, median, sim_config, timed_us

PHASES = ("hotBiDF", "2Hotspot", "uniDF")
CONTROL = "epoch=500,min=20"
ACCESS_POINTS, BUDGET = 50, 16


@dataclass
class State:
    runner: ExperimentRunner
    workload: str
    decider: ShortcutDecider
    matrices: list            # one per direct decide call


class ControlLoop:
    name = "control_loop"
    setup_repeats = 3
    reuse_state = False

    def setup(self, ctx: Context, profiled: bool = False) -> State:
        measure = ctx.size(4500, minimum=1500)
        config = sim_config(200, measure, ctx.size(3000, minimum=1000),
                            traffic_seed=ctx.traffic_seed())
        runner = ExperimentRunner(config)
        topo = runner.topology
        decider = ShortcutDecider(
            topo, topo.rf_enabled_routers(ACCESS_POINTS), budget=BUDGET)
        # Drift: every second call sees fresh heavy pairs on top of the
        # accumulated matrix; the call after it sees the same matrix with
        # the placement just proposed, so nothing may move.
        rng = np.random.default_rng(ctx.seed)
        n = topo.num_routers
        matrix = rng.random((n, n))
        matrices = []
        for _ in range(ctx.size(3, minimum=1)):
            matrix = matrix + rng.random((n, n))
            for _ in range(4):
                matrix[rng.integers(n), rng.integers(n)] += 50.0
            matrices += [matrix, matrix]
        workload = f"phased:{'+'.join(PHASES)}@{measure // len(PHASES)}"
        return State(runner, workload, decider, matrices)

    def teardown(self, state: State) -> None:
        pass

    # -- timed section ------------------------------------------------------

    def run(self, ctx: Context, state: State, recorder) -> Timed:
        def span(name, layer):
            return (recorder.span(name, layer, trace_id=name)
                    if recorder is not None else nullcontext())

        begin = time.perf_counter()
        with span("run_closed_loop", "control.loop"):
            run = run_closed_loop(state.runner, state.workload,
                                  control=CONTROL)
        loop_s = time.perf_counter() - begin
        current: tuple = ()
        decide_ms, reasons = [], []
        for index, matrix in enumerate(state.matrices):
            start = time.perf_counter()
            with span(f"decide-{index}", "control.decide"):
                decision = state.decider.decide(matrix, current)
            decide_ms.append((time.perf_counter() - start) * 1e3)
            reasons.append(decision.reason)
            current = decision.shortcuts
        wall = time.perf_counter() - begin

        stats = run.result.stats
        summary = run.summary()
        timed = Timed(
            wall_s=wall, ops=summary["records"] + len(decide_ms),
            op_ms=decide_ms, sim_cycles=stats.activity.cycles,
            latency_sum=stats.latency_sum, delivered=stats.delivery_events,
            power_w=[run.result.total_power_w],
            switch_traversals=stats.activity.switch_traversals)
        if stats.delivered_packets != stats.injected_packets:
            timed.failed = summary["records"]     # the loop did not drain
        timed.extra.update(loop_s=loop_s, summary=summary, reasons=reasons,
                           shortcuts=current)
        timed.pin = {
            "journal_digest": run.journal_digest,
            "stats_digest": stats.digest(),
            "decisions": summary["records"],
            "applied": summary["applied"],
            "skipped": summary["skipped"],
            "overhead_cycles": summary["overhead_cycles"],
            "direct_reasons": ",".join(reasons),
            "sim_avg_latency_cycles": timed.latency_sum / timed.delivered,
            "sim_power_w": run.result.total_power_w,
        }
        return timed

    # -- checks and probes --------------------------------------------------

    def verify(self, ctx: Context, state: State, timed: Timed) -> int:
        """Re-deciding on an unchanged matrix must not move the placement."""
        return sum(1 for reason in timed.extra["reasons"][1::2]
                   if reason != "unchanged")

    def probes(self, ctx: Context, state: State, base: Timed, traced: Timed,
               recorder) -> tuple[dict, int]:
        runner, topo = state.runner, state.runner.topology
        summary = base.extra["summary"]
        profile = TrafficProfile(topo.num_routers)
        shortcuts = base.extra["shortcuts"]
        with recorder.span("compile_configuration", "control.compiler",
                           trace_id="compile"):
            start = time.perf_counter()
            band_config, _ = compile_configuration(topo, shortcuts)
            compile_ms = (time.perf_counter() - start) * 1e3
        with recorder.span("static_run", "noc.kernel", trace_id="static"):
            start = time.perf_counter()
            source = PhasedSource(
                [ProbabilisticTraffic(topo, runner.pattern(name),
                                      runner.rate(name),
                                      seed=runner.config.traffic_seed)
                 for name in PHASES],
                int(state.workload.rsplit("@", 1)[1]))
            Simulator(runner.design("baseline", 16).new_network(), [source],
                      runner.config.sim).run()
            static_s = time.perf_counter() - start
        moved = traced.op_ms[0::2]
        unchanged = traced.op_ms[1::2]
        layers = {
            "control.profile.record_us": timed_us(
                lambda: profile.record(3, 96, 39), 5000),
            "control.profile.matrix_us": timed_us(profile.matrix, 500),
            "control.profile.decay_us": timed_us(profile.decay_window, 500),
            "control.decide.moved_ms": median(moved),
            "control.decide.unchanged_ms": median(unchanged),
            "control.compiler.compile_ms": compile_ms,
            "control.compiler.noop_ms": timed_us(
                lambda: compile_configuration(topo, shortcuts, band_config),
                5) / 1e3,
            "control.loop.decisions": summary["records"],
            "control.loop.applied": summary["applied"],
            "control.loop.skipped": summary["skipped"],
            "control.loop.overhead_cycles": summary["overhead_cycles"],
            "control.loop.static_wall_s": static_s,
            "control.loop.control_plane_s": base.extra["loop_s"] - static_s,
        }
        return layers, 0


WORKLOADS = [ControlLoop()]
