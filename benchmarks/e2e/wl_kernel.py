"""``kernel_sparse``, ``kernel_dense``, ``kernel_paths``: the cycle kernel.

Each workload is a list of *windows* — prepared, unrun simulations built
in set-up through ``ExperimentRunner.prepare_*`` — whose
``Simulator.start()`` drive is advanced in slices of
:data:`OP_CYCLES` cycles inside the timed section.  Slicing is invisible
to the simulation (``SimulatorDrive``), and gives one host-time sample
per slice; an *op* on these workloads is one slice.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from repro.experiments import ExperimentRunner
from repro.noc import RoutingPolicy
from repro.noc.kernel import KERNELS, resolve_kernel
from repro.noc.topology import build_topology
from repro.obs.profile import StageProfile
from repro.params import DEFAULT_PARAMS
from repro.shortcuts.selection import select_architecture_shortcuts
from repro.traffic import ProbabilisticTraffic

from harness import TRACE_WORK, Context, Timed, median, sim_config

#: Simulated cycles per op (one ``SimulatorDrive.advance`` slice).
OP_CYCLES = 100
WARMUP, DRAIN = 500, 4000

FAULTS = "band:3;link:12-13@1000-3000;router:45@2000-4000"


# -- window recipes: (runner, stage_profile) -> PreparedRun -------------------

def _static(runner, profile, **kwargs):
    design = runner.design("static", 16, topology=kwargs.pop("topology", None))
    return runner.prepare_unicast(design, "uniform", stage_profile=profile,
                                  **kwargs)


def _static_adaptive_routing(runner, profile):
    # E2's adaptive case: the static shortcut set under the
    # congestion-adaptive routing policy.
    design = dataclasses.replace(runner.design("static", 16),
                                 policy=RoutingPolicy(adaptive=True))
    return runner.prepare_unicast(design, "uniform", stage_profile=profile)


def _multicast(realization):
    def recipe(runner, profile):
        design = runner.design("adaptive+mc", 16, workload="uniform")
        return runner.prepare_multicast(design, realization, 20,
                                        stage_profile=profile)
    return recipe


RECIPES = {
    "sparse": _static,
    "dense": _static_adaptive_routing,
    "fault": lambda runner, profile: _static(runner, profile, faults=FAULTS),
    "vct": _multicast("vct"),
    "rf": _multicast("rf"),
    "torus": lambda runner, profile: _static(runner, profile,
                                             topology="torus"),
}


@dataclass
class Window:
    name: str
    prep: object                      # PreparedRun
    profile: StageProfile | None
    stats: object = None              # NetworkStats, once run


@dataclass
class State:
    runner: ExperimentRunner
    windows: list
    design_ms: float


class KernelWorkload:
    """Windows of one measured length under one injection rate."""

    setup_repeats = 3
    reuse_state = False

    def __init__(self, name: str, windows: tuple, measure_cycles: int,
                 rate: float | None):
        self.name = name
        self.window_names = windows
        self.measure_cycles = measure_cycles   # per window, at reference
        self.rate = rate                       # uniform msg/comp/cycle

    def _config(self, ctx: Context, measure: int, kernel: str | None = None):
        rates = {"uniform": self.rate} if self.rate is not None else None
        return sim_config(WARMUP, measure, DRAIN, kernel=kernel, rates=rates,
                          traffic_seed=ctx.traffic_seed())

    def _measure(self, ctx: Context) -> int:
        return ctx.size(self.measure_cycles, minimum=2 * OP_CYCLES)

    def _build(self, ctx: Context, measure: int, profiled: bool,
               names: tuple, kernel: str | None = None) -> State:
        runner = ExperimentRunner(self._config(ctx, measure, kernel))
        start = time.perf_counter()
        windows = []
        for name in names:
            profile = StageProfile() if profiled else None
            windows.append(Window(name, RECIPES[name](runner, profile),
                                  profile))
        return State(runner, windows,
                     (time.perf_counter() - start) * 1e3)

    def setup(self, ctx: Context, profiled: bool = False) -> State:
        return self._build(ctx, self._measure(ctx), profiled,
                           self.window_names)

    def teardown(self, state: State) -> None:
        pass

    # -- timed section ------------------------------------------------------

    def run(self, ctx: Context, state: State, recorder) -> Timed:
        spans = []
        for window in state.windows:
            sim = window.prep.simulator
            op_ms = []
            start = mark = time.perf_counter()
            drive = sim.start()
            while not drive.done:
                drive.advance(OP_CYCLES)
                now = time.perf_counter()
                op_ms.append((now - mark) * 1e3)
                mark = now
            window.stats = drive.finish()
            spans.append((start, time.perf_counter(), op_ms))
        # Everything below is bookkeeping, outside the timed section; so
        # is packaging (power model): these workloads time the kernel.
        timed = Timed(wall_s=sum(end - start for start, end, _ in spans),
                      ops=0)
        counts = timed.extra["counts"] = {}
        for window, (start, end, op_ms) in zip(state.windows, spans):
            stats = window.stats
            cycles = window.prep.simulator.network.cycle
            if recorder is not None:
                parent = recorder.add(f"window:{window.name}", "noc.kernel",
                                      start, end,
                                      trace_id=f"{self.name}/{window.name}")
                recorder.children_within(
                    parent, window.profile.as_dict(), "noc.kernel")
            timed.ops += len(op_ms)
            timed.op_ms += op_ms
            if stats.delivered_packets != stats.injected_packets:
                timed.failed += len(op_ms)        # window did not drain
            timed.sim_cycles += cycles
            timed.latency_sum += stats.latency_sum
            timed.delivered += stats.delivery_events
            timed.switch_traversals += stats.activity.switch_traversals
            timed.power_w.append(
                window.prep.finish(stats).total_power_w)
            timed.pin[f"{window.name}.stats_digest"] = stats.digest()
            timed.pin[f"{window.name}.cycles"] = cycles
            timed.extra[f"{window.name}.step_us"] = (
                (end - start) * 1e6 / cycles)
            for name, value in (
                ("cycles", cycles),
                ("buffer_writes", stats.activity.buffer_writes),
                ("switch_traversals", stats.activity.switch_traversals),
                ("rf_flits", stats.activity.rf_flits),
                ("injected_flits", stats.injected_flits),
                ("delivered_flits", stats.delivered_flits),
                ("escape_packets", stats.escape_packets),
                ("fault_drops", stats.fault_drops),
                ("fault_retries", stats.fault_retries),
                ("fault_reroutes", stats.fault_reroutes),
                ("delivery_events", stats.delivery_events
                 if window.name in ("vct", "rf") else 0),
            ):
                counts[name] = counts.get(name, 0) + value
        timed.pin["sim_avg_latency_cycles"] = (
            timed.latency_sum / timed.delivered)
        timed.pin["sim_power_w"] = sum(timed.power_w) / len(timed.power_w)
        return timed

    # -- checks and probes --------------------------------------------------

    def _kernel_runs(self, ctx: Context, share: float, kernels) -> dict:
        """``kernels`` on the first window at ``share`` of the untraced
        length, in this run: name -> (host us per cycle, stats digest)."""
        full = self._measure(ctx) / (TRACE_WORK if ctx.traced else 1.0)
        measure = max(2 * OP_CYCLES, int(full * share))
        out = {}
        for kernel in kernels:
            state = self._build(ctx, measure, False, self.window_names[:1],
                                kernel)
            sim = state.windows[0].prep.simulator
            start = time.perf_counter()
            stats = sim.run()
            wall = time.perf_counter() - start
            out[kernel] = (wall * 1e6 / sim.network.cycle, stats.digest())
        return out

    def _oracle_mismatches(self, runs: dict) -> int:
        default = runs[resolve_kernel()][1]
        return sum(1 for _, digest in runs.values() if digest != default)

    def verify(self, ctx: Context, state: State, timed: Timed) -> int:
        """Off the pinned inputs, cross-check against the oracle kernel."""
        if ctx.pinned or ctx.traced:        # traced runs probe it anyway
            return 0
        return self._oracle_mismatches(self._kernel_runs(
            ctx, 0.05, {resolve_kernel(), "reference"}))

    def probes(self, ctx: Context, state: State, base: Timed, traced: Timed,
               recorder) -> tuple[dict, int]:
        counts = base.extra["counts"]
        stages = {}
        for window in state.windows:
            for key, seconds in window.profile.as_dict().items():
                stages[key] = stages.get(key, 0.0) + seconds
        layers = {
            "noc.kernel.step_us": base.wall_s * 1e6 / base.sim_cycles,
            **{f"noc.kernel.{key}": value for key, value in stages.items()},
            "noc.kernel.stage_unattributed_s": sum(
                recorder.self_total(f"window:{w.name}")
                for w in state.windows),
            **{f"noc.kernel.{name}": counts[name] for name in (
                "cycles", "buffer_writes", "switch_traversals", "rf_flits",
                "injected_flits", "delivered_flits", "escape_packets")},
            "faults.drops": counts["fault_drops"],
            "faults.retries": counts["fault_retries"],
            "faults.reroutes": counts["fault_reroutes"],
            "multicast.delivery_events": counts["delivery_events"],
        }
        if self.name == "kernel_paths":
            for window in state.windows:
                layers[f"kernel_paths.{window.name}_step_us"] = (
                    base.extra[f"{window.name}.step_us"])
        runs = self._kernel_runs(ctx, 0.1, KERNELS)
        for kernel in ("reference", "fast", "batch"):
            layers[f"noc.kernel.{kernel}_step_us"] = runs.get(
                kernel, (0.0, ""))[0]
        mismatches = self._oracle_mismatches(runs)
        layers["noc.kernel.oracle_mismatches"] = mismatches
        layers.update(self._traffic_probe(ctx, state))
        layers.update(design_probes(state.runner))
        layers["experiments.runner.design_ms"] = state.design_ms
        return layers, mismatches

    def _traffic_probe(self, ctx: Context, state: State) -> dict:
        """Replay the uniform source alone over the same cycles and seed."""
        runner = state.runner
        source = ProbabilisticTraffic(
            runner.topology, runner.pattern("uniform"),
            runner.rate("uniform"), seed=runner.config.traffic_seed)
        cycles = WARMUP + self._measure(ctx)
        messages = 0
        start = time.perf_counter()
        for cycle in range(cycles):
            messages += len(source.sample_messages(cycle))
        wall = time.perf_counter() - start
        return {"traffic.sample_us_per_cycle": wall * 1e6 / cycles,
                "traffic.messages": messages}


def design_probes(runner: ExperimentRunner) -> dict:
    """Standalone costs of the layers a design build goes through."""
    def build_all():
        for provider in ("mesh", "cmesh", "torus"):
            build_topology(DEFAULT_PARAMS.mesh, provider)

    samples = []
    for _ in range(5):
        start = time.perf_counter()
        build_all()
        samples.append(time.perf_counter() - start)
    design = runner.design("static", 16)
    networks = []
    for _ in range(5):
        start = time.perf_counter()
        design.new_network()
        networks.append(time.perf_counter() - start)
    start = time.perf_counter()
    select_architecture_shortcuts(runner.topology)
    select_ms = (time.perf_counter() - start) * 1e3
    return {
        "noc.topology.build_ms": median(samples) * 1e3,
        "noc.network.build_ms": median(networks) * 1e3,
        "shortcuts.select_ms": select_ms,
    }


WORKLOADS = [
    # 0.001 msg/comp/cycle: a near-idle network, per-cycle fixed cost.
    KernelWorkload("kernel_sparse", ("sparse",), 380_000, 0.001),
    # 0.07: E2's pre-knee load, per-flit RC/VA and SA/ST work dominates.
    KernelWorkload("kernel_dense", ("dense",), 11_000, 0.07),
    # Default rates through the kernel's special-case paths.
    KernelWorkload("kernel_paths", ("fault", "vct", "rf", "torus"),
                   9_500, None),
]
