"""Shared machinery of the end-to-end benchmark.

A workload (see ``wl_*.py``) provides ``setup`` / ``run`` / ``verify`` /
``probes`` / ``teardown``; this module turns one workload and one
:class:`Context` into a record: the end-to-end metrics from an untraced
timed section, or — in a traced run — the per-layer metrics from an
untraced and a traced repeat at :data:`TRACE_WORK` of the size plus the
workload's standalone probes.

Work is fixed, never timed out: every size is ``base x work`` where
``work = seconds / REFERENCE_SECONDS x scale`` (``x TRACE_WORK`` when
traced), so counts repeat exactly for equal arguments.  The base sizes
were chosen so a timed section takes about ``seconds`` host seconds on
the seed code on the reference machine (README, "Reference numbers").
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
EXPECTED = HERE / "expected.json"

#: ``--seconds`` at which the base sizes below apply unscaled.
REFERENCE_SECONDS = 8
#: A traced run repeats the timed section twice (untraced, then traced)
#: and adds probes; it runs both at this share of the untraced size so
#: the whole run costs about what an untraced run costs.
TRACE_WORK = 0.4
#: The (seed, seconds, scale) whose outputs ``expected.json`` pins.
PINNED = {"seed": 1, "seconds": REFERENCE_SECONDS, "scale": 1.0}


def catalogue() -> dict:
    """``BENCHMARK.json``: the one list of metric names, units and bounds."""
    return json.loads((REPO / "BENCHMARK.json").read_text())


# -- statistics ---------------------------------------------------------------

def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def timed_us(fn, repeats: int) -> float:
    """Median host microseconds of ``fn()`` over ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return median(samples) * 1e6


# -- run context --------------------------------------------------------------

@dataclass
class Context:
    """Everything a workload may read: arguments and scratch space."""

    workload: str
    seed: int = 1
    seconds: float = REFERENCE_SECONDS
    scale: float = 1.0
    traced: bool = False
    out_dir: Path = HERE / "out"

    @property
    def work(self) -> float:
        work = self.seconds / REFERENCE_SECONDS * self.scale
        return work * TRACE_WORK if self.traced else work

    @property
    def pinned(self) -> bool:
        return (self.seed == PINNED["seed"]
                and self.seconds == PINNED["seconds"]
                and self.scale == PINNED["scale"])

    def size(self, base: float, minimum: int = 1) -> int:
        """A work size: ``base`` at reference length, scaled, floored."""
        return max(minimum, int(round(base * self.work)))

    def traffic_seed(self, index: int = 0) -> int:
        return self.seed * 100 + index

    def rng(self, tag: str) -> random.Random:
        return random.Random(f"{self.seed}/{tag}")

    @property
    def scratch(self) -> Path:
        """This process's scratch root, inside the checkout."""
        return self.out_dir / "tmp" / f"{self.workload}-{os.getpid()}"

    def tmpdir(self, name: str) -> Path:
        """A fresh, empty scratch directory."""
        path = self.scratch / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def sim_config(warmup: int, measure: int, drain: int, *, traffic_seed: int,
               profile_cycles: int = 2000, kernel: str | None = None,
               rates: dict | None = None):
    """An ``ExperimentConfig`` with explicit windows and traffic seed."""
    from repro.experiments import ExperimentConfig
    from repro.experiments.config import DEFAULT_RATES
    from repro.params import SimulationParams

    return ExperimentConfig(
        sim=SimulationParams(warmup_cycles=warmup, measure_cycles=measure,
                             drain_cycles=drain, kernel=kernel),
        rates={**DEFAULT_RATES, **(rates or {})},
        profile_cycles=profile_cycles,
        traffic_seed=traffic_seed,
    )


# -- what a timed section returns ---------------------------------------------

@dataclass
class Timed:
    """One timed section's raw outcome (host times, counts, outputs)."""

    wall_s: float
    ops: int                              # attempted operations
    failed: int = 0                       # failed or refused operations
    op_ms: list = field(default_factory=list)   # per-op host latency
    sim_cycles: int = 0                   # simulated cycles executed
    latency_sum: float = 0.0              # pooled simulated packet latency
    delivered: int = 0
    power_w: list = field(default_factory=list)
    switch_traversals: int = 0
    #: Deterministic outputs compared with ``expected.json`` (digests,
    #: counts, simulated values).
    pin: dict = field(default_factory=dict)
    #: Extra named values (``paper_latency_err``, per-layer counts).
    extra: dict = field(default_factory=dict)


def end_to_end(timed: Timed, setup_s: float) -> dict:
    """The bounded end-to-end metrics of one untraced timed section."""
    return {
        "setup_s": (setup_s, None),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            None),
        "ops_per_s": ((timed.ops - timed.failed) / timed.wall_s, timed.ops),
        "op_p50_ms": (median(timed.op_ms), len(timed.op_ms)),
        "sim_avg_latency_cycles": (
            timed.latency_sum / timed.delivered, timed.delivered),
        "sim_power_w": (statistics.fmean(timed.power_w), len(timed.power_w)),
    }


def demoted(timed: Timed, mismatches: int) -> dict:
    """The issue's end-to-end names the driver's contract cannot bound.

    They are 0 on the seed code or undefined on some workloads, so they
    are emitted, unbounded, with the per-layer set.
    """
    return {
        "failed_share": timed.failed / timed.ops,
        "digest_mismatches": mismatches,
        "sim_cycles_per_s": timed.sim_cycles / timed.wall_s,
        "host_us_per_flit_hop": (
            timed.wall_s * 1e6 / timed.switch_traversals
            if timed.switch_traversals else 0.0),
        "paper_latency_err": timed.extra.get("paper_latency_err", 0.0),
        # A p99 needs >= 1000 samples (>= 10 beyond it).
        "op_p99_ms": (percentile(timed.op_ms, 0.99)
                      if len(timed.op_ms) >= 1000 else 0.0),
    }


# -- expected outputs ---------------------------------------------------------

def load_expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def pin_mismatches(pin: dict, expected: dict | None) -> list[str]:
    """Names whose value differs from the pinned one (all, if unpinned)."""
    if expected is None:
        return sorted(pin)
    bad = []
    for name in sorted(set(pin) | set(expected)):
        got, want = pin.get(name), expected.get(name)
        if isinstance(got, float) and isinstance(want, (int, float)):
            if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
                bad.append(name)
        elif got != want:
            bad.append(name)
    return bad


# -- cross-workload probes ----------------------------------------------------

def interpreter_probes(repeats: int = 3) -> dict:
    """``import repro`` and ``repro --version`` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def wall(argv) -> float:
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True,
                       timeout=120)
        return time.perf_counter() - start

    return {
        "repro.import_s": median(
            [wall([sys.executable, "-c", "import repro"])
             for _ in range(repeats)]),
        "cli.version_s": median(
            [wall([sys.executable, "-m", "repro", "--version"])
             for _ in range(repeats)]),
    }


# -- leave no process behind --------------------------------------------------

def _child_pids() -> list[int]:
    """Processes whose parent is this one (zombies included)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue                      # ended while we looked
        # "pid (comm) state ppid ...": comm may itself hold ") ".
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def stop_children(grace_s: float = 10.0) -> None:
    """Stop every process this one started, and wait until each has ended.

    The serve tier's ``JobExecutor`` builds its pool on the spawn
    context, whose first lock starts multiprocessing's resource tracker:
    a helper that ends only once its parent has gone, so it would outlive
    the run.  Closing its pipe ends it now; whatever else is still a
    child (a pool worker after a failed run) is terminated, then killed.
    """
    try:
        from multiprocessing import resource_tracker
        resource_tracker._resource_tracker._stop()
    except Exception:
        pass                              # not running, or no such hook
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = _child_pids()
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        while pids and time.monotonic() < deadline:
            for pid in list(pids):
                try:
                    if os.waitpid(pid, os.WNOHANG)[0]:
                        pids.remove(pid)
                except ChildProcessError:
                    pids.remove(pid)
            if pids:
                time.sleep(0.01)
        if not pids:
            return


# -- the two run shapes -------------------------------------------------------

def _setup(workload, ctx: Context, repeats: int, profiled: bool = False):
    """Set up ``repeats`` times; keep the last state, report the median."""
    walls = []
    state = None
    for _ in range(repeats):
        if state is not None:
            workload.teardown(state)
        start = time.perf_counter()
        state = workload.setup(ctx, profiled)
        walls.append(time.perf_counter() - start)
    return state, median(walls)


def run_untraced(workload, ctx: Context, import_s: float) -> dict:
    """End-to-end record: set-up (repeated), one timed section, checks."""
    state, setup_wall = _setup(workload, ctx, workload.setup_repeats)
    try:
        timed = workload.run(ctx, state, None)
        mismatches = workload.verify(ctx, state, timed)
    finally:
        workload.teardown(state)
    return _record(ctx, timed, mismatches, "untraced",
                   e2e=end_to_end(timed, import_s + setup_wall))


def run_traced(workload, ctx: Context) -> dict:
    """Per-layer record: untraced + traced repeat, spans, probes."""
    recorder = SpanRecorder()
    state, _ = _setup(workload, ctx, 1)
    try:
        base = workload.run(ctx, state, None)
        if not workload.reuse_state:
            workload.teardown(state)
            state, _ = _setup(workload, ctx, 1, profiled=True)
        traced = workload.run(ctx, state, recorder)
        mismatches = workload.verify(ctx, state, base)
        # The traced repeat must reproduce the untraced outputs.
        mismatches += len(pin_mismatches(traced.pin, base.pin))
        layers, found = workload.probes(ctx, state, base, traced, recorder)
        mismatches += found
    finally:
        workload.teardown(state)
    layers.update(interpreter_probes())
    layers["trace.overhead_ratio"] = traced.wall_s / base.wall_s
    layers["trace.spans"] = len(recorder.spans)
    recorder.write_jsonl(ctx.out_dir / f"spans-{ctx.workload}.jsonl")
    record = _record(ctx, base, mismatches, "traced")
    layers.update(demoted(base, record["digest_mismatches"]))
    record["per_layer"] = layers
    return record


def _record(ctx: Context, timed: Timed, mismatches: int, mode: str,
            e2e: dict | None = None) -> dict:
    if ctx.pinned:
        expected = load_expected().get("workloads", {}).get(
            ctx.workload, {}).get(mode)
        mismatches += len(pin_mismatches(timed.pin, expected))
    record = {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "mode": mode,
        "pinned": ctx.pinned,
        "correct": mismatches == 0,
        "attempted": timed.ops,
        "failed": timed.failed,
        "digest_mismatches": mismatches,
        "timed_s": timed.wall_s,
        "pin": timed.pin,
    }
    if e2e is not None:
        record["end_to_end"] = {
            name: {"value": value, "samples": samples}
            for name, (value, samples) in e2e.items()
        }
        record["also"] = demoted(timed, mismatches)
    return record
