"""B0 — simulator performance baseline (pytest-benchmark proper).

Unlike the figure benches (one-shot table generators), this one uses
pytest-benchmark's repeated timing to track the engine's simulation rate:
cycles per second on the full 10x10 mesh under moderate uniform load.  A
regression here makes every experiment slower, so it is worth a number.

The bench times both registered kernels on the identical window: the
default ``batch`` kernel under pytest-benchmark (that is the number CI
tracks and ``bench_smoke.py`` guards), plus a best-of-N manual timing of
the ``reference`` oracle so the recorded speedup is measured, not
asserted from folklore.  The one gate is relative and same-run, so it is
immune to machine-class drift: the batch kernel must hold at least 1.5x
the reference kernel (it lands around 2.1x on typical hardware — the
gate leaves room for box noise).

Besides the human-readable assertions, the bench writes a
machine-readable ``results/BENCH_b0.json`` — per-kernel cycles/sec, the
measured speedups, the batch kernel's per-stage wall-clock profile, and
the result store's hit/miss behavior on a one-cell sweep — so the
performance trajectory can be tracked across commits.
"""

import time
from pathlib import Path

from repro.exec import ResultStore, run_sweep, sweep_grid
from repro.experiments import ExperimentConfig
from repro.experiments.export import save_json
from repro.noc.simulator import Simulator
from repro.obs import StageProfile
from repro.params import SimulationParams
from repro.traffic import ProbabilisticTraffic

RESULTS_DIR = Path(__file__).parent / "results"

SIM = SimulationParams(warmup_cycles=0, measure_cycles=400, drain_cycles=0)

#: The batch kernel must beat the reference kernel, timed in the same
#: process, by at least this factor (measured ~2.2x; gate absorbs noise).
REQUIRED_BATCH_VS_REFERENCE = 1.5

#: Short windows for the store-behavior probe (a one-cell sweep, run twice).
SWEEP_CONFIG = ExperimentConfig(
    sim=SimulationParams(warmup_cycles=100, measure_cycles=400,
                         drain_cycles=2_000),
    profile_cycles=2_000,
)


def _run_window(runner, design, kernel=None, stage_profile=None):
    """One B0 window (static 16 B design, uniform 0.02, seed 1)."""
    network = design.new_network(kernel=kernel)
    source = ProbabilisticTraffic(
        runner.topology, runner.patterns["uniform"], 0.02, seed=1
    )
    Simulator(network, [source], SIM, stage_profile=stage_profile).run()
    return network.cycle


def _best_of(n, runner, design, kernel):
    """Best-of-``n`` manual wall time of one window; (cycles, best_s)."""
    best = float("inf")
    cycles = 0
    for _ in range(n):
        start = time.perf_counter()
        cycles = _run_window(runner, design, kernel=kernel)
        best = min(best, time.perf_counter() - start)
    return cycles, best


def test_b0_engine_throughput(benchmark, runner):
    design = runner.design("static", 16)

    cycles = benchmark(lambda: _run_window(runner, design))
    assert cycles == 400
    # Sanity floor: the engine must stay above ~200 sim-cycles/second even
    # on slow machines (it runs ~1000+ on typical hardware).
    assert benchmark.stats["mean"] < 2.0
    mean = benchmark.stats["mean"]
    batch_best = benchmark.stats["min"]

    # The reference kernel on the identical window, best-of-3 manual
    # timing (pytest-benchmark owns only one timer per test), compared
    # best against best.
    ref_cycles, ref_best = _best_of(3, runner, design, "reference")
    assert ref_cycles == 400
    ref_cps = ref_cycles / ref_best
    batch_vs_ref = ref_best / batch_best

    # Where the batch kernel's cycle time goes (one profiled window;
    # timed stepping costs ~15-20%, so this run is not the rate record).
    profile = StageProfile()
    _run_window(runner, design, kernel="batch", stage_profile=profile)
    assert profile.cycles == 400

    # Machine-readable perf record: engine rate plus store behavior on a
    # one-cell sweep (second pass must be able to hit the cache).
    store = ResultStore(RESULTS_DIR / "cache")
    specs = sweep_grid(["baseline"], [16], ["uniform"])
    first = run_sweep(specs, config=SWEEP_CONFIG, store=store)
    second = run_sweep(specs, config=SWEEP_CONFIG, store=store)
    assert second.hits == 1 and second.misses == 0

    save_json(
        {
            "bench": "B0",
            "engine": {
                "kernel": "batch",
                "sim_cycles": cycles,
                "wall_s_mean": mean,
                "wall_s_best": batch_best,
                "cycles_per_sec": cycles / mean,
                "stage_profile": profile.as_dict(),
            },
            "engine_reference": {
                "kernel": "reference",
                "sim_cycles": ref_cycles,
                "wall_s_best": ref_best,
                "cycles_per_sec": ref_cps,
            },
            "speedup": {"batch_vs_reference": batch_vs_ref},
            "sweep": {
                "first": first.summary(),
                "warm": second.summary(),
                "store": store.stats.as_dict(),
            },
        },
        RESULTS_DIR / "BENCH_b0.json",
    )
    assert (RESULTS_DIR / "BENCH_b0.json").exists()

    # The gate last, so the honest measurement record survives a trip.
    assert batch_vs_ref >= REQUIRED_BATCH_VS_REFERENCE, (
        f"batch kernel at {cycles / batch_best:,.0f} c/s is only "
        f"{batch_vs_ref:.2f}x the reference kernel "
        f"({ref_cps:,.0f} c/s); need {REQUIRED_BATCH_VS_REFERENCE}x"
    )
