"""Bench smoke: fail if the B0 hot path regressed vs the committed baseline.

Re-times the exact B0 window (static 16 B design, uniform load 0.02,
seed 1, 400 measured cycles, tracing off) with best-of-N manual timing and
compares ``cycles_per_sec`` against the rate recorded for that kernel in
the committed ``results/BENCH_b0.json`` (``engine`` is the registry
default, ``engine_<name>`` any other).  Exits 1 when the current rate
falls more than ``--threshold`` (default 20%) below the baseline — the
cheap CI tripwire between full pytest-benchmark runs, and the guard that
keeps observability instrumentation off the tracing-off hot path.

Usage::

    PYTHONPATH=src python benchmarks/bench_smoke.py [--repeats N]
        [--threshold FRACTION] [--baseline FILE] [--kernel NAME]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.experiments import ExperimentRunner, FAST_CONFIG
from repro.noc import DEFAULT_KERNEL, Simulator, list_kernels
from repro.params import SimulationParams
from repro.traffic import ProbabilisticTraffic

RESULTS_DIR = Path(__file__).parent / "results"

#: The B0 measurement window (must match test_b0_engine_throughput.SIM).
SIM = SimulationParams(warmup_cycles=0, measure_cycles=400, drain_cycles=0)


def measure(repeats: int, kernel: str = DEFAULT_KERNEL) -> tuple[int, float]:
    """Best-of-``repeats`` wall time of one B0 window; returns (cycles, s)."""
    runner = ExperimentRunner(FAST_CONFIG)
    design = runner.design("static", 16)
    best = float("inf")
    cycles = 0
    for _ in range(repeats):
        network = design.new_network(kernel=kernel)
        source = ProbabilisticTraffic(
            runner.topology, runner.patterns["uniform"], 0.02, seed=1
        )
        start = time.perf_counter()
        Simulator(network, [source], SIM).run()
        best = min(best, time.perf_counter() - start)
        cycles = network.cycle
    return cycles, best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions (best-of)")
    parser.add_argument("--threshold", type=float, default=0.2,
                        help="allowed fractional slowdown vs the baseline")
    parser.add_argument("--baseline", type=Path,
                        default=RESULTS_DIR / "BENCH_b0.json",
                        help="committed BENCH_b0.json to compare against")
    parser.add_argument("--kernel",
                        choices=[row["name"] for row in list_kernels()],
                        default=DEFAULT_KERNEL,
                        help="execution kernel to time "
                             f"(default: {DEFAULT_KERNEL})")
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    key = ("engine" if args.kernel == DEFAULT_KERNEL
           else f"engine_{args.kernel}")
    target = baseline[key]["cycles_per_sec"]

    cycles, wall = measure(args.repeats, kernel=args.kernel)
    if cycles != SIM.measure_cycles:
        print(f"FAIL: window ran {cycles} cycles, expected "
              f"{SIM.measure_cycles}", file=sys.stderr)
        return 1
    rate = cycles / wall
    floor = target * (1.0 - args.threshold)
    verdict = "ok" if rate >= floor else "REGRESSION"
    print(f"B0 smoke [{args.kernel}]: {rate:,.0f} sim cycles/s "
          f"(baseline {target:,.0f}, floor {floor:,.0f}, "
          f"best of {args.repeats}) -> {verdict}")
    if rate < floor:
        print(f"FAIL: cycles_per_sec regressed more than "
              f"{args.threshold:.0%} below the committed baseline",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
