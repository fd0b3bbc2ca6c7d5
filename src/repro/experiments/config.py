"""Experiment configuration: workloads, loads, and run lengths.

The paper simulates probabilistic traces for one million network cycles;
this harness defaults to shorter warmed-up windows (pure-Python runs) that
preserve steady-state comparisons.  Injection rates are chosen per pattern
so that *every* design point in an experiment — including the narrow 4 B
mesh — operates below saturation, as the paper's stable Fig 7/8 averages
require; rates are documented assumptions (the paper does not publish its
trace loads).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.params import SimulationParams

#: Messages per component per network cycle, per probabilistic pattern.
DEFAULT_RATES: dict[str, float] = {
    "uniform": 0.012,
    "uniDF": 0.012,
    "biDF": 0.012,
    "hotBiDF": 0.010,
    "1Hotspot": 0.010,
    "2Hotspot": 0.010,
    "4Hotspot": 0.010,
}

#: Default per-application rates are carried by the models themselves
#: (:data:`repro.traffic.APPLICATIONS`).


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for the experiment harness."""

    sim: SimulationParams = SimulationParams(
        warmup_cycles=400,
        measure_cycles=2_500,
        drain_cycles=12_000,
    )
    rates: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_RATES))
    profile_cycles: int = 20_000   # injection-only profiling for selection
    seed: int = 2008
    traffic_seed: int = 5          # distinct from the profiling seed
    num_access_points: int = 50
    multicast_epoch_cycles: int = 4
    multicast_rate: float = 0.002  # multicast messages per cache bank per cycle
    base_rate_with_multicast: float = 0.012

    def rate_for(self, workload: str) -> float:
        """Injection rate for a workload (with a sane default)."""
        return self.rates.get(workload, 0.012)


#: Faster settings for unit tests and quick examples.
FAST_CONFIG = ExperimentConfig(
    sim=SimulationParams(
        warmup_cycles=200, measure_cycles=800, drain_cycles=6_000
    ),
    profile_cycles=5_000,
)

DEFAULT_CONFIG = ExperimentConfig()


def resolve_config(config: Optional[ExperimentConfig] = None, *,
                   fast: bool = False,
                   kernel: Optional[str] = None) -> ExperimentConfig:
    """The config a surface runs under: explicit, else the fast/default pair.

    ``kernel`` requests a cycle-execution kernel for every simulation the
    config drives; kernels are bit-identical and never enter a digest, so
    the override moves wall-clock time only.
    """
    config = config or (FAST_CONFIG if fast else DEFAULT_CONFIG)
    if kernel is not None:
        config = replace(config, sim=replace(config.sim, kernel=kernel))
    return config
