"""Phase profiler for the execution engine's per-job telemetry.

A :class:`Profiler` accumulates named wall-clock phases::

    prof = Profiler()
    with prof.phase("simulate"):
        result = runner.prepare(spec).run()
    with prof.phase("encode"):
        payload = encode_result(result)
    prof.as_dict()  # {"simulate_s": 1.93, "encode_s": 0.004, ...}

The sweep engine profiles every job this way (and the parent process its
store lookups); phase totals roll into ``SweepReport.summary()["profile"]``
and from there into the ``exec.engine.*_s`` per-layer metrics of
``benchmarks/e2e``, so a perf PR can see *which* phase it moved, not just
the total.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Profiler:
    """Accumulates wall-clock time per named phase."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    @contextmanager
    def phase(self, name: str):
        """Time the enclosed block under ``name`` (re-entrant accumulation)."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - start
            self.totals[name] = self.totals.get(name, 0.0) + elapsed
            self.counts[name] = self.counts.get(name, 0) + 1

    def add(self, name: str, seconds: float) -> None:
        """Fold an externally measured duration into phase ``name``."""
        self.totals[name] = self.totals.get(name, 0.0) + seconds
        self.counts[name] = self.counts.get(name, 0) + 1

    def merge(self, other: dict[str, float]) -> None:
        """Fold another profiler's ``as_dict()`` output into this one."""
        for key, seconds in other.items():
            name = key[:-2] if key.endswith("_s") else key
            self.add(name, seconds)

    def as_dict(self) -> dict[str, float]:
        """Phase totals as ``{"<name>_s": seconds}`` (JSON-safe)."""
        return {f"{name}_s": total for name, total in sorted(self.totals.items())}


class StageProfile:
    """Per-pipeline-stage wall-clock accumulator for the cycle kernels.

    Attach one to a simulation (``Simulator(..., stage_profile=...)`` or
    ``api``-level ``stage_profile``) and the kernel routes every cycle
    through its timed path, splitting wall time across the four stage
    groups of the pipeline:

    * ``arrivals`` — wheel draining: flit buffer-writes + ejection
      completion;
    * ``ni`` — network-interface injection onto local links;
    * ``rc_va`` — route computation and VC allocation;
    * ``sa_st`` — switch allocation, switch traversal, link traversal.

    The kernels write the attributes directly (it is *their* hot path);
    :meth:`as_dict` renders engine-profile keys that fold into
    ``SweepReport.summary()["profile"]`` next to the ``simulate`` /
    ``encode`` phases, so sweep telemetry shows where cycle time goes.

    Timed stepping costs roughly 15-20% throughput (four
    ``perf_counter`` calls per cycle), which is why it is opt-in and the
    unprofiled path carries a single attribute check.
    """

    __slots__ = ("cycles", "arrivals_s", "ni_s", "rc_va_s", "sa_st_s")

    def __init__(self) -> None:
        self.cycles = 0
        self.arrivals_s = 0.0
        self.ni_s = 0.0
        self.rc_va_s = 0.0
        self.sa_st_s = 0.0

    def as_dict(self) -> dict[str, float]:
        """Stage totals as engine-profile keys (``{"stage_<name>_s": s}``)."""
        return {
            "stage_arrivals_s": self.arrivals_s,
            "stage_ni_s": self.ni_s,
            "stage_rc_va_s": self.rc_va_s,
            "stage_sa_st_s": self.sa_st_s,
        }
