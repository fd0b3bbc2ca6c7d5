"""Observability layer: metrics, event tracing, profiling, unified results.

Four pieces, designed as the durable seams any later performance work
(vectorized stepping, sharded sweeps) must preserve:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of labeled counters,
  gauges, and histograms that :class:`~repro.noc.network.Network`, the
  RF-I phy, and the execution engine publish into;
* :mod:`repro.obs.trace` — :class:`EventTracer`, a bounded ring buffer of
  cycle-level structured events (off by default) with JSONL persistence;
* :mod:`repro.obs.profile` — :class:`Profiler`, named wall-clock phases for
  the sweep engine's per-job telemetry;
* :mod:`repro.obs.result` — :class:`RunResult`, the single result type all
  entrypoints return (see :mod:`repro.api`).

Quick start::

    from repro.obs import EventTracer, MetricsRegistry, Observation
    obs = Observation(metrics=MetricsRegistry(), tracer=EventTracer(4096))
    stats = Simulator(network, sources, sim, observation=obs).run()
    obs.metrics.total("flits_routed")      # == activity.switch_traversals
    obs.tracer.write_jsonl("events.jsonl")
"""

from repro.obs.metrics import (
    Counter, Gauge, Histogram, MetricsRegistry, label_key,
)
from repro.obs.observe import Observation, port_name
from repro.obs.profile import Profiler, StageProfile
from repro.obs.result import RunResult
from repro.obs.trace import (
    EVENT_KINDS, EVENT_SCHEMA, EventTracer, TraceEvent, read_jsonl,
    validate_event,
)

__all__ = [
    "Counter",
    "EVENT_KINDS",
    "EVENT_SCHEMA",
    "EventTracer",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observation",
    "Profiler",
    "RunResult",
    "StageProfile",
    "TraceEvent",
    "label_key",
    "port_name",
    "read_jsonl",
    "validate_event",
]
