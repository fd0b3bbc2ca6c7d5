"""Serving tier: an asyncio simulation service over the execution engine.

``repro.serve`` turns the reproduction into a queryable design-evaluation
backend.  Five modules (see ``docs/serving.md`` for the full reference):

* :mod:`repro.serve.protocol` — request validation/canonicalization into
  the sweep engine's own :class:`~repro.exec.jobs.JobSpec` + digest
  addressing, and the versioned response envelopes;
* :mod:`repro.serve.scheduler` — request **coalescing** (N identical
  in-flight requests -> 1 engine job), **warm-cache serving** from the
  persistent :class:`~repro.exec.store.ResultStore`, and **admission
  control** (bounded queue, 429 + ``Retry-After`` load shedding, per-
  request timeouts) in front of a
  :class:`~repro.exec.engine.JobExecutor` process pool;
* :mod:`repro.serve.service` — the handlers, background sweep jobs with
  NDJSON progress streams, ``/metrics`` reconciliation, and request
  tracing through :mod:`repro.obs`;
* :mod:`repro.serve.http` — the stdlib-only asyncio HTTP front end and
  the :class:`ServerThread` harness helper;
* :mod:`repro.serve.client` — a thin ``http.client`` client.

Quick start::

    from repro.serve import ServeClient, ServerThread, SimulationService
    from repro.exec import ResultStore

    thread = ServerThread(SimulationService(
        fast=True, store=ResultStore("benchmarks/results/cache")))
    port = thread.start()
    client = ServeClient(port=port)
    response = client.simulate(design="baseline", workload="uniform")
    response.payload["source"]          # "computed" cold, "store" warm
    thread.stop()

Or from the shell: ``repro serve`` / ``repro request``.
"""

from repro.serve.client import ServeClient, ServeClientError, ServeResponse
from repro.serve.http import ServeServer, ServerThread, run
from repro.exec.jobs import DESIGN_STYLES, LINK_WIDTHS
from repro.serve.protocol import (
    RequestError, canonical_digest, envelope, error_envelope, parse_simulate,
    parse_sweep, result_fields,
)
from repro.serve.scheduler import (
    RequestTimeout, ServeOutcome, ServiceOverloaded, SimulationScheduler,
)
from repro.serve.service import SimulationService, SweepJob

__all__ = [
    "DESIGN_STYLES",
    "LINK_WIDTHS",
    "RequestError",
    "RequestTimeout",
    "ServeClient",
    "ServeClientError",
    "ServeOutcome",
    "ServeResponse",
    "ServeServer",
    "ServerThread",
    "ServiceOverloaded",
    "SimulationScheduler",
    "SimulationService",
    "SweepJob",
    "canonical_digest",
    "envelope",
    "error_envelope",
    "parse_simulate",
    "parse_sweep",
    "result_fields",
    "run",
]
