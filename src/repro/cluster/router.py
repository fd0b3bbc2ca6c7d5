"""The cluster front door: consistent-hash routing over serve workers.

:class:`ClusterRouter` is an asyncio HTTP process that looks exactly
like one big ``repro serve`` worker to clients — same routes, same
envelopes — but settles nothing itself.  Every ``/v1/simulate`` body is
validated and addressed with the *worker's own* digest scheme
(:func:`~repro.serve.protocol.canonical_digest`), placed on a seeded
:class:`~repro.cluster.ring.HashRing`, and proxied to the owning shard
over a pooled keep-alive connection.  That digest affinity is the whole
point: every request for one cell lands on the same worker, whose
scheduler coalesces duplicates and whose private result store stays warm
for that key.

Routing semantics, in order of preference:

* the key's ring **owner**, when its shard is ``up``;
* otherwise the first ``up`` **ring successor** (the key is *rebalanced*
  — counted in ``cluster_rebalanced_keys`` and flagged in the response);
* otherwise **503 + Retry-After**: nothing can take the key right now.

A worker's 429 is passed through, not failed over — shedding means the
owner is overloaded, and moving the key elsewhere would trade a warm
queue for a cold compute.  A transport failure (connect refused, reset,
proxy timeout) marks the shard ``down`` and walks to the next successor;
the supervisor's health probe restores the shard when it recovers.

``/v1/sweep`` grids are expanded *at the router* and fanned out cell by
cell, each cell to its own owner, preserving per-digest locality that a
whole-grid proxy to one worker would destroy.  Progress streams as the
same NDJSON job protocol workers speak.  ``/healthz`` and ``/metrics``
aggregate every shard (totals reconcile with the per-shard sums), and
``/cluster`` reports ring membership, shard states, and counters.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import AsyncIterator, Callable, Iterable, Optional, Union

from repro.exec.jobs import JobSpec
from repro.experiments.config import ExperimentConfig, resolve_config
from repro.obs.metrics import MetricsRegistry
from repro.params import DEFAULT_PARAMS, ArchitectureParams
from repro.serve.http import ServeServer, ServerThread, read_head
from repro.serve.protocol import (
    RequestError, canonical_digest, envelope, error_envelope, parse_simulate,
    parse_sweep, spec_fields,
)
from repro.serve.service import Backoff, SweepJobs
from repro.cluster.ring import DEFAULT_VNODES, HashRing

#: Shard lifecycle states the router routes by: ``up`` takes new keys,
#: ``draining`` finishes what it has but receives nothing new, ``down``
#: is unreachable (keys remap to ring successors until it returns).
SHARD_STATES = ("up", "draining", "down")

#: Gauge encoding of shard state (``cluster_shard_state{shard=...}``).
STATE_CODES = {"up": 2, "draining": 1, "down": 0}

#: ``Retry-After`` seconds when no shard can take a key.
UNROUTABLE_RETRY_S = 2


class ShardProxyError(Exception):
    """A shard could not be reached or broke mid-exchange."""


class Shard:
    """One serve worker as the router sees it: address, state, pool."""

    #: Idle keep-alive connections retained per shard.
    POOL_LIMIT = 8

    def __init__(self, shard_id: str, host: str = "127.0.0.1",
                 port: int = 0):
        self.shard_id = shard_id
        self.host = host
        self.port = port
        self.state = "up"
        self.last_error: Optional[str] = None
        #: Sockets opened to this shard (pool reuse keeps this small).
        self.connections_opened = 0
        self._pool: list[tuple[asyncio.StreamReader,
                               asyncio.StreamWriter]] = []

    def set_state(self, state: str, reason: Optional[str] = None) -> None:
        if state not in SHARD_STATES:
            raise ValueError(f"unknown shard state {state!r}; "
                             f"one of {list(SHARD_STATES)}")
        self.state = state
        if reason is not None:
            self.last_error = reason

    def as_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "host": self.host,
            "port": self.port,
            "state": self.state,
            "connections_opened": self.connections_opened,
            "pooled": len(self._pool),
            "last_error": self.last_error,
        }

    # -- HTTP plumbing ------------------------------------------------------

    async def request(self, method: str, path: str,
                      body: Optional[bytes] = None,
                      timeout: float = 600.0) -> tuple[int, dict, bytes]:
        """One proxied exchange; returns (status, headers, raw body).

        Reuses a pooled keep-alive connection when one is idle.  A
        pooled socket can be stale (worker restarted while idle), so a
        failure on a *pooled* connection retries once on a fresh one;
        a fresh-connection failure raises :class:`ShardProxyError`.
        """
        while True:
            pooled = bool(self._pool)
            if pooled:
                reader, writer = self._pool.pop()
            else:
                try:
                    reader, writer = await asyncio.wait_for(
                        asyncio.open_connection(self.host, self.port),
                        timeout=min(timeout, 10.0),
                    )
                except OSError as exc:
                    raise ShardProxyError(
                        f"shard {self.shard_id} at {self.host}:{self.port} "
                        f"unreachable: {exc}"
                    ) from exc
                self.connections_opened += 1
            try:
                status, headers, raw = await asyncio.wait_for(
                    self._roundtrip(reader, writer, method, path, body),
                    timeout=timeout,
                )
            except (OSError, ValueError, asyncio.IncompleteReadError) as exc:
                self._close(writer)
                if pooled:
                    continue      # stale pooled socket; retry fresh once
                raise ShardProxyError(
                    f"shard {self.shard_id} at {self.host}:{self.port} "
                    f"broke mid-exchange: {exc}"
                ) from exc
            if (headers.get("connection", "").lower() == "keep-alive"
                    and len(self._pool) < self.POOL_LIMIT):
                self._pool.append((reader, writer))
            else:
                self._close(writer)
            return status, headers, raw

    async def _roundtrip(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter, method: str,
                         path: str, body: Optional[bytes]
                         ) -> tuple[int, dict, bytes]:
        payload = body or b""
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: keep-alive\r\n\r\n")
        writer.write(head.encode("ascii") + payload)
        await writer.drain()
        status_line, headers = await read_head(reader, "response")
        status = int(status_line.decode("latin-1").split(None, 2)[1])
        length = int(headers.get("content-length", "0"))
        raw = await reader.readexactly(length) if length > 0 else b""
        return status, headers, raw

    @staticmethod
    def _close(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
        except OSError:  # pragma: no cover - already dead
            pass

    def close_pool(self) -> None:
        """Drop every idle connection (state change, shutdown)."""
        while self._pool:
            _, writer = self._pool.pop()
            self._close(writer)


ShardSpec = Union["Shard", tuple[str, str, int]]


class ClusterRouter:
    """Socket-free core of the front door (hosted by :class:`RouterServer`).

    ``shards`` may be :class:`Shard` objects, ``(shard_id, host, port)``
    tuples, or a ``{shard_id: port}`` mapping on localhost.  The router
    must be built with the *same* config family as its workers (``fast``
    or explicit ``config``) so its digests match theirs.
    """

    def __init__(
        self,
        shards: Union[dict, Iterable[ShardSpec]],
        *,
        config: Optional[ExperimentConfig] = None,
        params: ArchitectureParams = DEFAULT_PARAMS,
        fast: bool = False,
        vnodes: int = DEFAULT_VNODES,
        ring_seed: int = 0,
        registry: Optional[MetricsRegistry] = None,
        proxy_timeout_s: float = 600.0,
    ):
        self.config = resolve_config(config, fast=fast)
        self.params = params
        self.proxy_timeout_s = proxy_timeout_s
        self.registry = registry if registry is not None else MetricsRegistry()
        self.shards: dict[str, Shard] = {}
        for shard in self._coerce(shards):
            self.shards[shard.shard_id] = shard
        self.ring = HashRing(self.shards, vnodes=vnodes, seed=ring_seed)
        self.jobs = SweepJobs("cjob")
        self._start_monotonic = time.monotonic()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Optional supervisor hook: a callable returning a JSON-safe
        #: dict merged into the ``/cluster`` payload (restart counts...).
        self.status_extra: Optional[Callable[[], dict]] = None
        for shard in self.shards.values():
            self._state_gauge(shard)

    @staticmethod
    def _coerce(shards) -> Iterable[Shard]:
        if isinstance(shards, dict):
            return [Shard(sid, "127.0.0.1", port)
                    for sid, port in shards.items()]
        return [shard if isinstance(shard, Shard) else Shard(*shard)
                for shard in shards]

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()

    async def stop(self) -> None:
        self.jobs.cancel()
        for shard in self.shards.values():
            shard.close_pool()

    # -- shard state --------------------------------------------------------

    def _state_gauge(self, shard: Shard) -> None:
        self.registry.gauge("cluster_shard_state",
                            shard=shard.shard_id).set(
                                STATE_CODES[shard.state])

    def set_shard_state(self, shard_id: str, state: str,
                        reason: Optional[str] = None) -> None:
        """Move one shard between up/draining/down (router-loop context)."""
        shard = self.shards[shard_id]
        if shard.state == state:
            return
        shard.set_state(state, reason)
        if state != "up":
            shard.close_pool()
        self._state_gauge(shard)

    def set_shard_state_threadsafe(self, shard_id: str, state: str,
                                   reason: Optional[str] = None) -> None:
        """Same, callable from a supervisor thread outside the loop."""
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(
                self.set_shard_state, shard_id, state, reason)
        else:  # pragma: no cover - router not started yet
            self.set_shard_state(shard_id, state, reason)

    def available(self) -> list[str]:
        return [sid for sid, shard in self.shards.items()
                if shard.state == "up"]

    def _mark_down(self, shard_id: str, reason: str) -> None:
        self.registry.counter("cluster_proxy_errors", shard=shard_id).inc()
        self.set_shard_state(shard_id, "down", reason)

    # -- simulate proxy -----------------------------------------------------

    def place(self, digest: str) -> tuple[str, Optional[str]]:
        """(full-ring owner, serving shard or None) for one digest."""
        return (self.ring.owner(digest),
                self.ring.shard_for(digest, self.available()))

    async def simulate(self, payload: dict) -> tuple[int, dict, dict]:
        """Proxy one cell to its shard; same contract as the service."""
        try:
            spec = parse_simulate(payload)
        except RequestError as exc:
            self.registry.counter("cluster_rejected").inc()
            return 400, error_envelope(str(exc)), {}
        _, digest = canonical_digest(spec, self.config, self.params)
        return await self._proxy_cell(payload, digest)

    async def _proxy_cell(self, payload: dict,
                          digest: str) -> tuple[int, dict, dict]:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        owner = self.ring.owner(digest)
        for shard_id in self.ring.successors(digest):
            shard = self.shards[shard_id]
            if shard.state != "up":
                continue
            try:
                status, headers, raw = await shard.request(
                    "POST", "/v1/simulate", body,
                    timeout=self.proxy_timeout_s)
            except ShardProxyError as exc:
                self._mark_down(shard_id, str(exc))
                continue
            try:
                out = json.loads(raw) if raw else {}
            except json.JSONDecodeError:
                self._mark_down(shard_id, "non-JSON response")
                continue
            self.registry.counter("cluster_requests", shard=shard_id).inc()
            out["shard"] = shard_id
            if shard_id != owner:
                self.registry.counter("cluster_rebalanced_keys").inc()
                out["rebalanced_from"] = owner
            extra = {}
            if "retry-after" in headers:
                extra["Retry-After"] = headers["retry-after"]
            return status, out, extra
        self.registry.counter("cluster_unroutable").inc()
        return (503,
                error_envelope("no shard available for this key",
                               digest=digest,
                               retry_after_s=UNROUTABLE_RETRY_S),
                {"Retry-After": str(UNROUTABLE_RETRY_S)})

    # -- sweep fan-out ------------------------------------------------------

    async def sweep(self, payload: dict) -> tuple[int, dict, dict]:
        """Expand a grid here and fan cells out to their ring owners."""
        try:
            specs = parse_sweep(payload)
        except RequestError as exc:
            self.registry.counter("cluster_rejected").inc()
            return 400, error_envelope(str(exc)), {}
        digests = [canonical_digest(s, self.config, self.params)[1]
                   for s in specs]

        async def settle(index: int, spec: JobSpec) -> dict:
            status, out, _ = await self._proxy_cell(spec_fields(spec),
                                                    digests[index])
            if status in (429, 503):
                # The owner is shedding (or momentarily unroutable):
                # batch cells wait and re-offer, they never drop.
                raise Backoff(out.get("retry_after_s", UNROUTABLE_RETRY_S))
            if status != 200:
                raise RuntimeError(
                    f"cell {index} failed on shard {out.get('shard', '?')}: "
                    f"{out.get('error', status)}")
            return {"source": out.get("source", "computed"),
                    "shard": out.get("shard", "?"),
                    "digest": out.get("digest", digests[index]),
                    "wall_s": out.get("wall_s"),
                    "result": out.get("result")}

        job = self.jobs.launch(specs, settle, max(2, 2 * len(self.shards)))
        return 202, envelope(status="accepted", job_id=job.job_id,
                             cells=len(specs),
                             spread=self.ring.spread(digests)), {}

    async def stream_job(
        self, job_id: str,
    ) -> Optional[AsyncIterator[dict]]:
        """Async iterator over a router job's events (None if unknown)."""
        job = self.jobs.get(job_id)
        return job.stream() if job is not None else None

    # -- aggregation --------------------------------------------------------

    async def _gather(self, path: str,
                      timeout: float = 10.0) -> dict[str, dict]:
        """GET ``path`` from every shard concurrently; errors inline."""
        async def one(shard: Shard) -> dict:
            if shard.state == "down":
                return {"error": f"shard is down: {shard.last_error}"}
            try:
                _, _, raw = await shard.request("GET", path, None,
                                                timeout=timeout)
                return json.loads(raw)
            except (ShardProxyError, json.JSONDecodeError) as exc:
                return {"error": str(exc)}
        shards = list(self.shards.values())
        results = await asyncio.gather(*(one(s) for s in shards))
        return {s.shard_id: r for s, r in zip(shards, results)}

    async def health(self) -> dict:
        """Aggregate ``/healthz``: cluster status + every shard's view."""
        probes = await self._gather("/healthz")
        states = {sid: shard.state for sid, shard in self.shards.items()}
        up = sum(1 for s in states.values() if s == "up")
        status = ("ok" if up == len(states)
                  else "degraded" if up > 0 else "down")
        return envelope(
            status=status,
            role="router",
            uptime_s=time.monotonic() - self._start_monotonic,
            shards={sid: {"state": states[sid], "health": probes[sid]}
                    for sid in states},
            counts={state: sum(1 for s in states.values() if s == state)
                    for state in SHARD_STATES},
            jobs=self.jobs.counts(),
        )

    async def metrics(self) -> dict:
        """Aggregate ``/metrics``: totals reconcile with per-shard sums."""
        shard_metrics = await self._gather("/metrics")
        requests_total: dict[str, float] = {}
        settled_total: dict[str, float] = {}
        recon_total = {"requests": 0, "rejected": 0, "sweep_cells": 0,
                       "accounted": 0}
        balanced = True
        reachable = 0
        for payload in shard_metrics.values():
            if "error" in payload:
                balanced = False    # can't prove totals without every shard
                continue
            reachable += 1
            for endpoint, count in payload.get("requests", {}).items():
                requests_total[endpoint] = (
                    requests_total.get(endpoint, 0) + count)
            recon = payload.get("reconciliation", {})
            for source, count in recon.get("settled", {}).items():
                settled_total[source] = settled_total.get(source, 0) + count
            for key in recon_total:
                recon_total[key] += recon.get(key, 0)
            balanced = balanced and bool(recon.get("balanced"))
        expected = (recon_total["requests"] - recon_total["rejected"]
                    + recon_total["sweep_cells"])
        reconciliation = {
            **recon_total,
            "settled": dict(sorted(settled_total.items())),
            "balanced": balanced and recon_total["accounted"] == expected,
            "shards_reporting": reachable,
        }
        return envelope(
            status="ok",
            role="router",
            cluster=self.counters(),
            totals={"requests": dict(sorted(requests_total.items())),
                    "settled": dict(sorted(settled_total.items()))},
            reconciliation=reconciliation,
            shards=shard_metrics,
            snapshot=self.registry.snapshot(),
        )

    def counters(self) -> dict:
        """The router's own counters, JSON-safe (``/cluster``, tests)."""
        reg = self.registry
        return {
            "requests": {
                dict(inst.labels).get("shard", ""): inst.value
                for inst in reg.series("cluster_requests")
            },
            "rebalanced_keys": reg.value("cluster_rebalanced_keys") or 0,
            "unroutable": reg.value("cluster_unroutable") or 0,
            "rejected": reg.value("cluster_rejected") or 0,
            "proxy_errors": {
                dict(inst.labels).get("shard", ""): inst.value
                for inst in reg.series("cluster_proxy_errors")
            },
            "states": {sid: shard.state
                       for sid, shard in self.shards.items()},
        }

    async def cluster_status(self) -> dict:
        """The ``/cluster`` endpoint: ring + shards + counters."""
        status = envelope(
            status="ok",
            role="router",
            uptime_s=time.monotonic() - self._start_monotonic,
            ring=self.ring.describe(),
            shards={sid: shard.as_dict()
                    for sid, shard in self.shards.items()},
            counters=self.counters(),
        )
        if self.status_extra is not None:
            status["supervisor"] = self.status_extra()
        return status


class RouterServer(ServeServer):
    """The router's HTTP face — same wire protocol as a worker."""

    def __init__(self, router: ClusterRouter, host: str = "127.0.0.1",
                 port: int = 8031):
        super().__init__(router, host, port)  # type: ignore[arg-type]

    def _routes(self) -> dict:
        router = self.service
        return {
            ("POST", "/v1/simulate"): (router.simulate, True),
            ("POST", "/v1/sweep"): (router.sweep, True),
            ("GET", "/healthz"): (router.health, False),
            ("GET", "/metrics"): (router.metrics, False),
            ("GET", "/cluster"): (router.cluster_status, False),
        }


class RouterThread(ServerThread):
    """A live router on an ephemeral port, hosted in a daemon thread."""

    server_class = RouterServer

    def __init__(self, router: ClusterRouter, host: str = "127.0.0.1",
                 port: int = 0):
        super().__init__(router, host, port)  # type: ignore[arg-type]
        self.router = router
