"""``serve_warm`` and ``serve_routed``: warm requests, direct and routed.

Set-up fills a store with 64 cells by an in-process ``run_sweep`` and
starts the tier over it — one ``ServerThread(SimulationService)``, or an
in-process ``Cluster`` (router + 2 thread workers over the filled
``shared/`` tier) — then sends a discarded warm-up that touches every
cell.  The timed section is a closed loop of two keep-alive connections
(``loadgen``).  No cycle is simulated in it: a kernel gain predicts no
change here.  An *op* is a request.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

from repro.cluster import Cluster
from repro.exec import (
    ResultStore, decode_result, job_digest, normalize_spec, run_sweep,
    sweep_grid,
)
from repro.params import DEFAULT_PARAMS
from repro.serve import (
    ServeClient, ServerThread, SimulationService, canonical_digest,
    parse_simulate, result_fields,
)
from repro.serve.protocol import spec_fields

import loadgen
from harness import Context, Timed, median, sim_config, timed_us

CONNECTIONS = 2
WARMUP_REQUESTS = 300
#: Requests sent both through the router and straight to their shards to
#: price the router hop, per connection.
HOP_REQUESTS = 300
SETTLED = ("store", "computed", "coalesced", "shed", "timeout")


@dataclass
class State:
    config: object
    store_root: Path              # the filled store (routed: shared tier)
    bodies: list                  # request body per cell
    digests: list                 # job digest per cell
    expected: list                # result block per cell, from the store
    port: int                     # the front door the clients talk to
    server: object                # ServerThread or Cluster
    worker_ports: dict            # shard id -> port
    phase: object = None          # the last timed phase


class ServeWorkload:
    #: The 3.5 s store fill dominates set-up; once is all the time cap
    #: of the driver's run budget allows.
    setup_repeats = 1
    reuse_state = True

    def __init__(self, name: str, routed: bool, requests: int):
        self.name = name
        self.routed = routed
        self.requests = requests      # per connection, at reference length

    # -- set-up -------------------------------------------------------------

    def setup(self, ctx: Context, profiled: bool = False) -> State:
        # Fixed windows whatever the scale: they set the size of a stored
        # result (one latency sample per measured packet), and with it
        # the cost of a warm request.
        config = sim_config(50, 200, 1500, traffic_seed=ctx.traffic_seed())
        seeds = [ctx.traffic_seed(i) for i in range(8)]
        # 64 cheap cells: no profiled ("adaptive") designs, whose 0.6 s
        # shortcut selection would be most of set-up, and no narrow links;
        # a warm request never sees a design, only a stored result.
        specs = [normalize_spec(spec, config) for spec in sweep_grid(
            ("baseline", "static"), (16,),
            ("uniform", "1Hotspot", "uniDF", "hotBiDF"), seeds=seeds)]
        root = ctx.tmpdir("tier")
        fill_root = root / "shared" if self.routed else root / "store"
        fill = ResultStore(fill_root)
        report = run_sweep(specs, config=config, store=fill, jobs=1)
        digests = [o.digest for o in report.outcomes]
        expected = [result_fields(decode_result(fill.load(d)))
                    for d in digests]
        if self.routed:
            server = Cluster(workers=2, processes=False, config=config,
                             cache_root=str(root))
            port = server.start()
            worker_ports = {w.shard_id: w.port for w in server.workers}
        else:
            server = ServerThread(SimulationService(
                config=config, store=ResultStore(fill_root)))
            port = server.start()
            worker_ports = {"solo": port}
        state = State(config, fill_root, [spec_fields(s) for s in specs],
                      digests, expected, port, server, worker_ports)
        try:
            warm = loadgen.drive(
                "warm-up", state.bodies,
                loadgen.request_orders(
                    ctx.rng("warm-up"), len(specs), CONNECTIONS,
                    max(len(specs), WARMUP_REQUESTS) // CONNECTIONS,
                    cover=True),
                port)
            if warm.failed:
                raise RuntimeError(f"{warm.failed} warm-up requests failed")
        except BaseException:
            self.teardown(state)
            raise
        return state

    def teardown(self, state: State) -> None:
        state.server.stop()

    # -- timed section ------------------------------------------------------

    def _counters(self, state: State) -> dict:
        """Settled, store and router counts, summed over the tier."""
        client = ServeClient(port=state.port, timeout=30.0)
        try:
            metrics = client.metrics().payload
            cluster = client.cluster().payload if self.routed else {}
        finally:
            client.close()
        shards = (metrics["shards"].values() if self.routed else [metrics])
        out: dict = {}
        for shard in shards:
            for key in SETTLED:
                out[key] = out.get(key, 0) + shard["settled"].get(key, 0)
            for key, value in shard["store"].items():
                out[f"store.{key}"] = out.get(f"store.{key}", 0) + value
        counters = cluster.get("counters", {})
        for shard_id, value in counters.get("requests", {}).items():
            out[f"shard.{shard_id}"] = value
        out["rebalanced_keys"] = counters.get("rebalanced_keys", 0)
        out["unroutable"] = counters.get("unroutable", 0)
        out["proxy_errors"] = sum(
            counters.get("proxy_errors", {}).values())
        return out

    def run(self, ctx: Context, state: State, recorder) -> Timed:
        orders = loadgen.request_orders(
            ctx.rng("timed"), len(state.bodies), CONNECTIONS,
            ctx.size(self.requests, minimum=20))
        before = self._counters(state)
        phase = loadgen.drive(self.name, state.bodies, orders, state.port)
        after = self._counters(state)
        state.phase = phase
        timed = Timed(wall_s=phase.wall_s, ops=phase.sent,
                      failed=phase.failed, op_ms=phase.rtt_ms)
        timed.extra["counters"] = {
            key: after[key] - before.get(key, 0) for key in after}
        digest = hashlib.sha256()
        for exchange in phase.flat:
            if exchange.status != 200:
                continue
            result = exchange.payload["result"]
            packets = result["delivered_packets"]
            timed.latency_sum += result["avg_latency"] * packets
            timed.delivered += packets
            timed.power_w.append(result["power_w"])
            digest.update(
                f"{exchange.cell}:{exchange.payload['digest']}:"
                f"{result['stats_digest']};".encode())
            if recorder is not None:
                parent = recorder.add(
                    "request", "serve.client", exchange.start, exchange.end,
                    trace_id=f"request-{len(recorder.spans)}")
                served = exchange.payload["request_ms"] / 1e3
                slack = (exchange.end - exchange.start - served) / 2
                recorder.add("service.request_ms", "serve.service",
                             exchange.start + slack,
                             exchange.start + slack + served, parent)
        timed.pin = {
            "requests": phase.sent,
            "responses_digest": digest.hexdigest(),
            "sim_avg_latency_cycles": timed.latency_sum / timed.delivered,
            "sim_power_w": sum(timed.power_w) / len(timed.power_w),
        }
        return timed

    # -- checks and probes --------------------------------------------------

    def verify(self, ctx: Context, state: State, timed: Timed) -> int:
        """Every served digest and result equals the store's entry."""
        bad = 0
        for exchange in state.phase.flat:
            if exchange.status != 200:
                continue
            if (exchange.payload["digest"] != state.digests[exchange.cell]
                    or exchange.payload["result"]
                    != state.expected[exchange.cell]):
                bad += 1
        # The control prediction: a warm tier simulates nothing.
        return bad + timed.extra["counters"]["computed"]

    def probes(self, ctx: Context, state: State, base: Timed, traced: Timed,
               recorder) -> tuple[dict, int]:
        counters = base.extra["counters"]
        body, digest = state.bodies[0], state.digests[0]
        spec = parse_simulate(body)
        store = ResultStore(state.store_root)
        payload = store.load(digest)
        result = decode_result(payload)
        envelope = next(x.payload for x in state.phase.flat
                        if x.status == 200)
        encoded = json.dumps(envelope)
        served_ms = median([x.payload["request_ms"]
                            for x in state.phase.flat if x.status == 200])
        rtt_ms = median(traced.op_ms)
        worker = ServeClient(port=next(iter(state.worker_ports.values())),
                             timeout=30.0)
        try:
            healthz_ms = timed_us(worker.health, 200) / 1e3
        finally:
            worker.close()
        settled = sum(counters[key] for key in SETTLED)
        layers = {
            "serve.protocol.parse_us": timed_us(
                lambda: parse_simulate(body), 2000),
            "serve.protocol.digest_us": timed_us(
                lambda: canonical_digest(spec, state.config, DEFAULT_PARAMS),
                500),
            "serve.protocol.result_fields_us": timed_us(
                lambda: result_fields(result), 200),
            "serve.protocol.envelope_json_us": timed_us(
                lambda: json.dumps(envelope), 2000),
            "serve.protocol.response_bytes": len(encoded),
            "serve.service.inproc_ms": self._inproc_ms(state, body),
            "serve.service.request_ms_p50": served_ms,
            **{f"serve.scheduler.{key}": counters[key] for key in SETTLED},
            "serve.scheduler.warm_hit_ratio": (
                counters["store"] / settled if settled else 0.0),
            "serve.http.healthz_rtt_ms": healthz_ms,
            "serve.http.overhead_ms": rtt_ms - served_ms,
            "serve.http.unattributed_ms": rtt_ms - served_ms - healthz_ms,
            "serve.client.connections_opened": (
                state.phase.connections_opened),
            "serve.client.retries": sum(
                1 for x in state.phase.flat if x.status in (429, 503)),
            "exec.jobs.digest_us": timed_us(
                lambda: job_digest(spec, state.config, DEFAULT_PARAMS), 500),
            "exec.store.load_us": timed_us(lambda: store.load(digest), 200),
            "exec.serialize.decode_us": timed_us(
                lambda: decode_result(payload), 200),
            "exec.store.entry_bytes": store.path_for(digest).stat().st_size,
            **{f"exec.store.{key}": counters[f"store.{key}"]
               for key in ("hits", "misses", "writes", "quarantined")},
        }
        if self.routed:
            layers.update(self._router_probes(ctx, state, counters))
        return layers, 0

    def _inproc_ms(self, state: State, body: dict) -> float:
        """``await service.simulate(body)`` with no HTTP in the way."""
        service = SimulationService(config=state.config,
                                    store=ResultStore(state.store_root))

        async def loop() -> float:
            await service.start()
            try:
                samples = []
                for _ in range(200):
                    start = time.perf_counter()
                    status, _, _ = await service.simulate(body)
                    samples.append(time.perf_counter() - start)
                    if status != 200:
                        raise RuntimeError(f"in-process simulate: {status}")
                return median(samples) * 1e3
            finally:
                await service.stop()

        return asyncio.run(loop())

    def _router_probes(self, ctx: Context, state: State,
                       counters: dict) -> dict:
        ring = state.server.router.ring
        per_shard = [counters[f"shard.{sid}"] for sid in state.worker_ports]
        orders = loadgen.request_orders(
            ctx.rng("hop"), len(state.bodies), CONNECTIONS,
            max(20, int(HOP_REQUESTS * min(1.0, ctx.scale))))
        routed = loadgen.drive("hop:routed", state.bodies, orders,
                               state.port)
        direct = loadgen.drive(
            "hop:direct", state.bodies, orders,
            lambda cell: state.worker_ports[ring.owner(state.digests[cell])])
        return {
            "cluster.ring.lookup_us": timed_us(
                lambda: ring.owner(state.digests[0]), 2000),
            "cluster.router.hop_ms": (
                median(routed.rtt_ms) - median(direct.rtt_ms)),
            "cluster.router.max_shard_share": (
                max(per_shard) / sum(per_shard)),
            "cluster.router.rebalanced_keys": counters["rebalanced_keys"],
            "cluster.router.proxy_errors": counters["proxy_errors"],
            "cluster.router.unroutable": counters["unroutable"],
            "cluster.store.shared_hits": counters["store.shared_hits"],
        }


WORKLOADS = [
    ServeWorkload("serve_warm", routed=False, requests=2600),
    ServeWorkload("serve_routed", routed=True, requests=1600),
]
