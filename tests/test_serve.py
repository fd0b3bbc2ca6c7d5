"""Tests for the serving tier: protocol, scheduler, HTTP service, client.

The scheduler tests drive coalescing/admission/warm-serving against a
*stub* executor (manually-resolved futures — no processes, no
simulation), so the concurrency semantics are asserted deterministically
and fast.  One end-to-end class hosts a real server on an ephemeral port
with a tiny simulation window and walks the acceptance path: cold
compute -> warm store hit with an identical stats digest -> reconciled
``/metrics`` -> coalescing under genuinely concurrent clients.
"""

import asyncio
import concurrent.futures
import json
import socket
import threading

import pytest

from repro.exec import ResultStore, encode_result, job_digest
from repro.exec.jobs import JobSpec
from repro.experiments.config import ExperimentConfig
from repro.obs.result import RunResult
from repro.params import DEFAULT_PARAMS, SimulationParams
from repro.serve import (
    RequestError, RequestTimeout, ServeClient, ServeResponse, ServerThread,
    ServiceOverloaded, SimulationScheduler, SimulationService,
    canonical_digest, envelope, parse_simulate, parse_sweep,
)
from repro.serve.protocol import request_timeout
from repro.version import package_version

#: Short windows so end-to-end cells simulate in a couple of seconds.
TINY_CONFIG = ExperimentConfig(
    sim=SimulationParams(warmup_cycles=50, measure_cycles=200,
                         drain_cycles=1_500),
    profile_cycles=1_000,
)


def run_async(coro):
    return asyncio.run(coro)


# -- protocol ----------------------------------------------------------------

class TestProtocol:
    def test_defaults(self):
        spec = parse_simulate({})
        assert spec.style == "baseline"
        assert spec.workload == "uniform"
        assert spec.link_bytes == 16
        assert spec.kind == "unicast"

    def test_unknown_field_rejected(self):
        with pytest.raises(RequestError, match="unknown request fields"):
            parse_simulate({"designe": "baseline"})

    def test_unknown_design_rejected(self):
        with pytest.raises(RequestError, match="unknown design"):
            parse_simulate({"design": "quantum"})

    def test_unknown_workload_rejected(self):
        with pytest.raises(RequestError, match="unknown workload"):
            parse_simulate({"workload": "nope"})

    def test_bad_width_rejected(self):
        with pytest.raises(RequestError, match="width"):
            parse_simulate({"width": 12})

    def test_bad_types_rejected(self):
        with pytest.raises(RequestError):
            parse_simulate({"seed": "five"})
        with pytest.raises(RequestError):
            parse_simulate({"adaptive_routing": 1})
        with pytest.raises(RequestError):
            parse_simulate({"access_points": -3})

    def test_bad_faults_rejected(self):
        with pytest.raises(RequestError, match="invalid fault spec"):
            parse_simulate({"faults": "gremlin:everywhere"})

    def test_faults_canonicalized_into_extra(self):
        spec = parse_simulate({"faults": "band:3"})
        assert dict(spec.extra)["faults"]

    def test_digest_matches_engine_addressing(self):
        """The service addresses cells exactly like the sweep engine."""
        spec = parse_simulate({"design": "baseline", "workload": "uniform"})
        normalized, digest = canonical_digest(spec, TINY_CONFIG,
                                              DEFAULT_PARAMS)
        assert digest == job_digest(normalized, TINY_CONFIG, DEFAULT_PARAMS)

    def test_equivalent_requests_share_a_digest(self):
        """seed=None canonicalizes to the config seed: one store entry."""
        _, a = canonical_digest(parse_simulate({}), TINY_CONFIG,
                                DEFAULT_PARAMS)
        _, b = canonical_digest(
            parse_simulate({"seed": TINY_CONFIG.traffic_seed}),
            TINY_CONFIG, DEFAULT_PARAMS,
        )
        assert a == b

    def test_parse_sweep_grid(self):
        specs = parse_sweep({"styles": ["baseline", "static"],
                             "widths": [16, 8], "workloads": ["uniform"]})
        assert len(specs) == 4
        assert all(isinstance(spec, JobSpec) for spec in specs)

    def test_parse_sweep_rejects_bad_entries(self):
        with pytest.raises(RequestError):
            parse_sweep({"styles": ["warp"]})
        with pytest.raises(RequestError):
            parse_sweep({"widths": [12]})
        with pytest.raises(RequestError):
            parse_sweep({"seeds": ["x"]})

    def test_envelope_carries_version(self):
        payload = envelope(status="ok")
        assert payload["version"] == package_version()
        assert payload["service"] == "repro.serve"

    def test_request_timeout_capped(self):
        assert request_timeout({"timeout_s": 5}, 2.0) == 2.0
        assert request_timeout({}, 2.0) is None
        with pytest.raises(RequestError):
            request_timeout({"timeout_s": -1}, 2.0)


class TestReadHead:
    """The one head parser both the server and the router's proxy use."""

    @staticmethod
    def read(data: bytes, what: str):
        from repro.serve.http import read_head

        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await read_head(reader, what)

        return run_async(go())

    def test_parses_first_line_and_lowercases_headers(self):
        first, headers = self.read(
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-A:  b \r\n\r\n{}",
            "response")
        assert first == b"HTTP/1.1 200 OK\r\n"
        assert headers == {"content-length": "2", "x-a": "b"}

    @pytest.mark.parametrize("what", ["request", "response"])
    def test_head_is_bounded_in_both_directions(self, what):
        from repro.serve.http import MAX_HEAD_BYTES

        line = b"X-Pad: " + b"a" * 1000 + b"\r\n"
        flood = b"GET / HTTP/1.1\r\n" + line * (MAX_HEAD_BYTES // 1000 + 2)
        # A ValueError, which the router's proxy already treats as a
        # broken exchange (the server answers it with a 400).
        with pytest.raises(ValueError, match=f"{what} head too large"):
            self.read(flood, what)

    def test_peer_closing_first_is_a_reset(self):
        with pytest.raises(ConnectionResetError):
            self.read(b"", "response")

    def test_line_past_the_reader_limit_is_a_bad_request(self):
        # One 70 KiB header line overruns StreamReader's 64 KiB line
        # limit before the head-size bound is ever checked.
        flood = b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * 70 * 1024 + b"\r\n\r\n"
        with pytest.raises(ValueError, match="request head too large"):
            self.read(flood, "request")

    @pytest.mark.parametrize("raw,length", [("0", 0), ("17", 17), (None, 0)])
    def test_content_length_accepts_plain_digits(self, raw, length):
        from repro.serve.http import content_length

        headers = {} if raw is None else {"content-length": raw}
        assert content_length(headers) == length

    @pytest.mark.parametrize("raw", ["-1", "+5", "1_0", "", "0x10", "\u00b2"])
    def test_content_length_refuses_everything_else(self, raw):
        from repro.serve.http import content_length

        with pytest.raises(ValueError, match="bad Content-Length"):
            content_length({"content-length": raw})


# -- scheduler (stub executor: no processes, deterministic) ------------------

def stub_payload(workload="uniform"):
    return encode_result(RunResult(
        design="baseline-16B", workload=workload,
        avg_latency=10.0, avg_flit_latency=5.0,
    ))


class StubExecutor:
    """Manually-resolved futures standing in for the process pool."""

    def __init__(self):
        self.submitted: list[JobSpec] = []
        self.futures: list[concurrent.futures.Future] = []

    def submit(self, spec):
        future = concurrent.futures.Future()
        self.submitted.append(spec)
        self.futures.append(future)
        return future

    def resolve(self, index=0, payload=None, wall=0.01):
        self.futures[index].set_result(
            (payload or stub_payload(), wall, 100, {})
        )

    def fail(self, index=0, exc=None):
        self.futures[index].set_exception(exc or RuntimeError("boom"))

    def shutdown(self, wait=True):
        pass


def make_scheduler(store=None, queue_limit=4, concurrency=2):
    stub = StubExecutor()
    scheduler = SimulationScheduler(
        config=TINY_CONFIG, store=store, executor=stub,
        queue_limit=queue_limit, concurrency=concurrency,
    )
    return scheduler, stub


def settled(scheduler, source):
    return scheduler.registry.value("serve_settled", source=source) or 0


class TestSchedulerCoalescing:
    def test_identical_inflight_requests_share_one_job(self):
        """Acceptance: N identical in-flight requests -> exactly 1 job."""
        async def scenario():
            scheduler, stub = make_scheduler()
            await scheduler.start()
            spec = parse_simulate({})
            tasks = [asyncio.create_task(scheduler.submit(spec))
                     for _ in range(5)]
            while not stub.futures:        # let the drain pick the job up
                await asyncio.sleep(0.001)
            stub.resolve()
            outcomes = await asyncio.gather(*tasks)
            await scheduler.stop()
            return scheduler, stub, outcomes

        scheduler, stub, outcomes = run_async(scenario())
        assert len(stub.submitted) == 1      # one engine job, provably
        sources = sorted(outcome.source for outcome in outcomes)
        assert sources.count("computed") == 1
        assert sources.count("coalesced") == 4
        # And the obs counters agree (the /metrics reconciliation path).
        assert settled(scheduler, "computed") == 1
        assert settled(scheduler, "coalesced") == 4
        digests = {outcome.digest for outcome in outcomes}
        assert len(digests) == 1

    def test_distinct_cells_do_not_coalesce(self):
        async def scenario():
            scheduler, stub = make_scheduler()
            await scheduler.start()
            task_a = asyncio.create_task(
                scheduler.submit(parse_simulate({"workload": "uniform"}))
            )
            task_b = asyncio.create_task(
                scheduler.submit(parse_simulate({"workload": "1Hotspot"}))
            )
            while len(stub.futures) < 2:
                await asyncio.sleep(0.001)
            stub.resolve(0)
            stub.resolve(1, payload=stub_payload("1Hotspot"))
            outcomes = await asyncio.gather(task_a, task_b)
            await scheduler.stop()
            return stub, outcomes

        stub, outcomes = run_async(scenario())
        assert len(stub.submitted) == 2
        assert {outcome.source for outcome in outcomes} == {"computed"}

    def test_warm_requests_never_touch_the_pool(self, tmp_path):
        """A digest already in the store settles without pool dispatch."""
        store = ResultStore(tmp_path / "cache")
        spec, digest = canonical_digest(parse_simulate({}), TINY_CONFIG,
                                        DEFAULT_PARAMS)
        store.save(digest, stub_payload())

        async def scenario():
            scheduler, stub = make_scheduler(store=store)
            await scheduler.start()
            outcomes = [await scheduler.submit(spec) for _ in range(3)]
            await scheduler.stop()
            return scheduler, stub, outcomes

        scheduler, stub, outcomes = run_async(scenario())
        assert stub.submitted == []          # pool never dispatched
        assert all(outcome.source == "store" for outcome in outcomes)
        assert settled(scheduler, "store") == 3
        assert store.stats.hits == 3

    def test_computed_results_fill_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "cache")

        async def scenario():
            scheduler, stub = make_scheduler(store=store)
            await scheduler.start()
            task = asyncio.create_task(scheduler.submit(parse_simulate({})))
            while not stub.futures:
                await asyncio.sleep(0.001)
            stub.resolve()
            outcome = await task
            warm = await scheduler.submit(parse_simulate({}))
            await scheduler.stop()
            return outcome, warm

        outcome, warm = run_async(scenario())
        assert outcome.source == "computed"
        assert warm.source == "store"
        assert warm.digest == outcome.digest
        entry = json.loads(store.path_for(outcome.digest).read_text())
        assert entry["meta"]["spec"]["workload"] == "uniform"

    def test_admission_queue_full_sheds_with_retry_after(self):
        async def scenario():
            scheduler, stub = make_scheduler(queue_limit=1, concurrency=1)
            await scheduler.start()
            # First job: drained from the queue, stuck in the stub pool.
            task_a = asyncio.create_task(
                scheduler.submit(parse_simulate({"workload": "uniform"}))
            )
            while not stub.futures:
                await asyncio.sleep(0.001)
            # Second job: fills the single queue slot.
            task_b = asyncio.create_task(
                scheduler.submit(parse_simulate({"workload": "1Hotspot"}))
            )
            while scheduler._queue.qsize() < 1:
                await asyncio.sleep(0.001)
            # Third distinct cell: shed at admission.
            with pytest.raises(ServiceOverloaded) as excinfo:
                await scheduler.submit(
                    parse_simulate({"workload": "2Hotspot"})
                )
            assert excinfo.value.retry_after_s >= 1
            # An identical-to-inflight request still coalesces (not shed).
            task_c = asyncio.create_task(
                scheduler.submit(parse_simulate({"workload": "uniform"}))
            )
            await asyncio.sleep(0.01)
            stub.resolve(0)
            while len(stub.futures) < 2:
                await asyncio.sleep(0.001)
            stub.resolve(1, payload=stub_payload("1Hotspot"))
            outcomes = await asyncio.gather(task_a, task_b, task_c)
            await scheduler.stop()
            return scheduler, stub, outcomes

        scheduler, stub, outcomes = run_async(scenario())
        assert settled(scheduler, "shed") == 1
        assert len(stub.submitted) == 2
        assert [outcome.source for outcome in outcomes] == [
            "computed", "computed", "coalesced",
        ]

    def test_request_timeout_abandons_wait_not_work(self, tmp_path):
        store = ResultStore(tmp_path / "cache")

        async def scenario():
            scheduler, stub = make_scheduler(store=store)
            await scheduler.start()
            with pytest.raises(RequestTimeout):
                await scheduler.submit(parse_simulate({}), timeout_s=0.05)
            # The computation is still in flight; resolving it fills the
            # store so a retry is warm.
            stub.resolve()
            await asyncio.sleep(0.05)
            warm = await scheduler.submit(parse_simulate({}))
            await scheduler.stop()
            return scheduler, warm

        scheduler, warm = run_async(scenario())
        assert settled(scheduler, "timeout") == 1
        assert warm.source == "store"

    def test_failed_job_propagates_and_counts(self):
        async def scenario():
            scheduler, stub = make_scheduler()
            await scheduler.start()
            task = asyncio.create_task(scheduler.submit(parse_simulate({})))
            while not stub.futures:
                await asyncio.sleep(0.001)
            stub.fail(0)
            with pytest.raises(RuntimeError, match="boom"):
                await task
            await scheduler.stop()
            return scheduler

        scheduler = run_async(scenario())
        assert settled(scheduler, "error") == 1


# -- service handlers (no sockets) -------------------------------------------

class TestServiceHandlers:
    def test_simulate_rejects_bad_request(self):
        async def scenario():
            service = SimulationService(config=TINY_CONFIG,
                                        executor=StubExecutor())
            await service.start()
            status, body, _headers = await service.simulate(
                {"design": "quantum"}
            )
            await service.stop()
            return status, body

        status, body = run_async(scenario())
        assert status == 400
        assert body["status"] == "error"
        assert body["version"] == package_version()

    def test_unknown_job_is_none(self):
        async def scenario():
            service = SimulationService(config=TINY_CONFIG,
                                        executor=StubExecutor())
            await service.start()
            stream = await service.stream_job("job-nope")
            await service.stop()
            return stream

        assert run_async(scenario()) is None

    def test_metrics_reconciliation_balanced(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec, digest = canonical_digest(parse_simulate({}), TINY_CONFIG,
                                        DEFAULT_PARAMS)
        store.save(digest, stub_payload())

        async def scenario():
            service = SimulationService(config=TINY_CONFIG, store=store,
                                        executor=StubExecutor())
            await service.start()
            for _ in range(3):
                status, body, _ = await service.simulate({})
                assert status == 200 and body["source"] == "store"
            status, _, _ = await service.simulate({"design": "quantum"})
            assert status == 400
            payload = service.metrics()
            await service.stop()
            return payload

        payload = run_async(scenario())
        reconciliation = payload["reconciliation"]
        assert reconciliation["balanced"] is True
        assert reconciliation["requests"] == 4
        assert reconciliation["rejected"] == 1
        assert reconciliation["settled"]["store"] == 3

    def test_request_trace_records_settlements(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec, digest = canonical_digest(parse_simulate({}), TINY_CONFIG,
                                        DEFAULT_PARAMS)
        store.save(digest, stub_payload())

        async def scenario():
            service = SimulationService(config=TINY_CONFIG, store=store,
                                        executor=StubExecutor())
            await service.start()
            await service.simulate({})
            payload = service.trace()
            await service.stop()
            return payload

        payload = run_async(scenario())
        events = payload["events"]
        assert events and events[-1]["kind"] == "request"
        assert events[-1]["port"] == "simulate"
        assert "200 store" in events[-1]["detail"]


# -- end to end over HTTP ----------------------------------------------------

@pytest.fixture(scope="module")
def live_server(tmp_path_factory):
    store = ResultStore(tmp_path_factory.mktemp("serve") / "cache")
    service = SimulationService(config=TINY_CONFIG, store=store,
                                queue_limit=8, concurrency=2)
    thread = ServerThread(service)
    port = thread.start()
    yield ServeClient(port=port, timeout=300.0), service
    thread.stop()


class TestEndToEnd:
    def test_cold_then_warm_identical_stats_digest(self, live_server):
        client, _service = live_server
        first = client.simulate(design="baseline", workload="uniform")
        assert first.status == 200
        assert first.payload["source"] == "computed"
        assert first.payload["version"] == package_version()
        second = client.simulate(design="baseline", workload="uniform")
        assert second.status == 200
        assert second.payload["source"] == "store"
        assert (first.payload["result"]["stats_digest"]
                == second.payload["result"]["stats_digest"])
        assert first.payload["digest"] == second.payload["digest"]

    def test_concurrent_identical_requests_coalesce(self, live_server):
        """Acceptance, over real HTTP: one computation for N clients."""
        client, service = live_server
        before = dict(service.reconciliation()["settled"])
        barrier = threading.Barrier(3)
        responses = [None] * 3

        def fire(i):
            barrier.wait()
            responses[i] = client.simulate(design="baseline",
                                           workload="1Hotspot")

        threads = [threading.Thread(target=fire, args=(i,))
                   for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(300)
        assert all(r is not None and r.status == 200 for r in responses)
        after = service.reconciliation()["settled"]
        assert after["computed"] - before["computed"] == 1
        assert after["coalesced"] - before["coalesced"] == 2
        digests = {r.payload["result"]["stats_digest"] for r in responses}
        assert len(digests) == 1

    def test_sweep_job_streams_and_hits_warm_cache(self, live_server):
        client, _service = live_server
        response = client.sweep(styles=["baseline"], widths=[16],
                                workloads=["uniform"])
        assert response.status == 202
        job_id = response.payload["job_id"]
        events = list(client.job_events(job_id))
        assert events[-1]["event"] == "complete"
        assert events[-1]["status"] == "done"
        # The cell was computed by the earlier tests: a warm hit.
        assert events[0]["event"] == "hit"
        assert events[0]["source"] == "store"

    def test_health_and_routes(self, live_server):
        client, _service = live_server
        health = client.health()
        assert health.status == 200 and health.payload["status"] == "ok"
        assert health.payload["uptime_s"] > 0
        missing = client._request("GET", "/nope")
        assert missing.status == 404
        wrong_method = client._request("GET", "/v1/simulate")
        assert wrong_method.status == 405
        bad_json = client._request("POST", "/v1/simulate")
        # empty body decodes to {} -> defaults; send garbage instead
        assert bad_json.status in (200, 400)

    def test_metrics_endpoint_reconciles(self, live_server):
        client, _service = live_server
        payload = client.metrics().payload
        assert payload["reconciliation"]["balanced"] is True
        assert payload["store"]["writes"] >= 1


# -- client connection behavior and retry policy -----------------------------

class TestClientConnection:
    def test_sequential_requests_reuse_one_socket(self, live_server):
        _shared, _service = live_server
        with ServeClient(host=_shared.host, port=_shared.port,
                         timeout=60.0) as client:
            for _ in range(3):
                assert client.health().status == 200
            assert client.connections_opened == 1

    def test_stale_socket_reconnects_transparently(self, live_server):
        _shared, _service = live_server
        with ServeClient(host=_shared.host, port=_shared.port,
                         timeout=60.0) as client:
            assert client.health().status == 200
            # Sabotage the persistent socket (a restarted or idle-closed
            # peer looks the same): the next request must retry once on
            # a fresh connection instead of surfacing the stale error.
            client._conn.sock.close()
            assert client.health().status == 200
            assert client.connections_opened == 2

    def test_threads_get_private_sockets(self, live_server):
        _shared, _service = live_server
        with ServeClient(host=_shared.host, port=_shared.port,
                         timeout=60.0) as client:
            barrier = threading.Barrier(3)
            statuses = []

            def probe():
                barrier.wait()
                statuses.append(client.health().status)

            threads = [threading.Thread(target=probe) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert statuses == [200, 200, 200]
            assert client.connections_opened == 3


class TestRetryBackoff:
    def scripted_client(self, responses):
        """A client whose ``simulate`` replays canned responses."""
        import random

        client = ServeClient(port=1)
        script = iter(responses)
        client.simulate = lambda **fields: next(script)
        return client, random.Random(1234)

    @staticmethod
    def response(status, retry_after=None):
        headers = ({"retry-after": str(retry_after)}
                   if retry_after is not None else {})
        return ServeResponse(status=status, headers=headers, payload={})

    def test_full_jitter_is_seeded_and_bounded(self):
        def run_once():
            client, rng = self.scripted_client(
                [self.response(429), self.response(429),
                 self.response(200)])
            sleeps = []
            result = client.simulate_with_retry(
                backoff_s=0.25, max_backoff_s=5.0,
                sleep=sleeps.append, jitter=rng)
            return result, sleeps

        first, sleeps_a = run_once()
        second, sleeps_b = run_once()
        assert first.status == 200
        assert sleeps_a == sleeps_b            # seeded -> reproducible
        assert len(sleeps_a) == 2
        assert all(0.0 <= s <= 5.0 for s in sleeps_a)
        # Full jitter: uniform(0, base) with base = 0.25 then 0.5.
        assert sleeps_a[0] <= 0.25 and sleeps_a[1] <= 0.5

    def test_retry_after_hint_caps_the_base(self):
        client, rng = self.scripted_client(
            [self.response(429, retry_after=30), self.response(200)])
        sleeps = []
        result = client.simulate_with_retry(
            max_backoff_s=2.0, sleep=sleeps.append, jitter=rng)
        assert result.status == 200
        assert len(sleeps) == 1
        assert sleeps[0] <= 2.0       # hint capped by max_backoff_s

    def test_exhausted_budget_returns_last_shed(self):
        client, rng = self.scripted_client(
            [self.response(429)] * 4)
        result = client.simulate_with_retry(
            retries=3, sleep=lambda _s: None, jitter=rng)
        assert result.status == 429

    def test_non_retryable_returns_immediately(self):
        client, rng = self.scripted_client(
            [self.response(400), self.response(200)])
        sleeps = []
        result = client.simulate_with_retry(sleep=sleeps.append,
                                            jitter=rng)
        assert result.status == 400
        assert sleeps == []


class TestHostileFraming:
    """Mis-framed requests get the 400 envelope and never reach a handler."""

    @staticmethod
    def refused(live_server, raw: bytes) -> dict:
        client, service = live_server
        before = service.reconciliation()["requests"]
        with socket.create_connection((client.host, client.port),
                                      timeout=60) as sock:
            sock.sendall(raw)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        # Exactly one envelope: nothing after it was served as a request.
        payload = json.loads(body)
        assert payload["status"] == "error"
        assert service.reconciliation()["requests"] == before
        return payload

    def test_negative_content_length(self, live_server):
        smuggled = b"POST /v1/simulate HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
        payload = self.refused(
            live_server,
            b"POST /v1/simulate HTTP/1.1\r\nContent-Length: -1\r\n\r\n"
            + smuggled,
        )
        assert "bad Content-Length" in payload["error"]

    def test_header_line_past_the_reader_limit(self, live_server):
        payload = self.refused(
            live_server,
            b"POST /v1/simulate HTTP/1.1\r\nX-Pad: " + b"a" * 70 * 1024
            + b"\r\nContent-Length: 2\r\n\r\n{}",
        )
        assert "request head too large" in payload["error"]


class TestDrainEndpoint:
    # Runs last against the shared server: draining is sticky identity.
    def test_drain_flips_health_and_keeps_serving(self, live_server):
        client, _service = live_server
        health = client.health()
        assert health.payload["shard_id"] == "solo"
        assert health.payload["version"] == package_version()
        assert health.payload["uptime_s"] > 0
        drained = client.drain()
        assert drained.status == 200
        assert drained.payload["status"] == "draining"
        assert client.health().payload["status"] == "draining"
        # Draining is advisory: the worker still settles requests.
        response = client.simulate(design="baseline", workload="uniform")
        assert response.status == 200
        assert response.payload["source"] == "store"
