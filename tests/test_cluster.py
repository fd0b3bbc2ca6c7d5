"""Tests for the sharded serve tier: ring, router, supervisor, cluster.

The ring tests are pure functions of (seed, membership, key) — no
sockets.  The router tests host a real two-shard cluster in-process
(worker server threads + router thread on ephemeral ports) and walk the
acceptance path: digest affinity onto the ring owner, warm replay on the
same shard, draining remapping keys to the successor *without
recompute* (the shared read-through tier serves the other shard's warm
result), aggregated health/metrics that reconcile with per-shard sums,
and 503 + Retry-After when no shard can take a key.  One subprocess
class SIGKILLs a real worker mid-service and asserts the supervisor
restarts it while the router fails the key over warm.
"""

import os
import signal
import threading
import time

import pytest

from repro.cluster import Cluster, HashRing
from repro.serve import ServeClient
from repro.serve.protocol import canonical_digest, parse_simulate

KEYS = [f"digest-{i:04d}" for i in range(256)]


# -- the ring ----------------------------------------------------------------

class TestHashRing:
    def test_placement_deterministic_across_instances(self):
        ring_a = HashRing(["shard-0", "shard-1", "shard-2"], seed=0)
        ring_b = HashRing(["shard-2", "shard-0", "shard-1"], seed=0)
        assert [ring_a.owner(k) for k in KEYS] == \
            [ring_b.owner(k) for k in KEYS]

    def test_seed_changes_placement(self):
        ring_a = HashRing(["shard-0", "shard-1", "shard-2"], seed=0)
        ring_b = HashRing(["shard-0", "shard-1", "shard-2"], seed=1)
        assert any(ring_a.owner(k) != ring_b.owner(k) for k in KEYS)

    def test_removal_remaps_only_the_removed_shards_keys(self):
        ring = HashRing(["shard-0", "shard-1", "shard-2"], seed=0)
        before = {k: ring.owner(k) for k in KEYS}
        ring.remove("shard-1")
        for key in KEYS:
            if before[key] == "shard-1":
                assert ring.owner(key) != "shard-1"
            else:
                assert ring.owner(key) == before[key]

    def test_restoring_a_shard_returns_exactly_its_keys(self):
        ring = HashRing(["shard-0", "shard-1", "shard-2"], seed=0)
        before = {k: ring.owner(k) for k in KEYS}
        ring.remove("shard-1")
        ring.add("shard-1")
        assert {k: ring.owner(k) for k in KEYS} == before

    def test_successors_start_at_owner_and_cover_membership(self):
        ring = HashRing(["shard-0", "shard-1", "shard-2"], seed=0)
        for key in KEYS[:16]:
            order = list(ring.successors(key))
            assert order[0] == ring.owner(key)
            assert sorted(order) == ["shard-0", "shard-1", "shard-2"]

    def test_shard_for_walks_past_unavailable(self):
        ring = HashRing(["shard-0", "shard-1", "shard-2"], seed=0)
        key = KEYS[0]
        order = list(ring.successors(key))
        assert ring.shard_for(key, order[1:]) == order[1]
        assert ring.shard_for(key, []) is None

    def test_spread_counts_every_key_and_touches_every_shard(self):
        ring = HashRing(["shard-0", "shard-1", "shard-2"], seed=0)
        spread = ring.spread(KEYS)
        assert sum(spread.values()) == len(KEYS)
        assert all(count > 0 for count in spread.values())

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one shard"):
            HashRing([])
        with pytest.raises(ValueError, match="vnodes"):
            HashRing(["shard-0"], vnodes=0)


# -- router over an in-process cluster ---------------------------------------

@pytest.fixture(scope="module")
def cluster2():
    cluster = Cluster(workers=2, fast=True, poll_interval_s=0.1)
    port = cluster.start(supervise=False)
    client = ServeClient(port=port, timeout=300.0)
    yield cluster, client
    client.close()
    cluster.stop()


def set_state(cluster, client, shard_id, state, timeout=10.0):
    """Drive one shard's router state and wait until it is visible."""
    cluster.router.set_shard_state_threadsafe(shard_id, state, "test")
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        states = client.cluster().payload["counters"]["states"]
        if states[shard_id] == state:
            return
        time.sleep(0.02)
    raise AssertionError(f"{shard_id} never reached state {state!r}")


def cell_digest(cluster, **fields):
    """The digest/owner the router will assign to one simulate body."""
    spec = parse_simulate(fields)
    _, digest = canonical_digest(spec, cluster.router.config,
                                 cluster.router.params)
    return digest, cluster.router.ring.owner(digest)


class TestRouterEndToEnd:
    def test_cold_lands_on_owner_then_warm_same_shard(self, cluster2):
        cluster, client = cluster2
        digest, owner = cell_digest(cluster, design="baseline",
                                    workload="uniform")
        first = client.simulate(design="baseline", workload="uniform")
        assert first.status == 200
        assert first.payload["digest"] == digest
        assert first.payload["shard"] == owner
        assert first.payload["source"] == "computed"
        assert "rebalanced_from" not in first.payload
        second = client.simulate(design="baseline", workload="uniform")
        assert second.status == 200
        assert second.payload["shard"] == owner
        assert second.payload["source"] == "store"
        assert (first.payload["result"]["stats_digest"]
                == second.payload["result"]["stats_digest"])

    def test_draining_remaps_to_successor_without_recompute(self, cluster2):
        cluster, client = cluster2
        digest, owner = cell_digest(cluster, design="baseline",
                                    workload="uniform")
        other = next(s for s in cluster.router.shards if s != owner)
        set_state(cluster, client, owner, "draining")
        try:
            response = client.simulate(design="baseline", workload="uniform")
            assert response.status == 200
            assert response.payload["shard"] == other
            assert response.payload["rebalanced_from"] == owner
            # The successor never computed this key: the shared
            # read-through tier serves the owner's warm result.
            assert response.payload["source"] == "store"
        finally:
            set_state(cluster, client, owner, "up")
        back = client.simulate(design="baseline", workload="uniform")
        assert back.payload["shard"] == owner
        assert back.payload["source"] == "store"

    def test_draining_does_not_drop_inflight_requests(self, cluster2):
        cluster, client = cluster2
        fields = dict(design="baseline", workload="uniform", seed=7)
        _, owner = cell_digest(cluster, **fields)
        responses = []

        def fire():
            responses.append(client.simulate(**fields))

        thread = threading.Thread(target=fire)
        thread.start()
        time.sleep(0.05)    # let the cold compute get in flight
        set_state(cluster, client, owner, "draining")
        try:
            thread.join(300)
            assert responses and responses[0].status == 200
            assert responses[0].payload["source"] in ("computed",
                                                      "coalesced", "store")
            # New requests for the key remap while the owner drains...
            remapped = client.simulate(**fields)
            assert remapped.status == 200
            assert remapped.payload["shard"] != owner
            assert remapped.payload["source"] == "store"
        finally:
            set_state(cluster, client, owner, "up")

    def test_sweep_fans_out_to_owners_and_streams(self, cluster2):
        cluster, client = cluster2
        response = client.sweep(styles=["baseline", "static"],
                                widths=[16, 8], workloads=["uniform"])
        assert response.status == 202
        spread = response.payload["spread"]
        assert sorted(spread) == sorted(cluster.router.shards)
        assert sum(spread.values()) == 4
        events = list(client.job_events(response.payload["job_id"]))
        assert events[-1]["event"] == "complete"
        assert events[-1]["status"] == "done"
        summary = events[-1]["summary"]
        assert summary["cells"] == 4
        assert sum(summary["shards"].values()) == 4
        settled = [e for e in events if e["event"] in ("hit", "done")]
        assert len(settled) == 4
        # Every cell settled on its ring owner (all shards were up).
        for event in settled:
            assert event["shard"] == cluster.router.ring.owner(
                event["digest"])

    def test_health_aggregates_and_degrades(self, cluster2):
        cluster, client = cluster2
        health = client.health()
        assert health.status == 200
        assert health.payload["status"] == "ok"
        assert health.payload["role"] == "router"
        assert health.payload["counts"]["up"] == 2
        shard_views = health.payload["shards"]
        for view in shard_views.values():
            assert view["health"]["status"] in ("ok", "draining")
            assert "shard_id" in view["health"]
        some = next(iter(cluster.router.shards))
        set_state(cluster, client, some, "draining")
        try:
            degraded = client.health()
            assert degraded.payload["status"] == "degraded"
            assert degraded.payload["counts"]["draining"] == 1
        finally:
            set_state(cluster, client, some, "up")

    def test_metrics_totals_reconcile_with_shard_sums(self, cluster2):
        cluster, client = cluster2
        payload = client.metrics().payload
        recon = payload["reconciliation"]
        assert recon["balanced"] is True
        assert recon["shards_reporting"] == 2
        by_shard = payload["shards"]
        for endpoint, total in payload["totals"]["requests"].items():
            assert total == sum(
                view["requests"].get(endpoint, 0)
                for view in by_shard.values())
        for source, total in payload["totals"]["settled"].items():
            assert total == sum(
                view["reconciliation"]["settled"].get(source, 0)
                for view in by_shard.values())
        routed = payload["cluster"]["requests"]
        assert sum(routed.values()) >= 1

    def test_cluster_endpoint_reports_ring_and_shards(self, cluster2):
        cluster, client = cluster2
        payload = client.cluster().payload
        assert payload["ring"]["shards"] == ["shard-0", "shard-1"]
        assert payload["ring"]["points"] == 2 * cluster.vnodes
        assert set(payload["shards"]) == {"shard-0", "shard-1"}
        assert payload["counters"]["states"] == {"shard-0": "up",
                                                 "shard-1": "up"}

    def test_bad_request_rejected_at_the_router(self, cluster2):
        cluster, client = cluster2
        response = client.simulate(design="quantum")
        assert response.status == 400
        assert "unknown design" in response.payload["error"]
        assert client.cluster().payload["counters"]["rejected"] >= 1

    def test_router_errors_come_from_its_own_route_table(self, cluster2):
        _cluster, client = cluster2
        # Known router paths, wrong method -> 405; everything else -> 404,
        # including routes only a worker serves.
        assert client._request("GET", "/v1/simulate").status == 405
        assert client._request("POST", "/cluster").status == 405
        assert client._request("GET", "/nope").status == 404
        assert client._request("POST", "/v1/profile", {}).status == 404
        assert client._request("GET", "/v1/trace").status == 404

    def test_unroutable_key_gets_503_with_retry_after(self, cluster2):
        cluster, client = cluster2
        for shard_id in cluster.router.shards:
            set_state(cluster, client, shard_id, "draining")
        try:
            response = client.simulate(design="baseline",
                                       workload="uniform")
            assert response.status == 503
            assert response.retry_after_s is not None
            assert response.payload["retry_after_s"] == \
                response.retry_after_s
        finally:
            for shard_id in cluster.router.shards:
                set_state(cluster, client, shard_id, "up")
        assert client.cluster().payload["counters"]["unroutable"] >= 1
        recovered = client.simulate(design="baseline", workload="uniform")
        assert recovered.status == 200


# -- subprocess workers under supervision ------------------------------------

class TestSupervisedProcesses:
    def test_sigkilled_worker_fails_over_warm_and_restarts(self, tmp_path):
        cluster = Cluster(workers=2, fast=True, processes=True,
                          cache_root=str(tmp_path / "cluster"),
                          poll_interval_s=0.25)
        port = cluster.start(supervise=True)
        client = ServeClient(port=port, timeout=300.0)
        try:
            warm = client.simulate(design="baseline", workload="uniform")
            assert warm.status == 200
            owner = warm.payload["shard"]
            handle = next(w for w in cluster.workers
                          if w.shard_id == owner)
            old_pid = handle.pid
            os.kill(old_pid, signal.SIGKILL)
            # The key survives the crash: the router marks the shard
            # down on the broken proxy and walks to the successor,
            # which serves the shared tier's warm copy.
            during = client.simulate(design="baseline", workload="uniform")
            assert during.status == 200
            assert during.payload["source"] == "store"
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                states = client.cluster().payload["counters"]["states"]
                if (states[owner] == "up" and handle.pid != old_pid
                        and handle.restarts >= 1):
                    break
                time.sleep(0.2)
            else:
                raise AssertionError(
                    f"{owner} not restarted; states={states}, "
                    f"restarts={handle.restarts}")
            after = client.simulate(design="baseline", workload="uniform")
            assert after.status == 200
            assert after.payload["shard"] == owner
            assert after.payload["source"] == "store"
            status = client.cluster().payload
            assert status["supervisor"]["restarts"] >= 1
        finally:
            client.close()
            cluster.stop()

    def test_sweep_job_survives_a_sigkill_mid_flight(self, tmp_path):
        grid = dict(styles=["baseline", "static", "wire", "adaptive"],
                    widths=[16, 8], workloads=["uniform"])
        cluster = Cluster(workers=2, fast=True, processes=True,
                          cache_root=str(tmp_path / "cluster"),
                          poll_interval_s=0.25)
        client = ServeClient(port=cluster.start(), timeout=600.0)
        try:
            accepted = client.sweep(**grid)
            assert accepted.status == 202, accepted.payload
            spread = accepted.payload["spread"]
            victim = next(w for w in cluster.workers
                          if w.shard_id == max(spread, key=spread.get))
            os.kill(victim.pid, signal.SIGKILL)
            # Cells in flight on the dead shard fail over to its ring
            # successor; an accepted job never drops one.
            events = list(client.job_events(accepted.payload["job_id"]))
            assert events[-1]["event"] == "complete", events[-1]
            assert events[-1]["status"] == "done", events[-1]
            assert events[-1]["summary"]["cells"] == 8
            counters = client.cluster().payload["counters"]
            assert counters["rebalanced_keys"] >= 1, counters
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                states = client.cluster().payload["counters"]["states"]
                if all(state == "up" for state in states.values()):
                    break
                time.sleep(0.2)
            else:
                raise AssertionError(f"shard never came back: {states}")
            replay = client.sweep(**grid)
            summary = list(client.job_events(
                replay.payload["job_id"]))[-1]["summary"]
            assert summary["sources"] == {"store": 8}, summary
            assert sum(summary["shards"].values()) == 8
        finally:
            client.close()
            cluster.stop()
