"""Round-trip codecs between run results and JSON-safe payloads.

The store persists :class:`~repro.experiments.runner.RunResult` objects
(and bare :class:`~repro.noc.stats.NetworkStats` for probes/ablations) as
plain dicts.  The decoders reconstruct objects that are *behaviorally
identical* to the originals — every derived property (latency averages,
percentiles, power totals) computes the same value — so a cache hit is
indistinguishable from a fresh simulation, and a parallel sweep that ships
payloads across process boundaries reports byte-identical results to a
serial one.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict

from repro.noc.message import MessageClass
from repro.noc.stats import ActivityCounts, NetworkStats
from repro.obs.result import RunResult
from repro.power import AreaReport, PowerReport


def _fields(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


# -- NetworkStats ------------------------------------------------------------

def encode_stats(stats: NetworkStats) -> dict:
    """A NetworkStats as a JSON-safe dict (enum/tuple keys flattened)."""
    return {
        "measure_start": stats.measure_start,
        "measure_end": stats.measure_end,
        "activity": _fields(stats.activity),
        "injected_packets": stats.injected_packets,
        "injected_flits": stats.injected_flits,
        "delivery_events": stats.delivery_events,
        "event_flits": stats.event_flits,
        "delivered_packets": stats.delivered_packets,
        "delivered_flits": stats.delivered_flits,
        "latency_sum": stats.latency_sum,
        "flit_latency_sum": stats.flit_latency_sum,
        "hop_sum": stats.hop_sum,
        "rf_hop_sum": stats.rf_hop_sum,
        "escape_packets": stats.escape_packets,
        "fault_drops": stats.fault_drops,
        "fault_retries": stats.fault_retries,
        "fault_reroutes": stats.fault_reroutes,
        "latencies": list(stats.latencies),
        "class_counts": {c.value: n for c, n in stats.class_counts.items()},
        "class_latency_sum": {
            c.value: n for c, n in stats.class_latency_sum.items()
        },
        "class_deliveries": {
            c.value: n for c, n in stats.class_deliveries.items()
        },
        "distance_histogram": {
            str(d): n for d, n in stats.distance_histogram.items()
        },
        "link_flits": {
            f"{src}>{dst}": n for (src, dst), n in stats.link_flits.items()
        },
    }


def decode_stats(payload: dict) -> NetworkStats:
    """Rebuild a NetworkStats from :func:`encode_stats` output."""
    stats = NetworkStats(
        measure_start=payload["measure_start"],
        measure_end=payload["measure_end"],
        activity=ActivityCounts(**payload["activity"]),
        injected_packets=payload["injected_packets"],
        injected_flits=payload["injected_flits"],
        delivery_events=payload["delivery_events"],
        event_flits=payload["event_flits"],
        delivered_packets=payload["delivered_packets"],
        delivered_flits=payload["delivered_flits"],
        latency_sum=payload["latency_sum"],
        flit_latency_sum=payload["flit_latency_sum"],
        hop_sum=payload["hop_sum"],
        rf_hop_sum=payload["rf_hop_sum"],
        escape_packets=payload["escape_packets"],
        # Fault counters postdate the store schema; old entries decode as 0.
        fault_drops=payload.get("fault_drops", 0),
        fault_retries=payload.get("fault_retries", 0),
        fault_reroutes=payload.get("fault_reroutes", 0),
        latencies=list(payload["latencies"]),
    )
    for value, n in payload["class_counts"].items():
        stats.class_counts[MessageClass(value)] = n
    for value, n in payload["class_latency_sum"].items():
        stats.class_latency_sum[MessageClass(value)] = n
    for value, n in payload["class_deliveries"].items():
        stats.class_deliveries[MessageClass(value)] = n
    for distance, n in payload["distance_histogram"].items():
        stats.distance_histogram[int(distance)] = n
    link_flits: dict[tuple[int, int], int] = defaultdict(int)
    for key, n in payload["link_flits"].items():
        src, dst = key.split(">")
        link_flits[(int(src), int(dst))] = n
    stats.link_flits = link_flits
    return stats


# -- RunResult ---------------------------------------------------------------

def encode_result(result: RunResult) -> dict:
    """A RunResult as a JSON-safe payload dict.

    ``metrics`` (a registry snapshot), ``provenance`` and ``control`` (an
    online cell's decision journal) ride along when present; entries
    written before these fields existed decode fine (the decoder treats
    them as absent), and offline payloads never carry a ``control`` key.
    """
    payload = {
        "design": result.design,
        "workload": result.workload,
        "avg_latency": result.avg_latency,
        "avg_flit_latency": result.avg_flit_latency,
        "power": _fields(result.power) if result.power is not None else None,
        "area": _fields(result.area) if result.area is not None else None,
        "stats": (
            encode_stats(result.stats) if result.stats is not None else None
        ),
    }
    if result.metrics is not None:
        payload["metrics"] = result.metrics
    if result.provenance is not None:
        payload["provenance"] = result.provenance
    if result.control is not None:
        payload["control"] = result.control
    return payload


def decode_result(payload: dict) -> RunResult:
    """Rebuild a RunResult from :func:`encode_result` output."""
    power = payload.get("power")
    area = payload.get("area")
    return RunResult(
        design=payload["design"],
        workload=payload["workload"],
        avg_latency=payload["avg_latency"],
        avg_flit_latency=payload["avg_flit_latency"],
        power=PowerReport(**power) if power is not None else None,
        area=AreaReport(**area) if area is not None else None,
        stats=(
            decode_stats(payload["stats"])
            if payload.get("stats") is not None else None
        ),
        metrics=payload.get("metrics"),
        provenance=payload.get("provenance"),
        control=payload.get("control"),
    )
