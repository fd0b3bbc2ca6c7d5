"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``params``      print the network-simulation parameter table (Fig 5a)
``floorplan``   render the CMP floorplan with RF access points (Fig 2a)
``list``        list the reproducible experiments
``workloads``   characterize every workload (locality, hotspots)
``run``         run one experiment (or ``all``) and print its table
``simulate``    one-off simulation of a (design, workload) cell
``sweep``       parallel (styles x widths x workloads) grid through the
                execution engine, with the persistent result cache
``serve``       host the asyncio simulation service (``repro.serve``)
``request``     client: query a running service (simulate/sweep/health/
                metrics/trace/job; see ``docs/serving.md``)
``campaign``    declarative, resumable scenario campaigns: ``run`` a
                spec (file or named campaign) in checkpointed chunks,
                ``status`` a manifest, ``report`` Pareto frontiers
                (see ``docs/campaigns.md``)
``kernels``     list the registered cycle-execution kernels and their
                capability flags (the ``--kernel`` vocabulary)
``topologies``  list the registered substrate topology providers and
                their capability flags (the ``--topology`` vocabulary)

The executing verbs (``run``/``simulate``/``sweep``) share one flag
vocabulary: ``--jobs``, ``--seed``, ``--out``, ``--fast``, and
``--trace-events`` mean the same thing everywhere, and every subcommand
takes ``--json`` to emit machine-readable output on stdout instead of
text.  ``simulate --trace-events FILE`` writes the run's cycle-level
events as JSONL; ``sweep --trace-events DIR`` writes one JSONL per
simulated cell (tracing forces fresh, uncached runs); both take
``--faults SPEC`` to inject a fault schedule (see ``docs/faults.md``).
Which designs, widths, workloads, topologies and fault/control specs a
cell may name is decided in one place, :mod:`repro.exec.jobs`; this
module only parses flags and turns its ``SpecError`` into exit code 2.

Exit codes are uniform: 0 success, 2 bad input (unknown experiment,
malformed grid, invalid request), 1 anything else.  Under ``--json``
every payload carries a ``version`` field and bad input additionally
emits one single-line JSON error object on stderr, so scripted callers
can always parse what they got.  ``repro --version`` prints the package
version.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro.experiments import (
    FAST_CONFIG, ExperimentRunner, e1_load_latency,
    e2_adaptive_routing, e3_static_shortcut_gains, e4_heuristic_ablation,
    fig1_traffic_locality, fig2_topologies, fig7_rf_router_count,
    fig8_bandwidth_reduction, fig9_multicast, fig10_unified,
    o1_closed_loop_vs_static, o2_reconfiguration_under_faults,
    r1_shortcut_degradation, r2_transient_outage, table2_area,
)
from repro.exec.jobs import (
    CONTROL_STYLES, DESIGN_STYLES, LINK_WIDTHS, SpecError,
)
from repro.exec.store import DEFAULT_CACHE
from repro.experiments.config import resolve_config
from repro.noc.kernel import list_kernels
from repro.noc.topology import list_topologies
from repro.params import DEFAULT_PARAMS
from repro.version import package_version

EXPERIMENTS = {
    "E1": (e1_load_latency, "load-latency: baseline vs static shortcuts"),
    "E2": (e2_adaptive_routing, "adaptive routing under shortcut contention"),
    "E3": (e3_static_shortcut_gains, "static shortcut latency reduction"),
    "E4": (e4_heuristic_ablation, "Fig 3a vs 3b selection heuristics"),
    "F1": (fig1_traffic_locality, "traffic by Manhattan distance (Fig 1)"),
    "F2": (fig2_topologies, "overlay topologies (Fig 2)"),
    "F7": (fig7_rf_router_count, "RF-enabled router count (Fig 7)"),
    "F8": (fig8_bandwidth_reduction, "mesh bandwidth reduction (Fig 8)"),
    "F9": (fig9_multicast, "multicast comparison (Fig 9)"),
    "F10": (fig10_unified, "unified power/performance (Fig 10)"),
    "O1": (o1_closed_loop_vs_static,
           "online control: closed loop vs best static placement"),
    "O2": (o2_reconfiguration_under_faults,
           "online control: reconfiguration under active band faults"),
    "R1": (r1_shortcut_degradation, "resilience: latency/power vs dead bands"),
    "R2": (r2_transient_outage, "resilience: transient mid-run outage"),
    "T2": (table2_area, "NoC area (Table 2)"),
}

class CLIError(Exception):
    """Bad user input: exit 2, single-line JSON on stderr under --json."""


def _print_json(payload) -> None:
    """Emit a ``--json`` payload, always carrying a ``version`` field.

    Dict payloads gain the field in place; list payloads are wrapped as
    ``{"version": ..., "items": [...]}`` (a bare array can't carry it).
    """
    if isinstance(payload, dict):
        payload.setdefault("version", package_version())
    else:
        payload = {"version": package_version(), "items": payload}
    print(json.dumps(payload, indent=2, sort_keys=True))


def _config_for(args, *, seeded: bool = False):
    """The experiment config implied by ``--fast``/``--kernel``.

    ``seeded`` folds ``--seed`` into ``traffic_seed`` — only for the verbs
    with no per-cell seed to carry it (``run``, ``serve``).  ``sweep``,
    ``simulate`` and ``control`` put it in the cell, so one ``--seed N``
    addresses one store entry whichever verb (or API, or request) asks.
    """
    config = resolve_config(fast=getattr(args, "fast", False),
                            kernel=getattr(args, "kernel", None))
    if seeded and args.seed is not None:
        config = dataclasses.replace(config, traffic_seed=args.seed)
    return config


def render_parameters() -> str:
    """The Fig 5a 'Network Simulation Parameters' table."""
    rows = parameter_rows()
    width = max(len(name) for name, _ in rows)
    lines = ["Network Simulation Parameters (Fig 5a)",
             "=" * 40]
    lines += [f"{name:<{width}}  {value}" for name, value in rows]
    return "\n".join(lines)


def parameter_rows() -> list[tuple[str, str]]:
    """The Fig 5a table as (name, value) rows."""
    p = DEFAULT_PARAMS
    return [
        ("Topology", f"{p.mesh.width}x{p.mesh.height} {p.mesh.provider}"),
        ("Components", f"{p.mesh.num_cores} cores, {p.mesh.num_caches} "
                       f"cache banks, {p.mesh.num_memports} memory ports"),
        ("Clocks", f"network {p.mesh.network_ghz:.0f} GHz, "
                   f"cores/caches {p.mesh.core_ghz:.0f} GHz"),
        ("Die", f"{p.mesh.die_area_mm2:.0f} mm^2 "
                f"({p.mesh.router_spacing_mm:.1f} mm router spacing)"),
        ("Link width", f"{p.mesh.link_bytes} B/cycle (8 B and 4 B variants)"),
        ("Switching", "wormhole, credit-based flow control"),
        ("Router pipeline", f"{p.router.pipeline_head_cycles}-cycle head "
                            f"(RC/VA/SA/ST/LT), "
                            f"{p.router.pipeline_body_cycles}-cycle body"),
        ("Virtual channels", f"{p.router.num_vcs} + "
                             f"{p.router.num_escape_vcs} escape per input, "
                             f"{p.router.vc_buffer_flits}-flit buffers"),
        ("Messages", f"request {p.message.request_bytes} B, data "
                     f"{p.message.data_bytes} B, memory "
                     f"{p.message.memory_bytes} B"),
        ("RF-I", f"{p.rfi.num_lines} lines x {p.rfi.line_gbps:.0f} Gbps = "
                 f"{p.rfi.aggregate_bytes_per_cycle} B/cycle, "
                 f"{p.rfi.shortcut_budget} x {p.rfi.shortcut_bytes} B bands"),
        ("RF-I physics", f"{p.rfi.energy_pj_per_bit} pJ/bit, "
                         f"{p.rfi.area_um2_per_gbps} um^2/Gbps, "
                         f"single-cycle cross-chip"),
        ("Deadlock", "escape VC class, XY on mesh links only"),
    ]


def cmd_params(args) -> int:
    """Print the Fig 5a parameter table."""
    if args.json:
        _print_json({name: value for name, value in parameter_rows()})
    else:
        print(render_parameters())
    return 0


def cmd_floorplan(args) -> int:
    """Render the CMP floorplan with RF access points."""
    runner = ExperimentRunner(FAST_CONFIG)
    topo = runner.topology
    rf = sorted(topo.rf_enabled_routers(args.access_points))
    if args.json:
        _print_json({
            "access_points": rf,
            "width": topo.width,
            "height": topo.height,
        })
        return 0
    print(f"C=core  $=cache  M=memory  *=RF access point ({len(rf)})")
    print(topo.render(set(rf)))
    return 0


def cmd_list(args) -> int:
    """List the reproducible experiments."""
    if args.json:
        _print_json({key: desc for key, (_fn, desc) in EXPERIMENTS.items()})
        return 0
    for key, (_fn, description) in EXPERIMENTS.items():
        print(f"{key:<4} {description}")
    return 0


def cmd_workloads(args) -> int:
    """Characterize every workload (Table 1 + the Fig 5b substitution)."""
    from repro.traffic import (
        APPLICATIONS, PATTERN_NAMES, ProbabilisticTraffic, detect_hotspots,
        locality_index,
    )

    runner = ExperimentRunner(FAST_CONFIG)
    topo = runner.topology
    seed = 4 if args.seed is None else args.seed
    rows = []
    for name in PATTERN_NAMES + tuple(APPLICATIONS):
        source = ProbabilisticTraffic(
            topo, runner.pattern(name), runner.rate(name), seed=seed
        )
        profile = source.collect_profile(args.cycles)
        rows.append({
            "workload": name,
            "rate": runner.rate(name),
            "locality": locality_index(profile, topo),
            "hotspots": len(detect_hotspots(profile)),
        })
    if args.json:
        _print_json(rows)
        return 0
    print(f"{'workload':<15} {'rate':>6} {'locality':>9} {'hotspots':>9}")
    for row in rows:
        print(f"{row['workload']:<15} {row['rate']:>6.3f} "
              f"{row['locality']:>9.2f} {row['hotspots']:>9}")
    return 0


def _names(rows: list[dict]) -> list[str]:
    """Registry names, default first (``--kernel``/``--topology`` choices)."""
    return [row["name"] for row in rows]


def _print_registry(args, rows: list[dict], contract: str) -> int:
    """Print one registry listing (rows from ``Registry.rows()``)."""
    if args.json:
        _print_json(rows)
        return 0
    width = max(len(row["name"]) for row in rows)
    for row in rows:
        marker = "*" if row["default"] else " "
        caps = ",".join(row["capabilities"])
        print(f"{marker} {row['name']:<{width}}  [{caps}]  {row['summary']}")
    print(f"(* = default; see {contract})")
    return 0


def cmd_kernels(args) -> int:
    """List the registered cycle-execution kernels and their capabilities."""
    return _print_registry(args, list_kernels(),
                           "docs/performance.md for the contract")


def cmd_topologies(args) -> int:
    """List the registered topology providers and their capabilities."""
    return _print_registry(args, list_topologies(),
                           "docs/topologies.md for the provider contract")


def _warn_trace_ignored(args) -> None:
    if getattr(args, "trace_events", None):
        print("note: --trace-events records cycle-level events for "
              "'simulate' and 'sweep'; 'run' executes many cells and "
              "ignores it", file=sys.stderr)


def cmd_run(args) -> int:
    """Run one experiment (or 'all') and print/write its table."""
    from repro.experiments.export import jsonable

    _warn_trace_ignored(args)
    runner = ExperimentRunner(_config_for(args, seeded=True))
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    collected = {}
    for name in names:
        key = name.upper()
        if key not in EXPERIMENTS:
            raise CLIError(f"unknown experiment {name!r}; see 'list'")
        fn, _ = EXPERIMENTS[key]
        result = fn(runner)
        text = result.render()
        if args.json:
            collected[key] = jsonable(result)
        else:
            print(text)
            print()
        if out_dir:
            (out_dir / f"{key.lower()}.txt").write_text(text + "\n")
    if args.json:
        _print_json(collected)
    return 0


def cmd_simulate(args) -> int:
    """Simulate one (design, workload) cell and print its metrics."""
    from repro.api import simulate

    online = getattr(args, "online", None)
    result = simulate(
        args.design, args.workload, width=args.width, fast=args.fast,
        kernel=getattr(args, "kernel", None),
        topology=getattr(args, "topology", None),
        seed=args.seed, faults=args.faults or None,
        trace_events=args.trace_events or None,
        online=online,
    )
    summary = result.summary()
    summary["provenance"] = result.provenance
    if online is not None:
        from repro.control.loop import ControlConfig

        summary["online"] = ControlConfig.from_spec(online or "").canonical()
    if args.faults:
        summary["faults"] = args.faults
    if getattr(args, "topology", None):
        summary["topology"] = args.topology
    if args.trace_events:
        summary["trace_events"] = str(args.trace_events)
    if args.out:
        from repro.experiments.export import save_json

        save_json(result.to_dict(), args.out)
    if args.json:
        _print_json(summary)
        return 0
    print(f"design    : {result.design}")
    print(f"workload  : {result.workload}")
    print(f"latency   : {result.avg_latency:.2f} cycles/packet "
          f"({result.avg_flit_latency:.2f} /flit)")
    print(f"power     : {result.total_power_w:.2f} W")
    print(f"area      : {result.total_area_mm2:.2f} mm^2")
    print(f"delivered : {result.stats.delivered_packets} packets "
          f"({result.stats.delivery_ratio:.3f} of injected)")
    if args.faults:
        stats = result.stats
        print(f"faults    : {args.faults} (drops={stats.fault_drops} "
              f"retries={stats.fault_retries} "
              f"reroutes={stats.fault_reroutes})")
    if args.trace_events:
        print(f"trace     : {args.trace_events}")
    if args.heatmap:
        from repro.noc.topology import build_topology
        from repro.noc.visualize import render_traffic_heatmap

        print()
        print(render_traffic_heatmap(
            result.stats,
            build_topology(DEFAULT_PARAMS.mesh,
                           provider=getattr(args, "topology", None)),
        ))
    return 0


def cmd_sweep(args) -> int:
    """Run a (styles x widths x workloads) grid through the parallel engine."""
    from repro.exec import ResultStore, run_sweep, sweep_grid
    from repro.experiments.export import jsonable, save_json

    config = _config_for(args)
    online = getattr(args, "online", None)
    styles = _split_list(args.styles, "styles")
    widths = [_parse_width(w) for w in _split_list(args.widths, "widths")]
    workloads = _split_list(args.workloads, "workloads")
    specs = sweep_grid(styles, widths, workloads,
                       adaptive_routing=args.adaptive_routing,
                       seeds=(args.seed,), faults=args.faults or None,
                       topology=getattr(args, "topology", None),
                       control=online)
    trace_dir = Path(args.trace_events) if args.trace_events else None
    # Tracing forces fresh runs, so the persistent cache is bypassed.
    store = (None if args.no_cache or trace_dir
             else ResultStore(args.cache))

    def progress(event: dict) -> None:
        label = {"hit": "cache", "done": "ran", "retry": "retry"}[
            event["event"]
        ]
        wall = f" ({event['wall_s']:.1f}s)" if "wall_s" in event else ""
        print(f"[{event['index'] + 1}/{len(specs)}] {label:<5} "
              f"{event['job']}{wall}", file=sys.stderr)

    report = run_sweep(specs, config=config, store=store, jobs=args.jobs,
                       progress=progress, trace_dir=trace_dir)
    summary = report.summary()
    payload = {
        "summary": summary,
        "jobs": [
            {
                "spec": jsonable(outcome.spec),
                "digest": outcome.digest,
                "cached": outcome.cached,
                "wall_s": outcome.wall_s,
                "attempts": outcome.attempts,
                "profile": outcome.profile,
                "result": outcome.result.summary(),
            }
            for outcome in report.outcomes
        ],
    }
    if args.json:
        _print_json(payload)
    else:
        header = (f"{'design':<22} {'workload':<12} {'latency':>8} "
                  f"{'power W':>8} {'source':>7} {'wall s':>7}")
        print(header)
        print("-" * len(header))
        for outcome in report.outcomes:
            result = outcome.result
            print(f"{result.design:<22} {result.workload:<12} "
                  f"{result.avg_latency:>8.2f} {result.total_power_w:>8.2f} "
                  f"{'cache' if outcome.cached else 'sim':>7} "
                  f"{outcome.wall_s:>7.2f}")
        print()
        print(f"{summary['jobs']} jobs in {summary['wall_s']:.1f}s with "
              f"{args.jobs} worker(s): {summary['cache_hits']} cache hits, "
              f"{summary['cache_misses']} simulated "
              f"({summary['cycles_per_sec']:.0f} sim cycles/s)")
    if args.out:
        path = save_json(payload, args.out)
        print(f"wrote {path}", file=sys.stderr if args.json else sys.stdout)
    return 0


def cmd_control(args) -> int:
    """One closed-loop run: metrics + decision journal (+ static bar)."""
    from repro.control.run import run_closed_loop
    from repro.exec import ResultStore
    from repro.experiments.export import jsonable

    store = None if args.no_cache else ResultStore(args.cache)
    runner = ExperimentRunner(_config_for(args), store=store)
    run = run_closed_loop(
        runner, args.workload, style=args.design, width=args.width,
        seed=args.seed, access_points=args.access_points,
        control=args.control or "", faults=args.faults or None,
        topology=getattr(args, "topology", None),
    )
    result = run.result
    summary = run.summary()
    payload = {
        "design": result.design,
        "workload": args.workload,
        "control": run.control.canonical(),
        "digest": run.digest,
        "avg_latency": result.avg_latency,
        "avg_flit_latency": result.avg_flit_latency,
        "power_w": result.total_power_w,
        "journal": summary,
        "decisions": run.journal.to_dicts(),
    }
    static = None
    if args.compare_static:
        from repro.control.run import best_static_latencies

        static = best_static_latencies(
            runner, args.workload, width=args.width, seed=args.seed,
            access_points=args.access_points,
            topology=getattr(args, "topology", None),
        )
        best = min(static, key=static.get)
        payload["static"] = static
        payload["best_static"] = {"placement": best,
                                  "avg_latency": static[best]}
        payload["closed_loop_wins"] = result.avg_latency < static[best]
    if args.journal:
        path = run.journal.write_jsonl(args.journal)
        payload["journal_path"] = str(path)
    if args.json:
        _print_json(jsonable(payload))
        return 0
    print(f"design    : {result.design}")
    print(f"workload  : {args.workload}")
    print(f"control   : {run.control.canonical()}")
    print(f"latency   : {result.avg_latency:.2f} cycles/packet "
          f"({result.avg_flit_latency:.2f} /flit)")
    print(f"power     : {result.total_power_w:.2f} W")
    print(f"decisions : {summary['applied']} applied, "
          f"{summary['skipped']} skipped "
          f"({summary['overhead_cycles']} overhead cycles)")
    print(f"journal   : {summary['journal_digest'][:16]} "
          f"({summary['records']} records)")
    if static is not None:
        best = payload["best_static"]
        verdict = "wins" if payload["closed_loop_wins"] else "loses"
        print(f"static    : best {best['placement']} at "
              f"{best['avg_latency']:.2f} cycles/packet "
              f"-> closed loop {verdict}")
    if args.journal:
        print(f"wrote     : {payload['journal_path']}")
    return 0


def _split_list(text: str, name: str) -> list[str]:
    values = [item for item in text.split(",") if item]
    if not values:
        raise CLIError(f"--{name} must name at least one value")
    return values


def _parse_width(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CLIError(f"invalid link width {text!r}: widths are "
                       "comma-separated integers (bytes)") from None


def _serve_cluster(args) -> int:
    """The ``repro serve --workers N`` path: supervisor + router."""
    import signal as _signal
    import time as _time

    from repro.cluster import Cluster

    if args.no_cache:
        raise CLIError("--workers needs the result store: the shared "
                       "read-through tier under --cache is what lets "
                       "shards serve each other's warm results")
    extra = []
    if args.seed is not None:
        extra += ["--seed", str(args.seed)]
    if getattr(args, "kernel", None):
        extra += ["--kernel", args.kernel]
    if getattr(args, "topology", None):
        extra += ["--topology", args.topology]
    cluster = Cluster(
        workers=args.workers,
        config=_config_for(args, seeded=True),
        fast=getattr(args, "fast", False),
        processes=True,
        host=args.host,
        router_port=args.port,
        cache_root=args.cache,
        queue_limit=args.queue_limit,
        concurrency=max(args.jobs, 1),
        extra_worker_args=extra,
    )
    port = cluster.start()
    ports = ", ".join(str(w.port) for w in cluster.workers)
    print(f"repro.cluster router on http://{args.host}:{port} "
          f"({args.workers} workers on ports {ports}; "
          f"caches under {args.cache})")
    # SIGTERM (systemd stop, docker stop, plain `kill`) must tear the
    # worker subprocesses down too, not just the router process.
    def _terminated(signum, frame):
        raise KeyboardInterrupt

    previous = _signal.signal(_signal.SIGTERM, _terminated)
    try:
        while True:
            _time.sleep(1)
    except KeyboardInterrupt:
        pass
    finally:
        _signal.signal(_signal.SIGTERM, previous)
        cluster.stop()
    return 0


def cmd_serve(args) -> int:
    """Host the asyncio simulation service (blocking; Ctrl-C to stop)."""
    from repro.exec import ResultStore
    from repro.serve.http import run as serve_run
    from repro.serve.service import SimulationService

    if args.workers < 1:
        raise CLIError("--workers must be at least 1")
    if args.workers > 1:
        return _serve_cluster(args)
    store = (None if args.no_cache
             else ResultStore(args.cache, shared=args.shared_cache))
    params = DEFAULT_PARAMS
    if getattr(args, "topology", None):
        # The service-wide default substrate; per-request "topology"
        # fields still override it cell by cell.
        params = params.with_topology(provider=args.topology)
    service = SimulationService(
        config=_config_for(args, seeded=True),
        params=params,
        store=store,
        queue_limit=args.queue_limit,
        concurrency=args.jobs,
        max_timeout_s=args.timeout,
        shard_id=args.shard_id,
    )
    serve_run(service, host=args.host, port=args.port)
    return 0


def cmd_request(args) -> int:
    """Query a running service; prints the response envelope."""
    from repro.serve.client import ServeClient, ServeClientError

    client = ServeClient(args.host, args.port, timeout=args.timeout)
    try:
        if args.what == "health":
            response = client.health()
        elif args.what == "cluster":
            response = client.cluster()
        elif args.what == "metrics":
            response = client.metrics()
        elif args.what == "trace":
            response = client.trace()
        elif args.what == "job":
            if not args.id:
                raise CLIError("'request job' needs --id JOB_ID")
            for event in client.job_events(args.id):
                print(json.dumps(event, sort_keys=True))
            return 0
        elif args.what == "sweep":
            fields = {
                "styles": _split_list(args.styles, "styles"),
                "widths": [_parse_width(w)
                           for w in _split_list(args.widths, "widths")],
                "workloads": _split_list(args.workloads, "workloads"),
            }
            if args.faults:
                fields["faults"] = args.faults
            if args.topology:
                fields["topology"] = args.topology
            response = client.sweep(**fields)
            if response.status == 202 and args.follow:
                for event in client.job_events(
                    response.payload["job_id"]
                ):
                    print(json.dumps(event, sort_keys=True))
                return 0
        else:   # simulate
            fields = {"design": args.design, "workload": args.workload,
                      "width": args.width}
            if args.seed is not None:
                fields["seed"] = args.seed
            if args.faults:
                fields["faults"] = args.faults
            if args.topology:
                fields["topology"] = args.topology
            if args.timeout_s is not None:
                fields["timeout_s"] = args.timeout_s
            response = client.simulate(**fields)
    except ServeClientError as exc:
        raise CLIError(str(exc)) from exc
    if response.status == 400:
        raise CLIError(response.payload.get("error", "bad request"))
    if args.json or args.what in ("metrics", "trace", "health", "cluster"):
        _print_json(response.payload)
    elif response.ok:
        payload = response.payload
        if "result" in payload:
            result = payload["result"]
            print(f"source    : {payload['source']}")
            if "shard" in payload:
                print(f"shard     : {payload['shard']}")
            print(f"design    : {result['design']}")
            print(f"workload  : {result['workload']}")
            print(f"latency   : {result['avg_latency']:.2f} cycles/packet")
            print(f"power     : {result['power_w']:.2f} W")
            print(f"digest    : {payload['digest']}")
        else:
            _print_json(payload)
    else:
        print(f"error ({response.status}): "
              f"{response.payload.get('error', 'request failed')}",
              file=sys.stderr)
    return 0 if response.ok else 1


def _resolve_campaign_spec(args):
    """The CampaignSpec named by ``--spec`` (file path or named campaign)."""
    from repro.campaign import CampaignError
    from repro.experiments.campaigns import NAMED_CAMPAIGNS, resolve_campaign

    if not args.spec:
        raise CLIError(
            "campaign run needs --spec FILE|NAME "
            f"(named campaigns: {', '.join(sorted(NAMED_CAMPAIGNS))})")
    try:
        return resolve_campaign(args.spec)
    except CampaignError as exc:
        raise CLIError(str(exc)) from exc


def _campaign_dir(args, spec=None) -> Path:
    from repro.campaign import DEFAULT_CAMPAIGN_ROOT

    if args.dir:
        return Path(args.dir)
    name = spec.name if spec is not None else args.spec
    if not name:
        raise CLIError("campaign status/report needs --dir DIR or "
                       "--spec FILE|NAME to locate the manifest")
    if name.endswith((".toml", ".json")):
        name = _resolve_campaign_spec(args).name
    return DEFAULT_CAMPAIGN_ROOT / name


def _load_campaign_manifest(directory: Path) -> dict:
    from repro.campaign import CampaignError, load_manifest

    try:
        manifest = load_manifest(directory)
    except CampaignError as exc:
        raise CLIError(str(exc)) from exc
    if manifest is None:
        raise CLIError(f"no campaign manifest under {directory}; "
                       "run the campaign first")
    return manifest


def _campaign_objectives(args):
    if not getattr(args, "objectives", None):
        return None
    return tuple(_split_list(args.objectives, "objectives"))


def cmd_campaign(args) -> int:
    """Run/inspect/reduce a scenario campaign (see docs/campaigns.md)."""
    from repro.campaign import (
        CampaignError, manifest_report, manifest_status, run_campaign,
    )

    if args.action == "status":
        payload = manifest_status(_load_campaign_manifest(_campaign_dir(args)))
        if args.json:
            _print_json(payload)
        else:
            print(f"campaign  : {payload['name']} [{payload['status']}]")
            print(f"cells     : {payload['done']}/{payload['cells']} done "
                  f"({payload['pending']} pending, "
                  f"{payload['chunks_done']} chunks)")
            for source, count in payload["sources"].items():
                print(f"  {source:<9}: {count}")
        return 0

    if args.action == "report":
        manifest = _load_campaign_manifest(_campaign_dir(args))
        try:
            payload = manifest_report(manifest, _campaign_objectives(args))
        except CampaignError as exc:
            raise CLIError(str(exc)) from exc
        if not payload["frontier"]:
            raise CLIError("campaign has no completed, fully-measured "
                           "cells to reduce; run it first")
        if args.json:
            _print_json(payload)
            return 0
        status = payload["status"]
        objectives = payload["objectives"]
        print(f"campaign  : {status['name']} [{status['status']}] "
              f"{status['done']}/{status['cells']} cells")
        print(f"objectives: {', '.join(objectives)} (minimized)")
        print(f"frontier  : {payload['pareto']['size']} non-dominated cells")
        width = max(len(c["label"]) for c in payload["frontier"])
        for cell in payload["frontier"]:
            values = "  ".join(f"{name}={cell['objectives'][name]:.3f}"
                               for name in objectives)
            print(f"  {cell['label']:<{width}}  {values}")
        return 0

    # -- run ----------------------------------------------------------------
    from repro.exec import ResultStore

    spec = _resolve_campaign_spec(args)
    kernel = getattr(args, "kernel", None)
    if kernel:
        from repro.campaign.spec import with_kernel

        spec = with_kernel(spec, kernel)
    topology = getattr(args, "topology", None)
    if topology:
        from repro.campaign.spec import with_topologies

        spec = with_topologies(spec, (topology,))
    directory = _campaign_dir(args, spec)
    client = None
    store = None
    if args.via_serve:
        from repro.serve.client import ServeClient

        client = ServeClient(args.host, args.port, timeout=args.timeout)
    else:
        store = ResultStore(args.cache)

    def progress(event: dict) -> None:
        if event["event"] == "chunk":
            print(f"chunk {event['chunk']}/{event['of']} "
                  f"({event['cells']} cells)", file=sys.stderr)
        else:
            label = {"hit": "warm", "done": "ran", "retry": "retry"}.get(
                event["event"], event["event"])
            wall = f" ({event['wall_s']:.1f}s)" if event.get("wall_s") else ""
            print(f"  {label:<5} {event['job']}{wall}", file=sys.stderr)

    try:
        result = run_campaign(
            spec, store=store, directory=directory, jobs=args.jobs,
            client=client, fresh=args.fresh, max_chunks=args.max_chunks,
            progress=progress,
        )
    except CampaignError as exc:
        raise CLIError(str(exc)) from exc
    summary = result.summary()
    if args.json:
        _print_json({"summary": summary,
                     "manifest": str(result.directory / "campaign.json")})
        return 0
    print(f"campaign  : {summary['name']} [{summary['status']}] "
          f"{summary['done']}/{summary['cells']} cells")
    print(f"this run  : {summary['cold']} simulated, {summary['warm']} warm, "
          f"{summary['carried']} carried over "
          f"({summary['chunks_run']} chunks, {summary['wall_s']:.1f}s)")
    if summary["cycles_per_sec"]:
        print(f"throughput: {summary['cycles_per_sec']:.0f} sim cycles/s")
    pareto = summary["pareto"]
    print(f"frontier  : {pareto['size']} non-dominated cells over "
          f"({', '.join(pareto['objectives'])})")
    print(f"manifest  : {result.directory / 'campaign.json'}")
    return 0


def _add_cell_flags(parser, *, design: str = "baseline",
                    styles=DESIGN_STYLES, design_help: str | None = None,
                    workload_help: str | None = None) -> None:
    """The one-cell flags shared by ``simulate``/``control``/``request``."""
    parser.add_argument("--design", default=design, choices=styles,
                        help=design_help)
    parser.add_argument("--width", type=int, default=16, choices=LINK_WIDTHS)
    parser.add_argument("--workload", default="uniform", help=workload_help)


def _add_common(parser, *, jobs: bool = False, trace: bool = False,
                trace_help: str = "", faults: bool = False,
                kernel: bool = False, topology: bool = False) -> None:
    """The shared flag vocabulary of the executing verbs."""
    parser.add_argument("--seed", type=int, default=None,
                        help="override the traffic seed")
    parser.add_argument("--fast", action="store_true",
                        help="short simulation windows")
    if kernel:
        parser.add_argument(
            "--kernel", choices=_names(list_kernels()), default=None,
            help="cycle-execution kernel (bit-identical results; see "
                 "'repro kernels list' for the registry and capability "
                 "flags)")
    if topology:
        parser.add_argument(
            "--topology", choices=_names(list_topologies()), default=None,
            help="substrate topology provider (see 'repro topologies "
                 "list'; non-mesh providers simulate a different network "
                 "and fork the result cache)")
    if jobs:
        parser.add_argument("--jobs", type=int, default=1,
                            help="worker processes (1 = in-process serial)")
    if trace:
        parser.add_argument("--trace-events", metavar="PATH", default=None,
                            help=trace_help or "write cycle-level event "
                            "trace(s) as JSONL to PATH")
    if faults:
        parser.add_argument(
            "--faults", metavar="SPEC", default=None,
            help="fault schedule, e.g. 'band:3;link:12-13@100-500' or "
                 "'mtbf:bands=16,mtbf=50000,horizon=12000,seed=1' "
                 "(see docs/faults.md)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RF-I overlaid CMP NoC reproduction (HPCA 2008)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {package_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help: str) -> argparse.ArgumentParser:
        # No prefix matching: ``--trace x`` must be an error, not a
        # silent abbreviation of ``--trace-events x``.
        cmd = sub.add_parser(name, help=help, allow_abbrev=False)
        cmd.add_argument("--json", action="store_true",
                         help="machine-readable output on stdout")
        return cmd

    add("params", "print Fig 5a parameters").set_defaults(fn=cmd_params)

    floorplan = add("floorplan", "render the CMP floorplan")
    floorplan.add_argument("--access-points", type=int, default=50)
    floorplan.set_defaults(fn=cmd_floorplan)

    add("list", "list experiments").set_defaults(fn=cmd_list)

    workloads = add(
        "workloads", "characterize every workload (locality, hotspots)"
    )
    workloads.add_argument("--cycles", type=int, default=8_000)
    workloads.add_argument("--seed", type=int, default=None)
    workloads.set_defaults(fn=cmd_workloads)

    run = add("run", "run an experiment (or 'all')")
    run.add_argument("experiment")
    _add_common(run, jobs=True, trace=True)
    run.add_argument("--out", help="also write tables to this directory")
    run.set_defaults(fn=cmd_run)

    simulate = add("simulate", "one (design, workload) cell")
    _add_cell_flags(simulate)
    _add_common(simulate, jobs=True, trace=True, faults=True, kernel=True,
                topology=True,
                trace_help="write this run's cycle-level events as JSONL "
                           "to PATH")
    simulate.add_argument("--out", help="also write the full result as JSON")
    simulate.add_argument("--heatmap", action="store_true",
                          help="print the traffic heatmap afterwards")
    simulate.add_argument(
        "--online", nargs="?", const="", default=None, metavar="SPEC",
        help="closed-loop run: adapt the overlay online (optional "
             "control spec, e.g. 'epoch=600,hysteresis=0.03'; phased "
             "workloads like 'phased:hotBiDF+uniDF@4000' need this)")
    simulate.set_defaults(fn=cmd_simulate)

    sweep = add("sweep", "parallel design-grid sweep with the result cache")
    sweep.add_argument("--styles", default="baseline,static,adaptive",
                       help="comma-separated design styles")
    sweep.add_argument("--widths", default="16,8,4",
                       help="comma-separated mesh link widths (bytes)")
    sweep.add_argument("--workloads", default="uniform",
                       help="comma-separated workload names")
    sweep.add_argument("--adaptive-routing", action="store_true")
    sweep.add_argument("--cache", default=DEFAULT_CACHE,
                       help="persistent result-store directory")
    sweep.add_argument("--no-cache", action="store_true",
                       help="skip the persistent store entirely")
    _add_common(sweep, jobs=True, trace=True, faults=True, kernel=True,
                topology=True,
                trace_help="directory: write one JSONL event trace per "
                           "simulated cell (bypasses the cache)")
    sweep.add_argument("--out", help="also write results + telemetry JSON")
    sweep.add_argument(
        "--online", nargs="?", const="", default=None, metavar="SPEC",
        help="make every cell a closed-loop run (optional control spec; "
             "styles are then restricted to baseline/adaptive)")
    sweep.set_defaults(fn=cmd_sweep)

    control = add("control", "closed-loop online reconfiguration run")
    _add_cell_flags(
        control, design="adaptive", styles=CONTROL_STYLES,
        design_help="'adaptive' warm-starts from the first phase's offline "
                    "profile; 'baseline' cold-starts with no shortcuts",
        workload_help="a workload name or a phased composite, e.g. "
                      "'phased:hotBiDF+2Hotspot+uniDF@4000'")
    control.add_argument("--control", metavar="SPEC", default=None,
                         help="control-loop knobs, e.g. 'epoch=600,"
                              "hysteresis=0.03,decay=0.25,min=50'")
    control.add_argument("--access-points", type=int, default=None)
    control.add_argument("--journal", metavar="PATH", default=None,
                         help="write the decision journal as JSONL")
    control.add_argument("--compare-static", action="store_true",
                         help="also run every phase's static placement on "
                              "the full workload and report the best")
    control.add_argument("--cache", default=DEFAULT_CACHE,
                         help="persistent result-store directory")
    control.add_argument("--no-cache", action="store_true",
                         help="skip the persistent store entirely")
    _add_common(control, faults=True, kernel=True, topology=True)
    control.set_defaults(fn=cmd_control)

    kernels = add("kernels", "list the registered cycle-execution kernels")
    kernels.add_argument(
        "action", nargs="?", default="list", choices=["list"],
        help="list the registry rows (name, capabilities, default)")
    kernels.set_defaults(fn=cmd_kernels)

    topologies = add("topologies",
                     "list the registered substrate topology providers")
    topologies.add_argument(
        "action", nargs="?", default="list", choices=["list"],
        help="list the registry rows (name, capabilities, default)")
    topologies.set_defaults(fn=cmd_topologies)

    serve = add("serve", "host the asyncio simulation service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8032)
    serve.add_argument("--queue-limit", type=int, default=16,
                       help="admission queue bound (full -> 429)")
    serve.add_argument("--timeout", type=float, default=600.0,
                       help="per-request wait ceiling, seconds")
    serve.add_argument("--cache", default=DEFAULT_CACHE,
                       help="persistent result-store directory")
    serve.add_argument("--no-cache", action="store_true",
                       help="serve without the persistent store")
    serve.add_argument("--workers", type=int, default=1,
                       help="N>1: spawn N sharded workers behind a "
                            "consistent-hash router on --port")
    serve.add_argument("--shard-id", default=None,
                       help="stable worker identity in /healthz "
                            "(the cluster supervisor sets this)")
    serve.add_argument("--shared-cache", default=None, metavar="DIR",
                       help="read-through store tier shared across "
                            "shards (miss here falls back before "
                            "computing; writes are mirrored)")
    _add_common(serve, jobs=True, kernel=True, topology=True)
    serve.set_defaults(fn=cmd_serve)

    campaign = add("campaign", "declarative, resumable scenario campaigns")
    campaign.add_argument(
        "action", nargs="?", default="run",
        choices=["run", "status", "report"],
        help="run a campaign, print a manifest's progress, or reduce "
             "it to its Pareto frontier")
    campaign.add_argument(
        "--spec", default=None,
        help="campaign spec file (.toml/.json) or a named campaign "
             "(e-series, r-series, e-topology, smoke)")
    campaign.add_argument(
        "--dir", default=None,
        help="campaign directory holding the checkpoint manifest "
             "(default benchmarks/results/campaigns/<name>)")
    campaign.add_argument("--cache", default=DEFAULT_CACHE,
                          help="persistent result-store directory")
    campaign.add_argument("--fresh", action="store_true",
                          help="ignore any existing manifest and restart")
    campaign.add_argument(
        "--max-chunks", type=int, default=None,
        help="execute at most N chunks this invocation, then checkpoint "
             "and stop (the campaign resumes on the next run)")
    campaign.add_argument("--via-serve", action="store_true",
                          help="drive cold cells through a running "
                               "'repro serve' instead of a local pool")
    campaign.add_argument("--host", default="127.0.0.1")
    campaign.add_argument("--port", type=int, default=8032)
    campaign.add_argument("--timeout", type=float, default=600.0,
                          help="serve-client socket timeout, seconds")
    campaign.add_argument(
        "--objectives", default=None,
        help="comma-separated reduction objectives for 'report' "
             "(latency, flit_latency, power, area, fault_drops)")
    campaign.add_argument("--jobs", type=int, default=1,
                          help="worker processes (1 = in-process serial)")
    campaign.add_argument(
        "--kernel", choices=_names(list_kernels()), default=None,
        help="cycle-execution kernel for fresh cells (bit-identical "
             "results; never changes cell or campaign digests)")
    campaign.add_argument(
        "--topology", choices=_names(list_topologies()), default=None,
        help="restrict the spec's topology axis to one provider "
             "(non-mesh choices fork the campaign digest and manifest)")
    campaign.set_defaults(fn=cmd_campaign)

    request = add("request", "query a running simulation service")
    request.add_argument(
        "what", nargs="?", default="simulate",
        choices=["simulate", "sweep", "health", "metrics", "trace", "job",
                 "cluster"],
    )
    request.add_argument("--host", default="127.0.0.1")
    request.add_argument("--port", type=int, default=8032)
    request.add_argument("--timeout", type=float, default=600.0,
                        help="client socket timeout, seconds")
    request.add_argument("--timeout-s", type=float, default=None,
                        help="server-side per-request deadline, seconds")
    _add_cell_flags(request)
    request.add_argument("--seed", type=int, default=None)
    request.add_argument("--faults", metavar="SPEC", default=None)
    request.add_argument("--topology", choices=_names(list_topologies()),
                         default=None,
                         help="substrate topology provider for the "
                              "requested cell(s)")
    request.add_argument("--styles", default="baseline")
    request.add_argument("--widths", default="16")
    request.add_argument("--workloads", default="uniform")
    request.add_argument("--follow", action="store_true",
                        help="after 'sweep', stream the job's NDJSON events")
    request.add_argument("--id", default=None, help="job id for 'job'")
    request.set_defaults(fn=cmd_request)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes are normalized: 0 success, 2 bad input.  Bad input under
    ``--json`` emits one single-line JSON error object on stderr (with
    the package version), so scripted callers never have to scrape prose.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CLIError, SpecError) as exc:
        if getattr(args, "json", False):
            print(json.dumps({"error": str(exc),
                              "version": package_version()}),
                  file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
