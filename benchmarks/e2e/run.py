"""End-to-end + per-layer benchmark of the repro stack — one command.

    python benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1 | --traced] [--repeat N]
        [--out FILE] [--out-dir DIR] [--list] [--repin]

With exactly one ``--workload`` and ``--trace 0|1`` the workload runs in
this process and the last line of standard output is one JSON object
``{correct, attempted, failed, metrics}`` (the driver's contract).  Any
other selection runs each workload in a fresh Python process, one after
another, and gathers their records into ``--out``.  ``--traced`` runs
every selected workload twice: untraced for the end-to-end numbers, then
traced for the per-layer numbers and the span files.

See README.md in this directory for what is measured and why.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse      # noqa: E402
import atexit        # noqa: E402
import json          # noqa: E402
import os            # noqa: E402
import platform      # noqa: E402
import signal        # noqa: E402
import subprocess    # noqa: E402
import sys           # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness       # noqa: E402

# No run may leave a process behind, whichever way it ends.  Exit handlers
# run last-registered-first and multiprocessing registers its own on
# import (the program imports it, not this file), so this one runs after
# them: nothing can restart a helper once it has stopped them all.
atexit.register(harness.stop_children)

WORKLOAD_MODULES = ("wl_kernel", "wl_sweep", "wl_serve", "wl_control")


def load_workloads() -> dict:
    """Import the program and every workload; name -> workload object."""
    if not (harness.SRC / "repro" / "__init__.py").exists():
        sys.exit(f"run.py: no program to measure: {harness.SRC}/repro "
                 "is missing")
    sys.path.insert(0, str(harness.SRC))
    import importlib

    import repro  # noqa: F401  (timed as part of set-up)

    workloads = {}
    for module in WORKLOAD_MODULES:
        for workload in importlib.import_module(module).WORKLOADS:
            workloads[workload.name] = workload
    return workloads


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=harness.REFERENCE_SECONDS,
                        help="target length of a timed section on the "
                             "reference machine; fixes the work sizes")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every work size (tests use 0.05)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="run each workload untraced, then traced")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, on seeds seed..seed+N-1")
    parser.add_argument("--out", type=Path, help="write the JSON record")
    parser.add_argument("--out-dir", type=Path, default=HERE / "out",
                        help="span files and scratch space")
    parser.add_argument("--list", action="store_true",
                        help="list workloads and metrics, then exit")
    parser.add_argument("--repin", action="store_true",
                        help="rewrite expected.json from the pinned seed")
    return parser.parse_args(argv)


# -- one workload, in this process ---------------------------------------------

def run_one(workload, args: argparse.Namespace) -> dict:
    ctx = harness.Context(
        workload=workload.name, seed=args.seed, seconds=args.seconds,
        scale=args.scale, traced=bool(args.trace),
        out_dir=args.out_dir.resolve())
    try:
        if ctx.traced:
            return harness.run_traced(workload, ctx)
        return harness.run_untraced(
            workload, ctx, time.perf_counter() - PROCESS_START)
    finally:
        ctx.cleanup()


def units() -> dict:
    cat = harness.catalogue()
    return {m["name"]: m["unit"]
            for m in cat["end_to_end"] + cat["per_layer"]}


def contract_line(record: dict) -> str:
    """The driver's result object for one record."""
    cat = harness.catalogue()
    if record["mode"] == "untraced":
        values = {name: entry["value"]
                  for name, entry in record["end_to_end"].items()}
        names = cat["end_to_end"]
    else:
        values = record["per_layer"]
        names = cat["per_layer"]
        unknown = set(values) - {m["name"] for m in names}
        if unknown:
            raise SystemExit(f"run.py: metrics missing from BENCHMARK.json: "
                             f"{sorted(unknown)}")
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        # A layer the workload never executes did no work: it reads 0.
        "metrics": {m["name"]: {"value": values.get(m["name"], 0),
                                "unit": m["unit"]} for m in names},
    })


def print_record(record: dict) -> None:
    unit = units()
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"{record['mode']}, timed section {record['timed_s']:.2f} s) ==")
    rows = []
    for name, entry in record.get("end_to_end", {}).items():
        rows.append((name, entry["value"], entry["samples"]))
    for name, value in record.get("also", {}).items():
        rows.append((name, value, None))
    for name, value in sorted(record.get("per_layer", {}).items()):
        rows.append((name, value, None))
    for name, value, samples in rows:
        count = f"  (n={samples})" if samples else ""
        print(f"  {name:<40} {value:>16.6g} {unit.get(name, ''):<8}{count}")
    print(f"  correct={record['correct']}  attempted={record['attempted']}  "
          f"failed={record['failed']}  "
          f"digest_mismatches={record['digest_mismatches']}")


# -- several workloads, one fresh process each ---------------------------------

def machine() -> dict:
    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count()}


def run_children(names: list, args: argparse.Namespace) -> list:
    """Run each (workload, seed, mode) in its own interpreter."""
    records = []
    modes = (0, 1) if (args.traced or args.repin) else (args.trace,)
    scratch = args.out_dir.resolve() / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    for name in names:
        for seed in range(args.seed, args.seed + args.repeat):
            for mode in modes:
                part = scratch / f"record-{os.getpid()}.json"
                argv = [sys.executable, str(HERE / "run.py"),
                        "--workload", name, "--seed", str(seed),
                        "--seconds", str(args.seconds),
                        "--scale", str(args.scale), "--trace", str(mode),
                        "--out-dir", str(args.out_dir), "--out", str(part)]
                done = subprocess.run(argv)
                if done.returncode != 0:
                    raise SystemExit(f"run.py: {name} exited "
                                     f"{done.returncode}")
                records += json.loads(part.read_text())["runs"]
                part.unlink()
    return records


def repin(records: list) -> None:
    expected = {"pinned": harness.PINNED, "workloads": {}}
    for record in records:
        expected["workloads"].setdefault(
            record["workload"], {})[record["mode"]] = record["pin"]
    harness.EXPECTED.write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"re-pinned {harness.EXPECTED}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run unwinds like any other: servers stop, scratch goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.list:
        cat = harness.catalogue()
        for workload in cat["workloads"]:
            print(f"{workload['name']:<16} {workload['why']}")
        for kind in ("end_to_end", "per_layer"):
            for metric in cat[kind]:
                print(f"{kind:<11} {metric['name']:<40} {metric['unit']:<8} "
                      f"{metric['better']}"
                      + (f"  bound {metric['bound']}"
                         if "bound" in metric else ""))
        return 0
    if args.repin:
        args.seed, args.seconds, args.scale = (
            harness.PINNED["seed"], harness.PINNED["seconds"],
            harness.PINNED["scale"])
        args.repeat = 1
    workloads = load_workloads()
    names = args.workload or list(workloads)
    for name in names:
        if name not in workloads:
            raise SystemExit(f"run.py: unknown workload {name!r}; "
                             f"one of {list(workloads)}")
    single = (len(names) == 1 and args.repeat == 1
              and not (args.traced or args.repin))
    if single:
        record = run_one(workloads[names[0]], args)
        records = [record]
        print_record(record)
    else:
        records = run_children(names, args)
    if args.repin:
        repin(records)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "schema": 1,
            "machine": machine(),
            "seconds": args.seconds,
            "scale": args.scale,
            "runs": records,
        }, indent=1) + "\n")
    if single:
        print(contract_line(records[0]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
