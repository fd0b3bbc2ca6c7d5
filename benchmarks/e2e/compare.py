"""Compare two benchmark records: ``compare.py A.json B.json``.

``A`` is the base (the parent commit, or the first of two sets of runs of
one commit), ``B`` the candidate.  For every (workload, end-to-end metric)
it prints both medians, their relative difference with ``A`` as the base,
the metric's bound from ``BENCHMARK.json`` and a verdict:

* ``ok``         — B's median is not worse than A's by more than the bound;
* ``worse``      — it is;
* ``unresolved`` — the run-to-run spread (inter-quartile range over the
  median, on either side) is wider than the bound, so the medians cannot
  settle it — unless every B run is better than every A run (``ok``).

Simulated metrics are deterministic: when both records ran the same
seeds, *any* change in them, in a failure or mismatch count, or in a
per-layer count is ``worse`` (``exact``) — a modelling change needs its
own re-pin.  Exit status 1 when anything is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from harness import catalogue

#: End-to-end metrics that are functions of the seed alone.
EXACT = ("sim_avg_latency_cycles", "sim_power_w")


def load(path: str) -> dict:
    """``(workload, mode) -> [run, ...]`` in seed order."""
    groups: dict = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        groups.setdefault((run["workload"], run["mode"]), []).append(run)
    for runs in groups.values():
        runs.sort(key=lambda run: run["seed"])
    return groups


def spread(values: list) -> float:
    """Inter-quartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def judge(a: list, b: list, better: str, bound: float) -> tuple:
    """(relative worsening of the median, spread, verdict)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (med_b - med_a) / abs(med_a)
    wide = max(spread(a), spread(b))
    if wide > bound:
        all_better = (max(b) < min(a) if better == "lower"
                      else min(b) > max(a))
        return worsening, wide, "ok" if all_better else "unresolved"
    return worsening, wide, "worse" if worsening > bound else "ok"


def compare(a: dict, b: dict) -> int:
    cat = catalogue()
    worse = 0
    print(f"{'workload':<14} {'metric':<24} {'A':>12} {'B':>12} "
          f"{'B vs A':>8} {'bound':>6} {'spread':>7}  verdict")
    for workload in (w["name"] for w in cat["workloads"]):
        runs_a = a.get((workload, "untraced"), [])
        runs_b = b.get((workload, "untraced"), [])
        if not runs_a or not runs_b:
            continue
        same_seeds = ([r["seed"] for r in runs_a]
                      == [r["seed"] for r in runs_b])
        for metric in cat["end_to_end"]:
            name = metric["name"]
            va = [r["end_to_end"][name]["value"] for r in runs_a]
            vb = [r["end_to_end"][name]["value"] for r in runs_b]
            worsening, wide, verdict = judge(
                va, vb, metric["better"], metric["bound"])
            note = ""
            if name in EXACT and same_seeds:
                verdict, note = ("ok" if va == vb else "worse"), " (exact)"
            worse += verdict == "worse"
            print(f"{workload:<14} {name:<24} "
                  f"{statistics.median(va):>12.5g} "
                  f"{statistics.median(vb):>12.5g} {worsening:>+8.1%} "
                  f"{metric['bound']:>6.2f} {wide:>7.1%}  {verdict}{note}")
        for field in ("failed", "digest_mismatches"):
            count_a = sum(r[field] for r in runs_a)
            count_b = sum(r[field] for r in runs_b)
            if count_b > count_a:
                worse += 1
                print(f"{workload:<14} {field:<24} {count_a:>12} "
                      f"{count_b:>12} {'':>8} {'exact':>6} {'':>7}  worse")
        worse += compare_counts(workload, cat, a, b)
    return worse


def compare_counts(workload: str, cat: dict, a: dict, b: dict) -> int:
    """Per-layer counts of traced runs on equal seeds must be identical."""
    counts = [m["name"] for m in cat["per_layer"] if m["unit"] == "count"]
    by_seed_b = {r["seed"]: r for r in b.get((workload, "traced"), [])}
    differing = 0
    for run_a in a.get((workload, "traced"), []):
        run_b = by_seed_b.get(run_a["seed"])
        if run_b is None:
            continue
        for name in counts:
            va = run_a["per_layer"].get(name, 0)
            vb = run_b["per_layer"].get(name, 0)
            if va != vb:
                differing += 1
                print(f"{workload:<14} {name:<24} {va:>12} {vb:>12} "
                      f"{'':>8} {'exact':>6} {'':>7}  worse "
                      f"(seed {run_a['seed']})")
    return differing


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    worse = compare(load(argv[0]), load(argv[1]))
    print(f"{worse} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
