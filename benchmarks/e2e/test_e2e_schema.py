"""Schema test of the end-to-end benchmark (not a tier-1 test).

Run explicitly — it executes all seven workloads at 1/20 size, untraced
and traced, then the traced runs a second time (about four minutes)::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import Timed, catalogue, demoted  # noqa: E402
from spans import read_jsonl            # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SCALE = "0.05"


def run(tmp: Path, out: str, *flags: str) -> dict:
    """One ``run.py`` invocation; returns its ``--out`` record."""
    path = tmp / out
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", SCALE,
         "--out", str(path), "--out-dir", str(tmp / "out"), *flags],
        check=True, timeout=1200)
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    first = run(tmp, "first.json", "--traced")
    again = run(tmp, "again.json", "--trace", "1")
    return tmp, first["runs"], again["runs"]


def test_catalogue_limits():
    cat = catalogue()
    assert 2 <= len(cat["workloads"]) <= 8
    assert 1 <= len(cat["end_to_end"]) <= 16
    assert 1 <= len(cat["per_layer"]) <= 128
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for m in cat[kind]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in cat["end_to_end"]:
        assert 0 < metric["bound"] <= 0.15
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in cat["end_to_end"])
    assert set(demoted(Timed(wall_s=1.0, ops=1), 0)) <= {
        m["name"] for m in cat["per_layer"]}


def test_every_workload_ran_correct(records):
    _, first, _ = records
    cat = catalogue()
    seen = {(r["workload"], r["mode"]) for r in first}
    for workload in cat["workloads"]:
        assert (workload["name"], "untraced") in seen
        assert (workload["name"], "traced") in seen
    for record in first:
        assert record["correct"], record["workload"]
        assert record["failed"] == 0
        assert record["attempted"] >= 1


def test_end_to_end_names(records):
    _, first, _ = records
    wanted = {m["name"] for m in catalogue()["end_to_end"]}
    for record in first:
        if record["mode"] != "untraced":
            continue
        assert set(record["end_to_end"]) == wanted
        for name, entry in record["end_to_end"].items():
            assert entry["value"] > 0, (record["workload"], name)


def test_per_layer_names(records):
    _, first, _ = records
    wanted = {m["name"] for m in catalogue()["per_layer"]}
    emitted = set()
    for record in first:
        if record["mode"] == "traced":
            assert set(record["per_layer"]) <= wanted
            emitted |= set(record["per_layer"])
    assert emitted == wanted


def test_contract_line(tmp_path):
    cat = catalogue()
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             "kernel_sparse", "--seed", "3", "--seconds", "8", "--trace",
             trace, "--scale", SCALE, "--out-dir", str(tmp_path / "out")],
            check=True, capture_output=True, text=True, timeout=600)
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert {name: m["unit"] for name, m in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in cat[kind]}


#: Runs its arguments as a child subreaper, so a process the command
#: orphans lands here instead of at init; exits 1 if one did.
ORPHAN_CHECK = """
import ctypes, os, subprocess, sys
assert ctypes.CDLL(None).prctl(36, 1, 0, 0, 0) == 0  # PR_SET_CHILD_SUBREAPER
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
try:
    pid, _ = os.waitpid(-1, os.WNOHANG)   # 0: still running; else a zombie
except ChildProcessError:
    sys.exit(0)                           # no child at all
sys.exit("a process outlived the run"
         + (f" (pid {pid}, ended unreaped)" if pid else " and still runs"))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs prctl(PR_SET_CHILD_SUBREAPER)")
@pytest.mark.parametrize("workload", ["serve_warm", "serve_routed"])
def test_no_process_outlives_a_run(tmp_path, workload):
    subprocess.run(
        [sys.executable, "-c", ORPHAN_CHECK, sys.executable,
         str(HERE / "run.py"), "--workload", workload, "--trace", "0",
         "--scale", SCALE, "--out-dir", str(tmp_path / "out")],
        check=True, timeout=600)


def test_counts_repeat(records):
    _, first, again = records
    counts = [m["name"] for m in catalogue()["per_layer"]
              if m["unit"] == "count"]
    second = {r["workload"]: r for r in again}
    for record in first:
        if record["mode"] != "traced":
            continue
        other = second[record["workload"]]
        assert record["pin"] == other["pin"], record["workload"]
        for name in counts:
            assert (record["per_layer"].get(name, 0)
                    == other["per_layer"].get(name, 0)), (
                        record["workload"], name)


def test_span_children_sum_to_parent(records):
    tmp, _, _ = records
    for workload in catalogue()["workloads"]:
        recorder = read_jsonl(tmp / "out" / f"spans-{workload['name']}.jsonl")
        assert recorder.spans, workload["name"]
        selfs = recorder.self_times()
        children: dict = {}
        for span in recorder.spans:
            assert set(span) == {"trace_id", "span_id", "parent_id", "name",
                                 "layer", "start", "end"}
            if span["parent_id"] is not None:
                children.setdefault(span["parent_id"], []).append(span)
        for span in recorder.spans:
            kids = children.get(span["span_id"])
            if not kids:
                continue
            duration = span["end"] - span["start"]
            covered = sum(k["end"] - k["start"] for k in kids)
            assert covered + selfs[span["span_id"]] == pytest.approx(
                duration, rel=0.01), (workload["name"], span["name"])


def test_kernel_remainder_is_reported(records):
    tmp, _, again = records        # the span files are the last run's
    for record in again:
        if record["mode"] != "traced" or not record["workload"].startswith(
                "kernel_"):
            continue
        layers = record["per_layer"]
        recorder = read_jsonl(tmp / "out" / f"spans-{record['workload']}.jsonl")
        windows = sum(s["end"] - s["start"] for s in recorder.spans
                      if s["parent_id"] is None)
        stages = sum(layers[f"noc.kernel.stage_{s}_s"]
                     for s in ("arrivals", "ni", "rc_va", "sa_st"))
        assert stages + layers["noc.kernel.stage_unattributed_s"] == (
            pytest.approx(windows, rel=0.01))
