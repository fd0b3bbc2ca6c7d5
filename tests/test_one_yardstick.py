"""One yardstick: ``src/`` reads no benchmark record, CI gates on one run.

The repo's timing record is ``benchmarks/e2e`` alone.  Library code may
name only the two roots it *writes* under ``benchmarks/results`` (the
result cache and the campaign manifests), and the CI ``bench-smoke`` gate
compares two kernels timed by one process, never a rate from another box.
"""

import ast
import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))

#: The only places under ``benchmarks/results`` that ``src/`` may name.
WRITTEN_ROOTS = ("benchmarks/results/cache", "benchmarks/results/campaigns")


def test_src_names_no_benchmark_record():
    assert len(SOURCES) > 100     # the walk itself must not go blind
    for path in SOURCES:
        text = path.read_text()
        assert "BENCH_" not in text, f"{path} names a BENCH_ record"
        for named in re.findall(r"benchmarks/results[\w/.<>-]*", text):
            assert named.startswith(WRITTEN_ROOTS), f"{path} names {named}"


def test_cache_root_is_spelled_once():
    spelled = [
        path for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Constant) and node.value == WRITTEN_ROOTS[0]
    ]
    assert [p.name for p in spelled] == ["store.py"]


# -- the bench-smoke gate ------------------------------------------------------

def _gate():
    spec = importlib.util.spec_from_file_location(
        "kernel_gate", ROOT / "benchmarks" / "kernel_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _contract(**changes) -> dict:
    contract = {
        "correct": True, "attempted": 17, "failed": 0,
        "metrics": {
            "noc.kernel.reference_step_us": {"value": 1060.0, "unit": "us"},
            "noc.kernel.batch_step_us": {"value": 550.0, "unit": "us"},
        },
    }
    for name, value in changes.items():
        if name in contract:
            contract[name] = value
        else:
            contract["metrics"][name]["value"] = value
    return contract


@pytest.mark.parametrize("changes,passes", [
    ({}, True),
    ({"correct": False}, False),
    ({"failed": 1}, False),
    ({"noc.kernel.batch_step_us": 800.0}, False),     # 1.33x < 1.5x
    ({"noc.kernel.batch_step_us": 0.0}, False),       # probe never ran
])
def test_kernel_gate(tmp_path, capsys, changes, passes):
    out = tmp_path / "kernel_dense.out"
    out.write_text("== kernel_dense ==\n" + json.dumps(_contract(**changes))
                   + "\n")
    assert _gate().main([str(out)]) == (0 if passes else 1)
    assert ("FAIL" in capsys.readouterr().err) is (not passes)
