"""The frozen benchmark's import and call surface, checked in the unit run.

``benchmarks/e2e`` may not change (see ``BENCHMARK.json``), so every
``from repro... import name`` it spells must keep resolving from the same
module, and every method it drives must keep accepting the call shape it
uses.  A refactor that breaks one fails here, in under a second, instead
of at benchmark time.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from repro.exec import run_sweep
from repro.experiments import FAST_CONFIG, ExperimentRunner
from repro.experiments.runner import PreparedRun
from repro.noc.simulator import Simulator, SimulatorDrive

E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


def _repro_imports():
    for path in sorted(E2E.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                    node.module == "repro"
                    or (node.module or "").startswith("repro.")):
                for alias in node.names:
                    yield pytest.param(
                        node.module, alias.name,
                        id=f"{path.name}:{node.module}.{alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        yield pytest.param(alias.name, None,
                                           id=f"{path.name}:{alias.name}")


IMPORTS = list(_repro_imports())


def test_benchmark_imports_found():
    assert len(IMPORTS) > 30    # the walk itself must not silently go blind


@pytest.mark.parametrize("module,name", IMPORTS)
def test_benchmark_import_resolves(module, name):
    imported = importlib.import_module(module)
    if name is not None:
        assert hasattr(imported, name), f"{module} lost {name!r}"


# The call shapes benchmarks/e2e/wl_*.py spell, one row per distinct shape
# (``None`` stands in for ``self`` and for argument values).
CALLS = [
    (ExperimentRunner.design, (None, "static", 16), {"topology": None}),
    (ExperimentRunner.design, (None, "adaptive+mc", 16),
     {"workload": "uniform"}),
    (ExperimentRunner.design, (None, "static", 16),
     {"workload": None, "num_access_points": 50,
      "adaptive_routing": False}),
    (ExperimentRunner.pattern, (None, "uniform"), {}),
    (ExperimentRunner.rate, (None, "uniform"), {}),
    (ExperimentRunner.profile, (None, "uniform"), {}),
    (ExperimentRunner.prepare_unicast, (None, None, "uniform"),
     {"stage_profile": None, "faults": "band:3"}),
    (ExperimentRunner.prepare_unicast, (None, None, "uniform"), {"seed": 1}),
    (ExperimentRunner.prepare_multicast, (None, None, "vct", 20),
     {"stage_profile": None}),
    (PreparedRun.finish, (None, None), {}),
    (Simulator.start, (None,), {}),
    (Simulator.run, (None,), {}),
    (SimulatorDrive.advance, (None, 256), {}),
    (SimulatorDrive.finish, (None,), {}),
    (run_sweep, ([],), {"config": None, "store": None, "jobs": 1}),
]


@pytest.mark.parametrize(
    "func,args,kwargs", CALLS,
    ids=[f"{i}:{row[0].__qualname__}" for i, row in enumerate(CALLS)])
def test_benchmark_call_shape_binds(func, args, kwargs):
    inspect.signature(func).bind(*args, **kwargs)


def test_benchmark_attribute_surface():
    runner = ExperimentRunner(FAST_CONFIG)
    for name in ("topology", "config", "params", "power_model"):
        assert hasattr(runner, name), f"ExperimentRunner lost {name!r}"
    assert {"result", "simulator"} <= {
        f.name for f in PreparedRun.__dataclass_fields__.values()}
    assert isinstance(SimulatorDrive.done, property)
