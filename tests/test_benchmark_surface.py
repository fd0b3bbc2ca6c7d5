"""The frozen benchmark's import surface, checked in the unit run.

``benchmarks/e2e`` may not change (see ``BENCHMARK.json``), so every
``from repro... import name`` it spells must keep resolving from the same
module.  A refactor that breaks one fails here, in under a second, instead
of at benchmark time.
"""

import ast
import importlib
from pathlib import Path

import pytest

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
