"""The one capability-gated Registry, exercised through both instances."""

import pytest

from repro.noc import kernel, topology
from repro.noc.kernel import BatchKernel
from repro.noc.topology import MeshTopology
from repro.registry import Registry, RegistrySpec

INSTANCES = [
    pytest.param(kernel, kernel.KERNELS, BatchKernel, "faults", id="kernel"),
    pytest.param(topology, topology.TOPOLOGIES, MeshTopology, "overlay",
                 id="topology"),
]


@pytest.mark.parametrize("package,registry,base,flag", INSTANCES)
def test_register_validates_and_unregisters(package, registry, base, flag):
    toy = type("Toy", (base,), {"name": "toy"})
    assert isinstance(registry, Registry)
    # The packages' public functions are the instance's bound methods.
    assert package.register.__self__ is registry
    assert package.unregister.__self__ is registry
    assert package.get_spec.__self__ is registry

    spec = package.register("toy", toy, capabilities={flag})
    try:
        assert isinstance(spec, RegistrySpec)
        assert package.get_spec("toy") is spec
        assert spec.factory is toy
        assert spec.capabilities == frozenset({flag})
        with pytest.raises(ValueError, match="already registered"):
            package.register("toy", toy)
    finally:
        package.unregister("toy")
    assert "toy" not in registry
    package.unregister("toy")        # idempotent

    with pytest.raises(ValueError,
                       match=f"unknown {registry.kind} capabilities"):
        package.register("toy2", toy, capabilities={"time-travel"})
    assert "toy2" not in registry
    with pytest.raises(ValueError, match="non-empty string"):
        package.register("", toy)
    with pytest.raises(KeyError, match=f"known {registry.plural}"):
        package.get_spec("toy")


@pytest.mark.parametrize("package,registry,base,flag", INSTANCES)
def test_resolve_rows_and_require(package, registry, base, flag):
    others = sorted(set(registry) - {registry.default})
    assert registry.resolve() == registry.default
    assert registry.resolve(None, None) == registry.default
    assert registry.resolve(None, others[0]) == others[0]
    assert registry.resolve(others[0], registry.default) == others[0]
    with pytest.raises(KeyError, match="warp"):
        registry.resolve("warp", None)
    rows = registry.rows()
    assert [row["name"] for row in rows] == [registry.default] + others
    assert [row["default"] for row in rows] == [True] + [False] * len(others)

    toy = type("Toy", (base,), {"name": "toy"})
    package.register("toy", toy, capabilities={flag})
    try:
        assert registry.require("toy", {flag}).name == "toy"
        missing = sorted(registry.capabilities - {flag})
        with pytest.raises(registry.error) as exc:
            registry.require("toy", missing, context="this test")
        message = str(exc.value)
        assert "'toy'" in message and "this test" in message
        assert f"capable {registry.plural}: " in message
        assert registry.default in message      # a capable alternative
    finally:
        package.unregister("toy")
