"""One capability-gated name registry, instantiated once per plugin kind.

A simulation *kernel* and a topology *provider* are the same thing to the
rest of the stack: a name, a factory, and the feature flags the factory
declares it can honor.  :data:`repro.noc.kernel.KERNELS` and
:data:`repro.noc.topology.TOPOLOGIES` are the two :class:`Registry`
instances; those packages' public ``register`` / ``unregister`` /
``get_spec`` / ``resolve_*`` / ``require_*`` are its bound methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional


@dataclass(frozen=True)
class RegistrySpec:
    """One registry entry: the factory plus its declared capabilities."""

    name: str
    factory: Callable
    capabilities: frozenset[str]


class Registry(dict):
    """``name -> RegistrySpec`` for one kind of plugin (see module docs)."""

    def __init__(self, kind: str, plural: str, default: str,
                 capabilities: Iterable[str], error: type[Exception]):
        super().__init__()
        self.kind = kind
        self.plural = plural
        self.default = default
        self.capabilities = frozenset(capabilities)
        self.error = error

    def register(self, name: str, factory: Callable, *,
                 capabilities: Iterable[str] = ()) -> RegistrySpec:
        """Claim ``name`` for ``factory``; returns the stored spec.

        ``capabilities`` come from the registry's closed vocabulary, so a
        typo fails at registration.  Names are claimed once: replacing an
        entry needs an explicit :meth:`unregister` first, so a collision is
        a loud error instead of a silent behavior change.
        """
        caps = frozenset(capabilities)
        unknown = caps - self.capabilities
        if unknown:
            raise ValueError(
                f"unknown {self.kind} capabilities {sorted(unknown)}; "
                f"choose from {sorted(self.capabilities)}")
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.kind} name must be a non-empty string")
        if name in self:
            raise ValueError(
                f"{self.kind} {name!r} is already registered; "
                "unregister() it first")
        spec = self[name] = RegistrySpec(name, factory, caps)
        return spec

    def unregister(self, name: str) -> None:
        """Remove an entry (primarily for tests)."""
        self.pop(name, None)

    def get_spec(self, name: str) -> RegistrySpec:
        """The entry registered under ``name`` (``KeyError`` lists the rest)."""
        try:
            return self[name]
        except KeyError:
            raise KeyError(
                f"unknown {self.kind} {name!r}; "
                f"known {self.plural}: {sorted(self)}") from None

    def resolve(self, *requests: Optional[str]) -> str:
        """The first non-``None`` request, else the default — validated."""
        name = next((r for r in requests if r is not None), self.default)
        self.get_spec(name)  # fail fast on unknown names
        return name

    def rows(self) -> list[dict]:
        """JSON-safe listing, default entry first then by name."""
        rows = []
        for spec in self.values():
            doc = (getattr(spec.factory, "__doc__", None) or "").strip()
            rows.append({
                "name": spec.name,
                "factory": getattr(spec.factory, "__qualname__",
                                   repr(spec.factory)),
                "capabilities": sorted(spec.capabilities),
                "default": spec.name == self.default,
                "summary": doc.splitlines()[0] if doc else "",
            })
        rows.sort(key=lambda row: (not row["default"], row["name"]))
        return rows

    def require(self, name: str, needed: Iterable[str],
                context: str = "this run") -> RegistrySpec:
        """Refuse, loudly, unless entry ``name`` declares every needed flag.

        Raises the kind's own error class naming the entry, the missing
        flags, and capable alternatives, before any cycle runs — fail-fast
        instead of silent divergence for feature-limited plugins.
        """
        spec = self.get_spec(name)
        needed = set(needed)
        missing = needed - spec.capabilities
        if missing:
            capable = sorted(other.name for other in self.values()
                             if needed <= other.capabilities)
            raise self.error(
                f"{self.kind} {name!r} does not support {sorted(missing)} "
                f"(declared capabilities: {sorted(spec.capabilities)}), "
                f"which {context} requires; capable {self.plural}: {capable}")
        return spec
