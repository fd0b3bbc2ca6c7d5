"""Runtime fault state: which resources are dead *right now*.

Structural faults are folded into the routing tables before a network is
built (:func:`~repro.faults.degrade.degraded_design`); everything that
fires or repairs mid-run — transient windows, late-onset permanent faults —
is tracked here.  One :class:`FaultState` attaches to one
:class:`~repro.noc.network.Network` instance (it is mutable, like the
network) and is advanced from the cycle loop.

The cycle loop's questions are membership tests on precomputed sets —
``out_dead(router, port)`` and ``blocks_endpoint(router)`` — recomputed
only at fault event cycles, so a network with a fault state but no
currently-active fault pays one integer comparison per step.

Runtime fault semantics (best-effort, unlike the *proven* structural
degradation):

* a dead **RF band**'s shortcut stops granting flits; packets selecting it
  at RC divert to the mesh fallback (counted as ``fault_reroutes``);
* dead **lines** shrink the fundable band count, silencing the
  highest-index shortcuts while the outage lasts;
* a dead **link** stops granting in both directions; flits already holding
  its VCs wait for the repair;
* a dead **router** blocks injection/ejection at its interface (drops are
  counted as ``fault_drops``) and silences every link touching it.

Packets with no live route stall in RC and retry each cycle
(``fault_retries``); for *transient* faults they proceed on repair.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.degrade import mesh_faults, usable_band_count
from repro.faults.model import Fault, FaultSchedule
from repro.noc.routing import EJECT, RoutingTables
from repro.noc.topology import TopologyProvider, Port
from repro.params import RFIParams


class FaultState:
    """Cycle-resolved view of one schedule's runtime faults."""

    def __init__(
        self,
        schedule: FaultSchedule,
        tables: RoutingTables,
        topology: TopologyProvider,
        rfi: RFIParams,
    ):
        self.schedule = schedule
        self.tables = tables
        self.topology = topology
        self.rfi = rfi
        self._structural_routers = frozenset(
            f.target[0] for f in schedule.structural() if f.kind == "router"
        )
        self._runtime = schedule.runtime()
        self._validate_runtime()
        self._events = sorted(
            {c for f in self._runtime for c in (f.start, f.end)
             if c is not None}
        )
        self._event_idx = 0
        self._next_event: Optional[int] = (
            self._events[0] if self._events else None
        )
        self._active: frozenset[Fault] = frozenset()
        self.dead_out: set[tuple[int, int]] = set()
        self.dead_routers: frozenset[int] = frozenset()
        self.blocked: frozenset[int] = self._structural_routers
        self._pending = self._recompute(0)

    def _validate_runtime(self) -> None:
        mesh_faults(self.topology, self._runtime)   # checks links/routers
        num_bands = self.rfi.shortcut_budget
        for fault in self._runtime:
            if fault.kind == "band" and fault.target[0] >= num_bands:
                raise ValueError(
                    f"band fault {fault.canonical()} exceeds the "
                    f"{num_bands}-band plan"
                )
            if fault.kind == "line" and fault.target[0] >= self.rfi.num_lines:
                raise ValueError(
                    f"line fault {fault.canonical()} exceeds the "
                    f"{self.rfi.num_lines}-line bundle"
                )

    @property
    def inert(self) -> bool:
        """True when this state can never affect the run (nothing to track)."""
        return not self._runtime and not self._structural_routers

    # -- cycle-loop queries ---------------------------------------------------

    def blocks_endpoint(self, router: int) -> bool:
        """Can ``router`` currently source or sink traffic?  (Dead => True.)"""
        return router in self.blocked

    def out_dead(self, router: int, port: int) -> bool:
        """Is the directed output ``(router, port)`` currently dead?"""
        return (router, port) in self.dead_out

    # -- advancement ----------------------------------------------------------

    def advance(self, cycle: int) -> list[tuple[Fault, bool]]:
        """Update to ``cycle``; return ``(fault, went_down)`` transitions.

        Cheap when nothing changes: one comparison against the next event
        cycle.  Transitions pending from construction (faults active at
        cycle 0 with a repair scheduled) are delivered on the first call.
        """
        transitions = self._pending
        if transitions:
            self._pending = []
        if self._next_event is None or cycle < self._next_event:
            return transitions
        while (
            self._event_idx < len(self._events)
            and self._events[self._event_idx] <= cycle
        ):
            self._event_idx += 1
        self._next_event = (
            self._events[self._event_idx]
            if self._event_idx < len(self._events) else None
        )
        return transitions + self._recompute(cycle)

    def _recompute(self, cycle: int) -> list[tuple[Fault, bool]]:
        active = frozenset(f for f in self._runtime if f.active(cycle))
        transitions = (
            [(f, True) for f in sorted(active - self._active)]
            + [(f, False) for f in sorted(self._active - active)]
        )
        self._active = active
        self._apply()
        return transitions

    def _apply(self) -> None:
        """Rebuild the dead sets from the currently-active faults."""
        shortcuts = self.tables.shortcuts
        topology = self.topology
        num_bands = self.rfi.shortcut_budget
        dead_out: set[tuple[int, int]] = set()
        dead_routers: set[int] = set()
        dead_bands: set[int] = set()
        dead_lines = 0
        for fault in self._active:
            if fault.kind == "router":
                dead_routers.add(fault.target[0])
            elif fault.kind == "link":
                a, b = fault.target
                for port, nbr in topology.adjacency[a]:
                    if nbr == b:
                        dead_out.add((a, port))
                        dead_out.add((b, int(topology.opposite_port(port))))
            elif fault.kind == "band":
                dead_bands.add(fault.target[0])
            elif fault.kind == "line":
                dead_lines += 1
        usable = usable_band_count(num_bands, dead_lines, self.rfi)
        if usable < num_bands:
            dead_bands.update(range(usable, num_bands))
        for band in dead_bands:
            if band < len(shortcuts):
                dead_out.add((shortcuts[band].src, int(Port.RF)))
        for router in dead_routers:
            dead_out.add((router, EJECT))
            for port, nbr in topology.adjacency[router]:
                dead_out.add((router, port))
                dead_out.add((nbr, int(topology.opposite_port(port))))
            for sc in shortcuts:
                if sc.src == router or sc.dst == router:
                    dead_out.add((sc.src, int(Port.RF)))
        self.dead_out = dead_out
        self.dead_routers = frozenset(dead_routers)
        self.blocked = self._structural_routers | self.dead_routers

    def rebind(self, tables: RoutingTables) -> None:
        """Point the band-fault mapping at retuned shortcuts.

        Runtime reconfiguration (:class:`~repro.control.loop.ControlLoop`)
        swaps the routing tables mid-run; a band fault kills whichever
        shortcut occupies the band
        *now*, so the dead sets are rebuilt against the new plan.
        """
        self.tables = tables
        self._apply()

    def active_faults(self) -> tuple[Fault, ...]:
        """The runtime faults currently down, in canonical order."""
        return tuple(sorted(self._active))
