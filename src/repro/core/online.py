"""Phase-changing workloads — the stressor for runtime reconfiguration.

Section 3.2 notes shortcut selection "can be done ahead of time by the
application writer or compiler, or **at run time by the operating system, a
hypervisor, or in the hardware itself**", but the paper only evaluates
once-per-application reconfiguration from an offline profile.  The runtime
variant lives in :mod:`repro.control` (:class:`~repro.control.loop.ControlLoop`
is the one implementation); this module keeps the workload that makes it
matter: a source whose communication pattern changes at phase boundaries,
which no single static per-application profile can fit.
"""

from __future__ import annotations

from repro.noc.network import Network


class PhasedSource:
    """A workload whose communication pattern changes at phase boundaries.

    Cycles through the given sources, spending ``phase_cycles`` on each —
    the canonical stressor for runtime adaptation (a static per-application
    profile can only fit one of the phases).
    """

    def __init__(self, sources: list, phase_cycles: int):
        if not sources:
            raise ValueError("need at least one source")
        self.sources = list(sources)
        self.phase_cycles = phase_cycles

    def current(self, cycle: int):
        """The source active during ``cycle``'s phase."""
        index = (cycle // self.phase_cycles) % len(self.sources)
        return self.sources[index]

    def sample_messages(self, cycle: int):
        """Delegate to the phase's active source."""
        return self.current(cycle).sample_messages(cycle)

    def tick(self, network: Network) -> None:
        """Inject the active phase's messages into the network."""
        for msg in self.sample_messages(network.cycle):
            network.inject(msg)
