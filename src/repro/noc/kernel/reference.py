"""The reference kernel: the original cycle loop, stage by stage.

This is the pre-refactor ``Network.step`` verbatim, composed from the
per-stage modules.  It keeps the readable data structures (a
``defaultdict`` event wheel keyed by absolute cycle, generator-based VC
iteration, the internal assertions in ``VirtualChannel.accept_flit``) and
serves as the oracle the production
:class:`~repro.noc.kernel.batch.BatchKernel` is differentially tested
against.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import TYPE_CHECKING

from repro.noc.kernel.arrivals import complete_ejections, deliver_arrivals
from repro.noc.kernel.base import SimKernel, advance_faults, register
from repro.noc.kernel.interface import run_interfaces
from repro.noc.kernel.rc_va import run_rc_va
from repro.noc.kernel.switch import run_switch

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.network import Network


class ReferenceKernel(SimKernel):
    """Unoptimized, internally asserting execution of the pipeline."""

    name = "reference"

    def __init__(self, net: "Network"):
        super().__init__(net)
        #: Event wheels keyed by absolute cycle: flit arrivals as
        #: (router, port, vc, packet), tail ejections as packets.
        self._arrivals: dict[int, list] = defaultdict(list)
        self._deliveries: dict[int, list] = defaultdict(list)
        #: Deferred active-set mutations recorded by the switch stage.
        self._ops: list[int] = []

    def step(self) -> None:
        """Advance the network by one cycle."""
        sp = self.stage_profile
        if sp is not None:
            self._step_profiled(sp)
            return
        net = self.net
        c = net.cycle = net.cycle + 1
        in_window = net.stats.in_window(c)
        if in_window:
            net.stats.activity.cycles += 1

        if net.fault_state is not None:
            advance_faults(net, c)

        deliver_arrivals(net, self._arrivals, c, in_window)
        complete_ejections(net, self._deliveries, c)
        run_interfaces(net, self._arrivals, c)
        run_rc_va(net, c)
        run_switch(net, self._arrivals, self._deliveries, self._ops,
                   c, in_window)

    def _step_profiled(self, sp) -> None:
        """The same cycle with per-stage wall-clock accounting."""
        net = self.net
        c = net.cycle = net.cycle + 1
        in_window = net.stats.in_window(c)
        if in_window:
            net.stats.activity.cycles += 1

        if net.fault_state is not None:
            advance_faults(net, c)

        sp.cycles += 1
        t0 = perf_counter()
        deliver_arrivals(net, self._arrivals, c, in_window)
        complete_ejections(net, self._deliveries, c)
        t1 = perf_counter()
        run_interfaces(net, self._arrivals, c)
        t2 = perf_counter()
        run_rc_va(net, c)
        t3 = perf_counter()
        run_switch(net, self._arrivals, self._deliveries, self._ops,
                   c, in_window)
        t4 = perf_counter()
        sp.arrivals_s += t1 - t0
        sp.ni_s += t2 - t1
        sp.rc_va_s += t3 - t2
        sp.sa_st_s += t4 - t3


register(
    "reference", ReferenceKernel,
    capabilities={"faults", "multicast", "stage_profile"},
)
