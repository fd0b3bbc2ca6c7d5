"""Open-loop simulation driver: warm-up, measurement window, drain.

The paper runs probabilistic traces for one million network cycles; this
driver reproduces the same methodology at configurable (default shorter)
lengths: traffic is injected continuously, statistics cover only packets
injected inside the measurement window, and the run finishes with a drain
phase — still under load — that waits for the window's packets to be
delivered (bounded by ``drain_cycles``, so saturated networks terminate and
report their delivery ratio honestly).

Observability: pass an :class:`~repro.obs.Observation` (or set
``SimulationParams.trace_events``) and the driver attaches it to the
network for the run — metrics and cycle-level events then mirror the
statistics the window records.  :meth:`Simulator.run` returns the bare
:class:`NetworkStats`; packaging them into the unified
:class:`~repro.obs.result.RunResult` (power, area, provenance) is the
job of :meth:`ExperimentRunner.prepare
<repro.experiments.runner.ExperimentRunner.prepare>`, which owns the design
point and the cell's address.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Protocol

from repro.noc.kernel import (
    require_capabilities, required_capabilities, resolve_kernel,
)
from repro.noc.network import Network
from repro.noc.stats import NetworkStats
from repro.params import SimulationParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observation
    from repro.obs.profile import StageProfile


class TrafficSource(Protocol):
    """Anything that can inject messages: called once per network cycle."""

    def tick(self, network: Network) -> None:  # pragma: no cover - protocol
        """Inject this cycle's messages into the network."""
        ...


class Simulator:
    """Drives a network with one or more traffic sources."""

    def __init__(
        self,
        network: Network,
        sources: list[TrafficSource],
        sim: Optional[SimulationParams] = None,
        *,
        observation: Optional["Observation"] = None,
        stage_profile: Optional["StageProfile"] = None,
    ):
        self.network = network
        self.sources = list(sources)
        self.sim = SimulationParams() if sim is None else sim
        self.stage_profile = stage_profile
        if observation is None and self.sim.trace_events:
            from repro.obs import EventTracer, MetricsRegistry, Observation

            observation = Observation(
                metrics=MetricsRegistry(),
                tracer=EventTracer(self.sim.trace_buffer_events),
            )
        self.observation = observation

    def _tick_sources(self) -> None:
        for source in self.sources:
            source.tick(self.network)

    def start(self) -> "SimulatorDrive":
        """Begin a stepwise run (see :class:`SimulatorDrive`).

        A caller that must interleave the run with its own work (the
        e2e benchmark's timed windows) advances the drive a bounded slice
        of cycles at a time; :meth:`run` is the degenerate driver over the
        same machinery, so sliced and monolithic execution share one code
        path and one result.
        """
        return SimulatorDrive(self)

    def run(self) -> NetworkStats:
        """Execute warm-up, measurement, and drain; return the statistics."""
        drive = self.start()
        while not drive.done:
            drive.advance(1 << 30)
        return drive.finish()


#: SimulatorDrive phases, in execution order.
_WARMUP, _MEASURE, _DRAIN, _DONE = range(4)


class SimulatorDrive:
    """One :class:`Simulator` run, advanced in bounded cycle slices.

    Construction performs the whole run preamble — kernel resolution (the
    one precedence rule, see :func:`repro.noc.kernel.resolve_kernel`),
    capability gating, observation attachment, closing the measurement
    window — then :meth:`advance` executes up to ``budget`` cycles at a
    time through the kernel's ``step_block``, crossing warm-up → measure →
    drain boundaries exactly where the monolithic loop did.  Slicing is
    invisible to the simulation: ``step_block`` checks the drain-stop
    predicate before every cycle either way, so any slicing schedule
    produces bit-identical statistics and traces.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        net = sim.network
        self._stats = stats = net.stats
        # The run-level request (sim.kernel, written by api/CLI kernel=
        # arguments) wins over the network's constructed kernel — so
        # explicitly built networks, e.g. the reference oracle in the
        # differential suite, are never silently clobbered — and the
        # registry default backs both.  The winner must declare every
        # capability this run needs (faults / multicast / stage
        # profiling) or we refuse before any cycle executes.
        name = resolve_kernel(sim.sim.kernel, net.kernel.name)
        require_capabilities(
            name, required_capabilities(net, sim.stage_profile), "this run"
        )
        if name != net.kernel.name:
            net.use_kernel(name)
        if sim.stage_profile is not None:
            net.kernel.stage_profile = sim.stage_profile
        if sim.observation is not None:
            net.observe(sim.observation)
        # Warm-up traffic must not be recorded at all: close the window
        # entirely; the measure transition opens it.
        stats.measure_start = stats.measure_end = 2 ** 62
        self._phase = _WARMUP
        self._left = sim.sim.warmup_cycles
        self._finished = False

    @property
    def done(self) -> bool:
        """True once warm-up, measurement, and drain have all completed."""
        return self._phase == _DONE

    def _drained(self) -> bool:
        stats = self._stats
        return stats.delivered_packets >= stats.injected_packets

    def advance(self, budget: int) -> bool:
        """Execute up to ``budget`` further cycles; returns :attr:`done`.

        Phase boundaries (window open/close, the drain-stop test) fall on
        the same cycles as in a monolithic run regardless of how the
        budget slices the timeline.
        """
        sim = self.sim
        net = sim.network
        kernel = net.kernel
        tick = sim._tick_sources
        stats = self._stats
        while budget > 0 and self._phase != _DONE:
            if self._phase == _WARMUP:
                n = min(budget, self._left)
                kernel.step_block(n, tick)
                self._left -= n
                budget -= n
                if self._left == 0:
                    stats.measure_start = net.cycle + 1
                    stats.measure_end = net.cycle + sim.sim.measure_cycles + 1
                    self._phase = _MEASURE
                    self._left = sim.sim.measure_cycles
            elif self._phase == _MEASURE:
                n = min(budget, self._left)
                kernel.step_block(n, tick)
                self._left -= n
                budget -= n
                if self._left == 0:
                    # Drain under continued load so window packets finish
                    # in a network that still looks like steady state.
                    self._phase = _DRAIN
                    self._left = sim.sim.drain_cycles
            else:
                if self._left == 0 or self._drained():
                    self._phase = _DONE
                    break
                n = min(budget, self._left)
                before = net.cycle
                kernel.step_block(n, tick, stop=self._drained)
                consumed = net.cycle - before
                self._left -= consumed
                budget -= consumed
                if consumed < n or self._left == 0:
                    self._phase = _DONE
        return self._phase == _DONE

    def finish(self) -> NetworkStats:
        """Finalize observation (drops, metrics) and return the stats.

        Idempotent; must only be called once :attr:`done` is True.
        """
        if not self.done:
            raise RuntimeError("SimulatorDrive.finish() before run complete")
        sim = self.sim
        if not self._finished:
            self._finished = True
            if sim.observation is not None:
                net = sim.network
                for uid in net.open_packet_uids():
                    sim.observation.on_drop(uid, net.cycle)
                sim.observation.finalize(net, self._stats)
        return self._stats
