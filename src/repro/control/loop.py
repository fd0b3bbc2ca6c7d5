"""Apply stage: the epoch-based closed-loop scheduler.

:class:`ControlLoop` is a traffic-source wrapper (the simulator drives
it once per cycle) that runs the full ingest -> decide -> compile ->
apply pipeline against live traffic:

* **MEASURE** — inject the wrapped source's messages, feeding each one
  to the :class:`~repro.control.profile.TrafficProfile`; at each epoch
  boundary run the decider.  Skips (hysteresis, unchanged placement,
  not enough window evidence) are journaled and cost nothing.
* **DRAIN** — an applied decision needs a quiescent network (in-flight
  wormholes hold virtual channels on links about to retune), so
  injection stops and the loop waits for ``in_flight == 0`` — but only
  up to ``drain_deadline_cycles``: a saturated network that never
  quiesces costs a skipped epoch, not a livelock.
* **PAUSE** — after the swap, execution pauses for the compiled
  tuning + table-update overhead before traffic resumes.  Every cycle
  spent draining or paused is charged against measured latency — the
  reconfiguration cost is paid where the paper says it is.

Observability: one :class:`~repro.control.journal.DecisionRecord` per
epoch, plus MetricsRegistry counters ``control_decisions{decision=}``,
``control_drain_cycles`` and ``control_objective_gain`` when the
simulation runs under an :class:`~repro.obs.observe.Observation`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.control.compiler import BandConfiguration, compile_configuration
from repro.control.decide import Decision, ShortcutDecider
from repro.control.journal import DecisionJournal, DecisionRecord
from repro.control.profile import TrafficProfile
from repro.core.reconfig import ReconfigurationController
from repro.noc.network import Network
from repro.noc.routing import Shortcut


class Phase(enum.Enum):
    """Reconfiguration state machine phases."""
    MEASURE = "measure"
    DRAIN = "drain"
    PAUSE = "pause"


@dataclass(frozen=True)
class ControlConfig:
    """Frozen knobs of one control loop (value-like; spec round-trips)."""

    epoch_cycles: int = 2_000
    decay: float = 0.5
    hysteresis: float = 0.02
    drain_deadline_cycles: int = 400
    min_window_messages: int = 64
    budget: int | None = None
    use_regions: bool = True

    def __post_init__(self) -> None:
        if self.epoch_cycles <= 0:
            raise ValueError("epoch_cycles must be positive")
        if not (0.0 <= self.decay <= 1.0):
            raise ValueError("decay must be in [0, 1]")
        if self.hysteresis < 0:
            raise ValueError("hysteresis must be non-negative")
        if self.drain_deadline_cycles <= 0:
            raise ValueError("drain_deadline_cycles must be positive")
        if self.min_window_messages < 0:
            raise ValueError("min_window_messages must be non-negative")
        if self.budget is not None and self.budget <= 0:
            raise ValueError("budget must be positive")

    # -- spec string ---------------------------------------------------------
    #
    # The canonical spec string is the loop's wire identity: it rides in
    # ``JobSpec.extra`` as ``("control", spec)``, so it must be stable —
    # sorted keys, defaults included, minimal float formatting.

    _KEYS = {
        "epoch": "epoch_cycles",
        "decay": "decay",
        "hysteresis": "hysteresis",
        "deadline": "drain_deadline_cycles",
        "min": "min_window_messages",
        "budget": "budget",
        "regions": "use_regions",
    }

    def canonical(self) -> str:
        """Stable ``key=value`` spec string (sorted, defaults included)."""
        parts = []
        for key in sorted(self._KEYS):
            value = getattr(self, self._KEYS[key])
            if key == "budget" and value is None:
                continue
            if key == "regions":
                value = int(value)
            parts.append(f"{key}={value:g}" if isinstance(value, float)
                         else f"{key}={value}")
        return ",".join(parts)

    @classmethod
    def from_spec(cls, text: str | None) -> "ControlConfig":
        """Parse ``"epoch=1200,hysteresis=0.05,..."``; empty = defaults."""
        if not text:
            return cls()
        kwargs: dict = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"control spec entries must be key=value, got {part!r}")
            key, _, raw = part.partition("=")
            key = key.strip()
            if key not in cls._KEYS:
                raise ValueError(
                    f"unknown control key {key!r}; "
                    f"one of {sorted(cls._KEYS)}")
            field = cls._KEYS[key]
            try:
                if field in ("decay", "hysteresis"):
                    kwargs[field] = float(raw)
                elif field == "use_regions":
                    kwargs[field] = bool(int(raw))
                else:
                    kwargs[field] = int(raw)
            except ValueError as exc:
                raise ValueError(
                    f"invalid control value {raw!r} for {key!r}") from exc
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ValueError(f"invalid control spec {text!r}: {exc}") from exc


class ControlLoop:
    """Closed-loop controller: wraps a source, adapts the overlay live."""

    def __init__(
        self,
        source,
        controller: ReconfigurationController,
        config: ControlConfig | None = None,
        initial: tuple[tuple[int, int], ...] = (),
        journal: DecisionJournal | None = None,
    ):
        self.source = source
        self.controller = controller
        self.config = config or ControlConfig()
        self.profile = TrafficProfile(
            controller.topology.num_routers, decay=self.config.decay)
        self.decider = ShortcutDecider(
            controller.topology,
            controller.overlay.access_points,
            budget=self.config.budget or controller.budget,
            use_regions=self.config.use_regions,
            hysteresis=self.config.hysteresis,
        )
        self.journal = journal if journal is not None else DecisionJournal()
        self.current: tuple[tuple[int, int], ...] = tuple(initial)
        self.band_config: BandConfiguration | None = None
        if self.current:
            # Adopt the warm-start placement as the live band plan so the
            # first epoch prunes against it instead of treating every band
            # as free.
            self.band_config, _ = compile_configuration(
                controller.topology, self.current)
        self.phase = Phase.MEASURE
        self.epoch = 0
        self.next_epoch_at = self.config.epoch_cycles
        self.resume_at = 0
        self._drain_started = 0
        self._pending: Decision | None = None

    # -- per-cycle driver ----------------------------------------------------

    def tick(self, network: Network) -> None:
        """Measure, decide, drain, apply, or resume — one cycle's worth."""
        cycle = network.cycle
        if self.phase is Phase.MEASURE:
            for msg in self.source.sample_messages(cycle):
                self.profile.observe(msg)
                network.inject(msg)
            if cycle >= self.next_epoch_at:
                self._end_epoch(network, cycle)
        elif self.phase is Phase.DRAIN:
            if network.in_flight == 0:
                self._apply(network, cycle)
            elif (cycle - self._drain_started
                    >= self.config.drain_deadline_cycles):
                self._record(
                    network, cycle, "skipped", "drain-deadline",
                    self._pending,
                    drain_cycles=cycle - self._drain_started,
                )
                self._pending = None
                self._roll(cycle)
        elif self.phase is Phase.PAUSE:
            if cycle >= self.resume_at:
                self._roll(cycle)

    # -- stage transitions ---------------------------------------------------

    def _end_epoch(self, network: Network, cycle: int) -> None:
        self.epoch += 1
        if self.profile.window_messages < self.config.min_window_messages:
            self._record(network, cycle, "skipped", "insufficient-traffic",
                         None)
            self._roll(cycle)
            return
        decision = self.decider.decide(self.profile.matrix(), self.current)
        if decision.action == "skip":
            self._record(network, cycle, "skipped", decision.reason, decision)
            self._roll(cycle)
            return
        self._pending = decision
        self.phase = Phase.DRAIN
        self._drain_started = cycle

    def _apply(self, network: Network, cycle: int) -> None:
        decision = self._pending
        self._pending = None
        band_config, tables = compile_configuration(
            self.controller.topology, decision.shortcuts, self.band_config)
        if band_config.is_noop:
            # Same digest as the live plan: the compile stage pruned
            # everything, so no drain/tuning cost is charged.
            self._record(network, cycle, "skipped", "no-op", decision,
                         config=band_config,
                         drain_cycles=cycle - self._drain_started)
            self._roll(cycle)
            return
        overlay = self.controller.overlay
        overlay.clear()
        overlay.configure_shortcuts(
            [Shortcut(s, d) for s, d in decision.shortcuts])
        network.apply_shortcuts(tables)
        if network.fault_state is not None:
            # A band fault kills whichever shortcut holds the band *now*.
            network.fault_state.rebind(tables)
        self.current = decision.shortcuts
        self.band_config = band_config
        self._record(
            network, cycle, "applied", decision.reason, decision,
            config=band_config,
            drain_cycles=cycle - self._drain_started,
            overhead_cycles=band_config.total_overhead_cycles,
        )
        self.resume_at = cycle + band_config.total_overhead_cycles
        self.phase = Phase.PAUSE

    def _roll(self, cycle: int) -> None:
        self.phase = Phase.MEASURE
        self.next_epoch_at = cycle + self.config.epoch_cycles
        self.profile.decay_window()

    # -- journal + metrics ---------------------------------------------------

    def _record(
        self,
        network: Network,
        cycle: int,
        action: str,
        reason: str,
        decision: Decision | None,
        config: BandConfiguration | None = None,
        drain_cycles: int = 0,
        overhead_cycles: int = 0,
    ) -> None:
        gain = decision.predicted_gain if decision is not None else 0.0
        self.journal.append(DecisionRecord(
            epoch=self.epoch,
            cycle=cycle,
            action=action,
            reason=reason,
            objective_before=(
                decision.objective_before if decision else 0.0),
            objective_after=(
                decision.objective_after if decision else 0.0),
            predicted_gain=gain,
            config_digest=config.digest if config is not None else None,
            shortcuts=len(decision.shortcuts) if decision else len(
                self.current),
            drain_cycles=drain_cycles,
            overhead_cycles=overhead_cycles,
            window_messages=self.profile.window_messages,
        ))
        observation = network.observation
        if observation is None or observation.metrics is None:
            return
        metrics = observation.metrics
        metrics.counter("control_decisions", decision=action).inc()
        if drain_cycles:
            metrics.counter("control_drain_cycles").inc(drain_cycles)
        if action == "applied" and gain > 0:
            metrics.counter("control_objective_gain").inc(gain)

    # -- inspection ----------------------------------------------------------

    @property
    def applied(self) -> int:
        return self.journal.counts().get("applied", 0)

    @property
    def skipped(self) -> int:
        return self.journal.counts().get("skipped", 0)
