"""Differential equivalence suite: BatchKernel vs ReferenceKernel.

The kernel contract (see ``src/repro/noc/kernel/__init__.py``) is *bit
identity*: for any (seed, traffic, shortcut set, fault schedule, multicast
configuration, control-retune sequence), every registered kernel must
produce identical :class:`~repro.noc.stats.NetworkStats` — verified here
via :meth:`NetworkStats.digest`, a SHA-256 over the canonical JSON of
every counter, histogram, and per-packet latency — and, with tracing on,
identical event streams.  Each case below runs the same cell once per
kernel on a fresh runner (no memo or store sharing) and compares digests.

Also covered: slice invariance of :class:`~repro.noc.simulator.SimulatorDrive`,
the ``__slots__`` audit for hot-path classes, kernel registry /
capability-gating / resolver guards (including the refusal of the removed
``fast`` kernel and ``sweep --batch``), digest neutrality of the kernel
knob, and :class:`~repro.obs.profile.StageProfile` accumulation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

import repro
from repro.campaign import CampaignError, spec_from_dict
from repro.cli import main
from repro.control import run_closed_loop
from repro.control.run import control_spec
from repro.exec.jobs import job_digest, sweep_grid
from repro.experiments import FAST_CONFIG, ExperimentRunner
from repro.noc import (
    CAPABILITIES,
    DEFAULT_KERNEL,
    KERNELS,
    BatchKernel,
    KernelCapabilityError,
    KernelSpec,
    ReferenceKernel,
    get_kernel,
    get_spec,
    kernel_capabilities,
    list_kernels,
    register,
    resolve_kernel,
    unregister,
)
from repro.noc.message import Message, Packet
from repro.noc.network import NetworkInterface
from repro.noc.router import InputPort, OutputLink, Router, VirtualChannel
from repro.obs import EventTracer, Observation, StageProfile
from repro.params import DEFAULT_PARAMS, SimulationParams

#: The oracle and the production engine — the whole registry.
KERNEL_NAMES = ("reference", "batch")

#: Short but non-trivial windows: long enough to exercise warmup boundary
#: crossings, escape timeouts, and full drain; short enough to keep the
#: whole differential matrix cheap.
SIM = SimulationParams(warmup_cycles=50, measure_cycles=300, drain_cycles=2_000)

FAULTS = "link:30-31@20-140;router:55@150-230"

#: A closed-loop cell whose two phases each trigger an applied retune
#: (``Network.apply_shortcuts`` from a source tick, mid-``step_block``).
CONTROL_WORKLOAD = "phased:hotBiDF+uniDF@300"
CONTROL_SPEC = "epoch=200,min=5"


def _config(kernel: str):
    return dataclasses.replace(
        FAST_CONFIG,
        sim=dataclasses.replace(SIM, kernel=kernel),
        profile_cycles=2_000,
    )


def _fresh_runner(kernel: str) -> ExperimentRunner:
    # One runner per kernel: the memo cache is per-runner and the store is
    # off, so each kernel genuinely simulates.
    return ExperimentRunner(_config(kernel))


def _control_runner(kernel: str) -> ExperimentRunner:
    config = _config(kernel)
    return ExperimentRunner(dataclasses.replace(
        config, sim=dataclasses.replace(config.sim, measure_cycles=600),
    ))


def _unicast_digest(kernel, style, workload, *, adaptive=False, faults=None):
    runner = _fresh_runner(kernel)
    design = runner.design(
        style, 16, workload=workload, adaptive_routing=adaptive
    )
    result = runner.run_unicast(design, workload, faults=faults)
    assert result.stats is not None
    return result.stats.digest()


# -- unicast: patterns x designs -------------------------------------------------

UNICAST_CASES = [
    # (style, workload, adaptive_routing)
    ("baseline", "uniform", False),
    ("static", "uniform", False),
    ("static", "1Hotspot", False),     # hotspot traffic
    ("baseline", "uniDF", False),      # dataflow traffic
    ("wire", "hotBiDF", False),        # wire shortcuts, mixed dataflow
    ("adaptive", "uniform", True),     # adaptive RF routing
]


@pytest.mark.parametrize("style,workload,adaptive", UNICAST_CASES)
def test_unicast_digests_identical(style, workload, adaptive):
    digests = {
        kernel: _unicast_digest(
            kernel, style, workload, adaptive=adaptive
        )
        for kernel in KERNEL_NAMES
    }
    assert digests["batch"] == digests["reference"]


def test_faulted_run_digests_identical():
    # Transient link + router faults: the fault sweep runs inside the
    # cycle loop (advance_faults), so both kernels must observe the same
    # dead/alive transitions at the same cycles.
    digests = {
        kernel: _unicast_digest(kernel, "static", "uniform", faults=FAULTS)
        for kernel in KERNEL_NAMES
    }
    assert digests["batch"] == digests["reference"]


# -- multicast -------------------------------------------------------------------

MULTICAST_CASES = [
    # (realization, locality_percent)
    ("vct", 50),
    ("rf", 50),
    ("unicast", 20),
]


@pytest.mark.parametrize("realization,locality", MULTICAST_CASES)
def test_multicast_digests_identical(realization, locality):
    digests = {}
    for kernel in KERNEL_NAMES:
        runner = _fresh_runner(kernel)
        design = runner.design("adaptive+mc", 16, workload="uniform")
        result = runner.run_multicast(design, realization, locality)
        assert result.stats is not None
        digests[kernel] = result.stats.digest()
    assert digests["batch"] == digests["reference"]


# -- control retunes -------------------------------------------------------------

def test_control_retune_digests_identical():
    # Every applied retune rewires the kernel between two cycles of one
    # step_block; counters batched before it must survive the rebuild.
    runs = {
        kernel: run_closed_loop(_control_runner(kernel), CONTROL_WORKLOAD,
                                control=CONTROL_SPEC)
        for kernel in KERNEL_NAMES
    }
    ref = runs["reference"]
    assert ref.journal.counts()["applied"] >= 2
    assert runs["batch"].journal.digest() == ref.journal.digest()
    assert runs["batch"].result.stats.digest() == ref.result.stats.digest()


# -- slice invariance ------------------------------------------------------------

def _prepared_simulator(kernel: str, cell: str):
    """A fresh, unrun simulator for one slice-invariance cell."""
    if cell == "control":
        return _control_runner(kernel).prepare(
            control_spec(CONTROL_WORKLOAD, control=CONTROL_SPEC),
        ).simulator
    runner = _fresh_runner(kernel)
    return runner.prepare_unicast(
        runner.design("static", 16), "uniform",
        faults=FAULTS if cell == "faulted" else None,
    ).simulator


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@pytest.mark.parametrize("cell", ["plain", "faulted", "control"])
def test_sliced_drive_matches_monolithic_run(cell, kernel):
    # Simulator.run() is one unbounded advance; any slicing schedule —
    # including ones that split phases and retune epochs mid-block — must
    # land on the same statistics.
    whole = _prepared_simulator(kernel, cell).run().digest()
    for budget in (1, 100, 256):
        drive = _prepared_simulator(kernel, cell).start()
        while not drive.advance(budget):
            pass
        assert drive.finish().digest() == whole, budget


# -- trace streams ---------------------------------------------------------------

def _trace_digest(kernel: str) -> tuple[str, str]:
    """(stats digest, event-stream digest) for one observed static run.

    Packet uids come from a process-global counter, so two runs in one
    process never share raw uids; events are digested with uids remapped
    to first-appearance order, which preserves identity structure.
    """
    runner = _fresh_runner(kernel)
    design = runner.design("static", 16)
    observation = Observation(tracer=EventTracer(capacity=300_000))
    result = runner.run_unicast(design, "uniform", observation=observation)
    events = [e.to_dict() for e in observation.tracer.events()]
    canonical: dict[int, int] = {}
    for event in events:
        uid = event.get("packet")
        if uid is not None:
            event["packet"] = canonical.setdefault(uid, len(canonical))
    blob = json.dumps(events, sort_keys=True, separators=(",", ":"))
    return (
        result.stats.digest(),
        hashlib.sha256(blob.encode("utf-8")).hexdigest(),
    )


def test_trace_event_streams_identical():
    assert _trace_digest("batch") == _trace_digest("reference")


# -- __slots__ audit -------------------------------------------------------------

HOT_CLASSES = (
    Message, Packet, VirtualChannel, InputPort, OutputLink, Router,
    NetworkInterface,
)


@pytest.mark.parametrize(
    "cls", HOT_CLASSES, ids=lambda c: c.__name__
)
def test_hot_classes_have_no_dict(cls):
    # An instance __dict__ sneaks back in if any class in the MRO lacks
    # __slots__; check a real instance from a built network.
    runner = ExperimentRunner(_config("batch"))
    net = runner.design("static", 16).new_network()
    router = net.routers[0]
    instances = {
        Router: router,
        InputPort: next(iter(router.in_ports.values())),
        VirtualChannel: next(iter(router.in_ports.values())).vcs[0],
        OutputLink: next(iter(router.out_links.values())),
        NetworkInterface: net.interfaces[0],
        Message: Message(src=0, dst=5, size_bytes=39),
        Packet: Packet(Message(src=0, dst=5, size_bytes=39), 16),
    }
    assert not hasattr(instances[cls], "__dict__")


# -- registry and selection guards ----------------------------------------------

def test_kernel_registry():
    assert DEFAULT_KERNEL == "batch"
    assert sorted(KERNELS) == ["batch", "reference"]
    assert isinstance(KERNELS["batch"], KernelSpec)
    assert KERNELS["reference"].factory is ReferenceKernel
    assert KERNELS["batch"].factory is BatchKernel
    assert get_kernel("reference") is ReferenceKernel
    assert get_spec("batch").capabilities == frozenset(
        {"faults", "multicast", "stage_profile"}
    )
    assert kernel_capabilities("reference") == CAPABILITIES == frozenset(
        {"faults", "multicast", "stage_profile"}
    )
    with pytest.raises(KeyError, match="reference"):
        get_kernel("warp-speed")
    # Default kernel is listed first; the rest alphabetically.
    rows = list_kernels()
    assert [row["name"] for row in rows] == ["batch", "reference"]
    assert rows[0]["default"] is True and rows[1]["default"] is False


def test_resolve_kernel_precedence():
    # Explicit request > the network's constructed kernel > default.
    assert resolve_kernel("batch", "reference") == "batch"
    assert resolve_kernel(None, "reference") == "reference"
    assert resolve_kernel(None, None) == DEFAULT_KERNEL
    with pytest.raises(KeyError, match="warp"):
        resolve_kernel("warp-speed", None)


def _run_with_params_kernel():
    runner = _fresh_runner("fast")      # SimulationParams(kernel="fast")
    runner.run_unicast(runner.design("baseline", 16), "uniform")


@pytest.mark.parametrize("entry,error", [
    (lambda: main(["simulate", "--fast", "--kernel", "fast"]), SystemExit),
    (lambda: main(["sweep", "--fast", "--batch"]), SystemExit),
    (lambda: repro.simulate("baseline", "uniform", fast=True, kernel="fast"),
     KeyError),
    (_run_with_params_kernel, KeyError),
    (lambda: spec_from_dict({"kernel": "fast"}), CampaignError),
], ids=["cli-kernel", "cli-sweep-batch", "api", "params", "campaign"])
def test_removed_names_are_refused(entry, error):
    # No alias, fallback or shim: the deleted kernel name and executor flag
    # fail exactly like any other typo, at every entry point.
    with pytest.raises(error) as exc:
        entry()
    if error is SystemExit:
        assert exc.value.code == 2          # argparse's own refusal
    else:
        assert "unknown kernel 'fast'" in str(exc.value)
        assert "['batch', 'reference']" in str(exc.value)


def test_capability_gating_refuses_incapable_kernel():
    class NoFaultKernel(BatchKernel):
        name = "nofault"

    register("nofault", NoFaultKernel, capabilities={"multicast"})
    try:
        runner = ExperimentRunner(_config("nofault"))
        design = runner.design("static", 16)
        with pytest.raises(KernelCapabilityError) as exc:
            runner.run_unicast(design, "uniform", faults=FAULTS)
        msg = str(exc.value)
        assert "faults" in msg and "nofault" in msg
        # The error names capable alternatives.
        assert "'batch'" in msg
        # Without faults the same kernel runs fine.
        result = runner.run_unicast(design, "uniform")
        assert result.stats is not None
    finally:
        unregister("nofault")


def test_stage_profile_requires_capability():
    class BareKernel(BatchKernel):
        name = "bare"

    register("bare", BareKernel, capabilities={"faults", "multicast"})
    try:
        runner = ExperimentRunner(_config("bare"))
        design = runner.design("static", 16)
        with pytest.raises(KernelCapabilityError, match="stage_profile"):
            runner.run_unicast(
                design, "uniform", stage_profile=StageProfile()
            )
    finally:
        unregister("bare")


def test_new_network_kernel_selection():
    runner = ExperimentRunner(_config("batch"))
    design = runner.design("static", 16)
    assert design.new_network().kernel.name == "batch"
    assert design.new_network(kernel="reference").kernel.name == "reference"


def test_use_kernel_swaps_and_guards():
    runner = ExperimentRunner(_config("batch"))
    net = runner.design("static", 16).new_network()
    assert isinstance(net.kernel, BatchKernel)
    net.use_kernel("reference")
    assert isinstance(net.kernel, ReferenceKernel)
    # Same-name swap is a no-op even mid-flight.
    net.inject(Message(src=0, dst=42, size_bytes=39))
    kernel = net.kernel
    net.use_kernel("reference")
    assert net.kernel is kernel
    # Cross-kernel swap with packets in flight must refuse: in-flight
    # wheel state lives inside the kernel.
    with pytest.raises(RuntimeError, match="in flight"):
        net.use_kernel("batch")


# -- digest neutrality -----------------------------------------------------------

def test_kernel_never_enters_job_digest():
    spec = sweep_grid(["static"], [16], ["uniform"])[0]
    digests = {
        job_digest(spec, _config(kernel), DEFAULT_PARAMS)
        for kernel in KERNEL_NAMES
    }
    no_kernel = dataclasses.replace(
        FAST_CONFIG,
        sim=dataclasses.replace(SIM),
        profile_cycles=2_000,
    )
    digests.add(job_digest(spec, no_kernel, DEFAULT_PARAMS))
    assert len(digests) == 1


def test_kernel_never_enters_provenance():
    provs = set()
    for kernel in KERNEL_NAMES:
        runner = _fresh_runner(kernel)
        design = runner.design("static", 16)
        result = runner.run_unicast(design, "uniform")
        provs.add(result.provenance)
    assert len(provs) == 1 and None not in provs


# -- stage profiling -------------------------------------------------------------

@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_stage_profile_accumulates(kernel):
    runner = _fresh_runner(kernel)
    design = runner.design("static", 16)
    sp = StageProfile()
    runner.run_unicast(design, "uniform", observation=Observation(),
                       stage_profile=sp)
    assert sp.cycles > 0
    out = sp.as_dict()
    assert set(out) == {
        "stage_arrivals_s", "stage_ni_s", "stage_rc_va_s", "stage_sa_st_s",
    }
    assert all(v >= 0.0 for v in out.values())
    # Profiled and unprofiled paths must agree on results too.
    profiled = runner.run_unicast(
        design, "uniform", observation=Observation(),
        stage_profile=StageProfile(),
    )
    plain = runner.run_unicast(design, "uniform", observation=Observation())
    assert profiled.stats.digest() == plain.stats.digest()
