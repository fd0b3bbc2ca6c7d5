"""Pluggable simulation kernels for the RF-I NoC cycle engine.

A :class:`~repro.noc.kernel.base.SimKernel` owns the per-cycle event
state (arrival/ejection wheels) and executes the pipeline stages against
a :class:`~repro.noc.network.Network`, which retains topology, wiring,
and the injection API.  Two kernels ship:

* ``reference`` — the original loop, stage by stage, with internal
  assertions.  The correctness oracle.
* ``batch`` (default) — struct-of-arrays state with stage-bulk scans
  over active-index vectors; the production engine, bit-identical to
  the oracle by contract, enforced by the differential suite in
  ``tests/test_kernel_equiv.py``.

The registry is public: ``register(name, factory, capabilities={...})``
adds a kernel, declaring which features it can execute (see
:data:`~repro.noc.kernel.base.CAPABILITIES`); selection goes through
:func:`~repro.noc.kernel.base.resolve_kernel` and fails fast via
:func:`~repro.noc.kernel.base.require_capabilities` when a run needs
more than the chosen kernel declares.
"""

from repro.noc.kernel.base import (
    CAPABILITIES,
    DEFAULT_KERNEL,
    KERNELS,
    KernelCapabilityError,
    KernelSpec,
    SimKernel,
    get_kernel,
    get_spec,
    kernel_capabilities,
    list_kernels,
    register,
    require_capabilities,
    required_capabilities,
    resolve_kernel,
    unregister,
)
from repro.noc.kernel.batch import BatchKernel
from repro.noc.kernel.reference import ReferenceKernel

__all__ = [
    "CAPABILITIES",
    "DEFAULT_KERNEL",
    "KERNELS",
    "KernelCapabilityError",
    "KernelSpec",
    "SimKernel",
    "ReferenceKernel",
    "BatchKernel",
    "get_kernel",
    "get_spec",
    "kernel_capabilities",
    "list_kernels",
    "register",
    "require_capabilities",
    "required_capabilities",
    "resolve_kernel",
    "unregister",
]
