"""The paper's contribution: the adaptable RF-I-enabled NoC.

* :mod:`repro.core.overlay` — band-to-shortcut tuning over access points;
* :mod:`repro.core.reconfig` — per-application select/tune/update flow;
* :mod:`repro.core.architectures` — factories for every design point the
  evaluation compares (baseline, static, wire, adaptive, adaptive+multicast).
"""

from repro.core.architectures import (
    DesignPoint, adaptive_rf, adaptive_rf_multicast, baseline, static_rf,
    wire_static,
)
from repro.core.online import PhasedSource
from repro.core.overlay import OverlayReport, RFIOverlay
from repro.core.reconfig import (
    TUNING_CYCLES, ReconfigurationController, ReconfigurationPlan,
)

__all__ = [
    "DesignPoint",
    "PhasedSource",
    "OverlayReport",
    "RFIOverlay",
    "ReconfigurationController",
    "ReconfigurationPlan",
    "TUNING_CYCLES",
    "adaptive_rf",
    "adaptive_rf_multicast",
    "baseline",
    "static_rf",
    "wire_static",
]
