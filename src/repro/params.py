"""Architecture and technology parameters for the RF-I NoC reproduction.

Every number that appears in the paper's "Network Simulation Parameters"
table (Fig 5a), its RF-I technology description (Section 2), or its power
model (Fig 6a) lives here, in one frozen dataclass per concern.  All other
modules import these instead of hard-coding constants, so a single edit
re-parameterizes the whole system (e.g. a smaller mesh for tests).

Sources
-------
* Mesh geometry, clocks, message sizes: Fig 5a of the follow-on text and
  Section 3.1 (identical baseline to the HPCA-2008 paper).
* RF-I physical constants: Section 2 / Section 4.3 (96 Gbps per line,
  0.75 pJ/bit, 124 um^2/Gbps, 0.3 ns across a 400 mm^2 die).
* 32 nm electrical parameters: Fig 6a as cited; values here follow ITRS-era
  32 nm projections and are calibration points, not measurements.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class TopologyParams:
    """Geometry, clocking, and substrate of the CMP floorplan (Section 3.1).

    ``width`` x ``height`` is the *logical* component grid (100 tiles in the
    paper's baseline); ``provider`` names the registered topology provider
    (:mod:`repro.noc.topology`) that realizes it as a router graph.  The
    default ``"mesh"`` provider places one router per tile; the
    ``"cmesh"`` provider collapses ``concentration`` x ``concentration``
    tiles onto each router; ``"torus"`` adds wraparound links.  Providers
    other than the mesh may therefore expose fewer routers than
    :attr:`num_routers` — simulation code must ask the *provider* for its
    router-grid geometry, not these params.
    """

    width: int = 10
    height: int = 10
    num_cores: int = 64
    num_caches: int = 32
    num_memports: int = 4
    link_bytes: int = 16          # inter-router link width (16B baseline; 8B/4B variants)
    network_ghz: float = 2.0      # NoC clock
    core_ghz: float = 4.0         # core / cache clock
    die_area_mm2: float = 400.0   # 20 mm x 20 mm die
    cache_clusters: int = 4       # one cluster of 8 banks per quadrant
    #: Registered topology provider realizing this floorplan ("mesh" /
    #: "cmesh" / "torus" / any :func:`repro.noc.topology.register` name).
    #: Stripped from job digests when it equals the default, so every
    #: pre-provider store address stays valid.
    provider: str = "mesh"
    #: Concentration factor for concentrated providers: each router hosts a
    #: ``concentration x concentration`` tile of components.  Ignored (and
    #: digest-stripped) under the plain mesh provider.
    concentration: int = 2

    @property
    def num_routers(self) -> int:
        """Logical grid tiles (width x height).

        Equals the router count only under one-router-per-tile providers;
        concentrated providers expose their own smaller ``num_routers``.
        """
        return self.width * self.height

    @property
    def router_spacing_mm(self) -> float:
        """Distance between adjacent logical tiles (die edge / grid width)."""
        edge_mm = self.die_area_mm2 ** 0.5
        return edge_mm / self.width

    def scaled(self, **overrides) -> "TopologyParams":
        """Return a copy with selected fields replaced (for small test meshes)."""
        return dataclasses.replace(self, **overrides)


#: Backward-compatible name: the mesh was the only substrate before the
#: provider layer existed, and every persisted digest/blob keys on the
#: ``mesh`` field name.
MeshParams = TopologyParams


@dataclass(frozen=True)
class RouterParams:
    """Microarchitecture of a mesh router (Section 3.1).

    The paper's 5-cycle pipeline is route-computation (RC), virtual-channel
    allocation (VA), switch allocation (SA), switch traversal (ST) and link
    traversal (LT).  Only head flits pay RC and VA; body/tail flits inherit
    the head's route and VC and pay 3 cycles (SA, ST, LT).
    """

    num_vcs: int = 4              # message virtual channels per input port
    num_escape_vcs: int = 2       # reserved deadlock-escape VCs (mesh links only)
    vc_buffer_flits: int = 4      # buffer depth per VC
    pipeline_head_cycles: int = 5
    pipeline_body_cycles: int = 3

    @property
    def total_vcs(self) -> int:
        """Message VCs plus escape VCs per input port."""
        return self.num_vcs + self.num_escape_vcs


@dataclass(frozen=True)
class MessageParams:
    """Network message sizes in bytes (Section 4.1).

    Requests travel core->cache (or core->core), data messages carry a cache
    block payload, and memory messages move whole blocks between cache banks
    and the memory controllers.
    """

    request_bytes: int = 7
    data_bytes: int = 39
    memory_bytes: int = 132
    dbv_bits: int = 64            # multicast destination-bit-vector width


@dataclass(frozen=True)
class RFIParams:
    """RF-I transmission-line bundle and shortcut budget (Sections 2, 3.2).

    The aggregate RF-I bandwidth is fixed at 256 B per network cycle
    (4096 Gbps at 2 GHz), carried by 43 parallel transmission lines of
    96 Gbps each.  The paper then allocates this as 16 unidirectional 16 B
    shortcuts (budget B = 16).
    """

    aggregate_bytes_per_cycle: int = 256
    line_gbps: float = 96.0
    shortcut_bytes: int = 16
    energy_pj_per_bit: float = 0.75
    area_um2_per_gbps: float = 124.0
    cross_chip_latency_cycles: int = 1   # 0.3 ns over 400 mm^2 < one 2 GHz cycle
    max_inbound_per_router: int = 1      # 6-port router limit
    max_outbound_per_router: int = 1

    @property
    def num_lines(self) -> int:
        """Transmission lines needed for the aggregate bandwidth (43 in the paper)."""
        gbps = self.aggregate_bytes_per_cycle * 8 * 2.0  # 2 GHz network clock
        return -(-int(gbps) // int(self.line_gbps))      # ceil

    @property
    def shortcut_budget(self) -> int:
        """Number of 16 B unidirectional shortcuts the aggregate bandwidth funds."""
        return self.aggregate_bytes_per_cycle // self.shortcut_bytes


@dataclass(frozen=True)
class TechnologyParams:
    """32 nm electrical parameters used by the power model (Fig 6a).

    Symbols follow the paper: ``vdd`` supply voltage, ``c0`` input capacitance
    of a minimum-size repeater, ``cp`` its output parasitic capacitance,
    ``cwire`` wire capacitance per unit length, ``r0`` minimum repeater output
    resistance, ``rwire`` wire resistance per unit length, ``ioff``
    subthreshold leakage of a minimum device, and ``wmin`` minimum repeater
    width.  Values are ITRS-class 32 nm projections.
    """

    node_nm: int = 32
    vdd: float = 0.9                      # V
    c0_ff: float = 0.6                    # fF, min repeater input cap
    cp_ff: float = 0.3                    # fF, min repeater parasitic cap
    cwire_ff_per_mm: float = 200.0        # fF/mm
    r0_kohm: float = 6.0                  # kOhm, min repeater resistance
    rwire_ohm_per_mm: float = 1200.0      # Ohm/mm
    ioff_na_per_um: float = 100.0         # nA/um leakage per device width
    wmin_um: float = 0.05                 # um, minimum repeater width
    network_ghz: float = 2.0


@dataclass(frozen=True)
class SimulationParams:
    """Run lengths and measurement windows.

    The paper runs probabilistic traces for one million network cycles and
    application traces for up to 500 million.  Average latency and power are
    steady-state intensive metrics, so this pure-Python reproduction defaults
    to much shorter warmed-up windows; both are configurable.
    """

    warmup_cycles: int = 1_000
    measure_cycles: int = 10_000
    drain_cycles: int = 20_000   # extra cycles allowed for in-flight packets
    seed: int = 2008
    #: Cycle-level event tracing (repro.obs): off by default — when on, the
    #: simulator attaches an Observation and fills its bounded ring buffer.
    trace_events: bool = False
    trace_buffer_events: int = 65_536
    #: Cycle-kernel request (``"batch"`` / ``"reference"``); ``None`` keeps
    #: whatever kernel the network was built with.  Purely an execution
    #: strategy — both kernels are bit-identical — so this field is
    #: excluded from result/job digests (a kernel choice must never fork
    #: the result cache).
    kernel: "str | None" = None


@dataclass(frozen=True)
class ArchitectureParams:
    """Bundle of all parameter groups describing one NoC design point.

    The ``mesh`` field holds the :class:`TopologyParams` (the name predates
    the provider layer and is kept because persisted job digests key on it);
    :attr:`topology` is the readable alias.
    """

    mesh: TopologyParams = TopologyParams()
    router: RouterParams = RouterParams()
    message: MessageParams = MessageParams()
    rfi: RFIParams = RFIParams()
    technology: TechnologyParams = TechnologyParams()
    simulation: SimulationParams = SimulationParams()

    @property
    def topology(self) -> TopologyParams:
        """The substrate parameters (alias of the legacy ``mesh`` field)."""
        return self.mesh

    def with_link_bytes(self, link_bytes: int) -> "ArchitectureParams":
        """A copy of this design with a different mesh link width (16/8/4 B)."""
        return dataclasses.replace(self, mesh=self.mesh.scaled(link_bytes=link_bytes))

    def with_topology(
        self, provider: "str | None" = None, **overrides
    ) -> "ArchitectureParams":
        """A copy with topology fields replaced.

        ``provider`` selects a registered topology provider (e.g.
        ``"torus"``, ``"cmesh"``); keyword overrides replace any other
        :class:`TopologyParams` field (``with_topology(width=4, height=4)``
        builds the small test meshes).
        """
        if provider is not None:
            overrides["provider"] = provider
        return dataclasses.replace(self, mesh=self.mesh.scaled(**overrides))


DEFAULT_PARAMS = ArchitectureParams()
