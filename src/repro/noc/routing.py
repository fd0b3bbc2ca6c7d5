"""Routing for a topology-provider substrate and its RF-I overlay.

Three unicast algorithms are provided:

* **Minimal routing** — the provider's deterministic minimal-route function
  (:meth:`~repro.noc.topology.base.TopologyProvider.min_port`; the mesh's is
  classic XY dimension order).  When the provider declares
  ``minimal_escape_deadlock_free`` it is also the *escape* route: the paper
  reserves "eight virtual channels that only use conventional mesh links"
  for deadlock handling, which we realize as a Duato-style escape VC class
  routed minimally over mesh ports only.  Providers whose minimal routes
  can cycle (the torus: wraparound rings) instead get a BFS spanning-tree
  escape, built and *proven* acyclic (:meth:`RoutingTables.validate_escape`)
  at construction time — the same machinery the faulted mesh uses.
* **Table routing** — once RF-I shortcuts are overlaid, the paper switches to
  shortest-path routing.  Tables are built by breadth-first search over the
  directed graph of provider links plus shortcut edges, minimizing hop count
  (every hop costs one router pipeline regardless of physical distance, so
  hops are the correct latency proxy).  Ties prefer the RF port — a shortcut
  hop frees mesh links — then the provider's minimal port for determinism.
* **Adaptive table routing** — the HPCA-2008 paper's contention-avoidance:
  at route-computation time, if the preferred next hop is an RF shortcut
  whose transmitter queue is congested, fall back to the best mesh-only next
  hop instead of waiting on the shortcut.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.noc.topology import Port, TopologyProvider
from repro.noc.topology.base import bfs_hops

#: Sentinel port value meaning "deliver to the local component".
EJECT = int(Port.LOCAL)


class DisconnectedMeshError(ValueError):
    """The surviving graph cannot route between every pair of live routers.

    Raised at table-build time when a fault set partitions the mesh (or,
    without faults, when the graph was never strongly connected).  Fault
    schedules that trigger this are *refused* rather than silently producing
    tables with unreachable destinations.
    """


def xy_port(topology: TopologyProvider, cur: int, dst: int) -> int:
    """The provider's minimal next port from ``cur`` toward ``dst``.

    Historically the mesh's closed-form XY computation; now a thin alias
    of :meth:`~repro.noc.topology.base.TopologyProvider.min_port`, which
    the mesh implements as exactly that XY order.
    """
    return topology.min_port(cur, dst)


@dataclass(frozen=True)
class Shortcut:
    """One unidirectional single-cycle RF-I shortcut between two routers."""

    src: int
    dst: int

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("a shortcut must connect two distinct routers")


class RoutingTables:
    """Next-hop tables for shortest-path routing over mesh + shortcuts.

    ``port_for(cur, dst)`` returns the table next hop; ``mesh_port_for``
    returns the best next hop restricted to mesh links (the adaptive
    fallback); ``distance(cur, dst)`` is the hop count of the table route.

    ``failed_links`` (undirected router pairs) and ``failed_routers``
    exclude dead mesh resources: tables route around them, the mesh-only
    fallback is rebuilt by BFS over the surviving links, and the escape
    class switches from XY to spanning-tree routing (see
    :meth:`escape_port_for`).  A fault set that partitions the surviving
    mesh raises :class:`DisconnectedMeshError`.  With no failures the
    tables are bit-identical to the historical behaviour.
    """

    def __init__(
        self,
        topology: TopologyProvider,
        shortcuts: Sequence[Shortcut] = (),
        *,
        failed_links: Iterable[tuple[int, int]] = (),
        failed_routers: Iterable[int] = (),
    ):
        self.topology = topology
        self.shortcuts = list(shortcuts)
        self.failed_routers = frozenset(failed_routers)
        # Link faults kill both directed channels of the mesh link.
        self.failed_links = frozenset(
            pair for a, b in failed_links for pair in ((a, b), (b, a))
        )
        self.faulted = bool(self.failed_links or self.failed_routers)
        self._rf_next: dict[int, int] = {}
        for sc in self.shortcuts:
            if sc.src in self._rf_next:
                raise ValueError(f"router {sc.src} already has an outbound shortcut")
            if sc.src in self.failed_routers or sc.dst in self.failed_routers:
                raise ValueError(
                    f"shortcut {sc.src}->{sc.dst} touches a failed router; "
                    "drop it from the overlay before building tables"
                )
            self._rf_next[sc.src] = sc.dst
        n = topology.num_routers
        self.alive_routers = tuple(
            r for r in range(n) if r not in self.failed_routers
        )
        # The surviving provider graph, ``(port, neighbor)`` per router in
        # provider order; every table, tree and proof below reads it.
        self._live = tuple(
            tuple((port, m) for port, m in adj if self.link_alive(r, m))
            for r, adj in enumerate(topology.adjacency)
        ) if self.faulted else topology.adjacency
        self._dist: list[list[int]] = [[0] * n for _ in range(n)]
        self._port: list[list[int]] = [[EJECT] * n for _ in range(n)]
        self._mesh_port: list[list[int]] = []
        self._escape_port: list[list[int]] = []
        # The escape class follows the provider's minimal route only when
        # that route is itself deadlock-free on the *intact* graph (the
        # mesh's XY); faults, or a provider that disclaims it (the torus),
        # switch the escape to a proven spanning tree.
        self._tree_escape = self.faulted or not topology.minimal_escape_deadlock_free
        self._build()
        if self.faulted:
            self._build_mesh_tables()
        if self._tree_escape:
            self._build_escape_tree()
            self.validate_escape()

    # -- construction --------------------------------------------------

    def link_alive(self, a: int, b: int) -> bool:
        """Is the directed mesh channel ``a -> b`` usable?"""
        return (
            a not in self.failed_routers
            and b not in self.failed_routers
            and (a, b) not in self.failed_links
        )

    def _build(self) -> None:
        """Per-destination reverse BFS filling distance and next-hop tables."""
        # For each router, ``(port-out-of-pred, predecessor)`` over live
        # links and shortcuts.
        radj: list[list[tuple[int, int]]] = [[] for _ in self._live]
        for r, adj in enumerate(self._live):
            for port, neighbor in adj:
                radj[neighbor].append((port, r))
        for sc in self.shortcuts:
            radj[sc.dst].append((int(Port.RF), sc.src))
        for dst in self.alive_routers:
            dist = bfs_hops(radj, dst)
            if any(dist[r] < 0 for r in self.alive_routers):
                if self.faulted:
                    raise DisconnectedMeshError(
                        "fault set partitions the mesh: "
                        f"router {dst} is unreachable from some live router"
                    )
                raise DisconnectedMeshError(
                    "network graph is not strongly connected"
                )
            for cur in self.alive_routers:
                self._dist[cur][dst] = dist[cur]
                if cur == dst:
                    self._port[cur][dst] = EJECT
                    continue
                self._port[cur][dst] = self._best_port(cur, dst, dist)

    def _build_mesh_tables(self) -> None:
        """Mesh-only next-hop tables by BFS over surviving links.

        Only built when faulted: on the intact grid the mesh-optimal next
        hop is the provider's closed-form minimal port, so no table is
        needed.  Ties prefer the minimal port for determinism (matching
        the unfaulted behaviour wherever it is still alive).
        """
        n = self.topology.num_routers
        self._mesh_port = [[EJECT] * n for _ in range(n)]
        for dst in self.alive_routers:
            # Live links are bidirectional: forward BFS gives hops to dst.
            dist = bfs_hops(self._live, dst)
            for cur in self.alive_routers:
                if cur == dst:
                    continue
                xy = xy_port(self.topology, cur, dst)
                best_key, best_port = None, -1
                for port, nxt in self._live[cur]:
                    if dist[nxt] < 0:
                        continue
                    key = (dist[nxt], 0 if port == xy else 1, port)
                    if best_key is None or key < best_key:
                        best_key, best_port = key, port
                self._mesh_port[cur][dst] = best_port

    def _build_escape_tree(self) -> None:
        """Escape routing over a BFS spanning tree of the surviving mesh.

        XY routing is only deadlock-free on the intact grid; once links or
        routers die, an XY route can be blocked or forced into a turn
        pattern whose channel-dependency graph cycles.  Routing *on a
        spanning tree* (up toward the common ancestor, then down) is
        deadlock-free on any connected graph: tree channels admit no
        cyclic dependency because the tree has no cycles — the classic
        up*/down* argument with a single up/down phase per route.
        """
        n = self.topology.num_routers
        root = self.alive_routers[0]
        in_tree = {root}
        # Tree edges as (port, neighbor, the neighbor's port back).
        tree_adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for port, nbr in self._live[v]:
                if nbr in in_tree:
                    continue
                in_tree.add(nbr)
                back = next(p for p, m in self._live[nbr] if m == v)
                tree_adj[v].append((port, nbr, back))
                tree_adj[nbr].append((back, v, port))
                queue.append(nbr)
        self._escape_port = [[EJECT] * n for _ in range(n)]
        for dst in self.alive_routers:
            towards = [-1] * n
            queue = deque([dst])
            seen = {dst}
            while queue:
                v = queue.popleft()
                for _, nbr, back in tree_adj[v]:
                    if nbr in seen:
                        continue
                    seen.add(nbr)
                    # nbr reaches dst through v: its port toward v.
                    towards[nbr] = back
                    queue.append(nbr)
            for cur in self.alive_routers:
                if cur != dst:
                    self._escape_port[cur][dst] = towards[cur]

    def _best_port(self, cur: int, dst: int, dist: list[int]) -> int:
        """Choose the outgoing port that makes the most shortest-path progress.

        Preference among ties: RF shortcut first (it frees mesh links and is
        the medium the overlay exists to use), then the XY-dimension-ordered
        mesh port for determinism.
        """
        best_port = -1
        best = (dist[cur], 3)  # (resulting distance, preference rank)
        candidates: list[tuple[int, int, int]] = []  # (port, next, rank)
        rf_next = self._rf_next.get(cur)
        if rf_next is not None:
            candidates.append((int(Port.RF), rf_next, 0))
        xy = xy_port(self.topology, cur, dst)
        for port, neighbor in self._live[cur]:
            candidates.append((port, neighbor, 1 if port == xy else 2))
        for port, nxt, rank in candidates:
            key = (dist[nxt], rank)
            if key < best:
                best = key
                best_port = port
        if best_port < 0 or best[0] >= dist[cur]:
            raise AssertionError(f"no progress from {cur} toward {dst}")
        return best_port

    # -- queries ---------------------------------------------------------

    def port_for(self, cur: int, dst: int) -> int:
        """Table (shortest-path) next port from ``cur`` toward ``dst``."""
        return self._port[cur][dst]

    def mesh_port_for(self, cur: int, dst: int) -> int:
        """Best mesh-only next port (the adaptive fallback).

        On the intact graph this is the provider's minimal port (the
        mesh's XY): always a shortest *mesh* path.  With failed
        links/routers it is the BFS next hop over surviving mesh links
        (ties prefer the minimal port).
        """
        if not self.faulted:
            return xy_port(self.topology, cur, dst)
        return self._mesh_port[cur][dst]

    def escape_port_for(self, cur: int, dst: int) -> int:
        """Deadlock-free escape next port (mesh links only).

        The provider's minimal route on an intact graph that declares
        ``minimal_escape_deadlock_free`` (the mesh's XY); spanning-tree
        routing otherwise — under faults, or on providers like the torus
        whose minimal routes can cycle (see :meth:`_build_escape_tree`
        for the deadlock-freedom argument).
        """
        if not self._tree_escape:
            return xy_port(self.topology, cur, dst)
        return self._escape_port[cur][dst]

    def distance(self, cur: int, dst: int) -> int:
        """Hop count of the table route from ``cur`` to ``dst``."""
        return self._dist[cur][dst]

    def rf_destination(self, router: int) -> int | None:
        """Where this router's RF transmitter currently points, if anywhere."""
        return self._rf_next.get(router)

    def average_distance(self) -> float:
        """Mean shortest-path hop count over all ordered live router pairs."""
        alive = self.alive_routers
        total = sum(self._dist[a][b] for a in alive for b in alive if a != b)
        return total / (len(alive) * (len(alive) - 1))

    # -- validation ------------------------------------------------------

    def validate_escape(self) -> None:
        """Prove the escape class deadlock-free and complete.

        Two checks, over every ordered pair of live routers:

        * **termination** — following :meth:`escape_port_for` from ``cur``
          reaches ``dst`` within ``n`` hops using only live mesh links;
        * **acyclicity** — the channel-dependency graph induced by all
          escape routes (edges between consecutive directed links of any
          route) has no cycle, the Dally–Seitz condition for the escape
          VC class to break any deadlock.

        Raises :class:`DisconnectedMeshError` on either violation.  Called
        automatically when tables are built with faults; cheap enough to
        call directly in tests for the unfaulted minimal escape too.
        """
        n = self.topology.num_routers
        live_port = [dict(adj) for adj in self._live]
        deps: dict[tuple[int, int], set[tuple[int, int]]] = {}
        for src in self.alive_routers:
            for dst in self.alive_routers:
                if src == dst:
                    continue
                cur, prev_link = src, None
                for _ in range(n):
                    port = self.escape_port_for(cur, dst)
                    if port == EJECT:
                        break
                    nxt = live_port[cur].get(port)
                    if nxt is None:
                        raise DisconnectedMeshError(
                            f"escape route {src}->{dst} uses dead port "
                            f"{port} at router {cur}"
                        )
                    link = (cur, nxt)
                    if prev_link is not None:
                        deps.setdefault(prev_link, set()).add(link)
                    prev_link, cur = link, nxt
                if cur != dst:
                    raise DisconnectedMeshError(
                        f"escape route {src}->{dst} does not terminate"
                    )
        self._check_acyclic(deps)

    @staticmethod
    def _check_acyclic(deps: dict) -> None:
        """Depth-first cycle detection over the channel-dependency graph."""
        WHITE, GREY, BLACK = 0, 1, 2
        color: dict[tuple[int, int], int] = {}
        for start in deps:
            if color.get(start, WHITE) != WHITE:
                continue
            stack = [(start, iter(deps.get(start, ())))]
            color[start] = GREY
            while stack:
                node, it = stack[-1]
                advanced = False
                for succ in it:
                    c = color.get(succ, WHITE)
                    if c == GREY:
                        raise DisconnectedMeshError(
                            "escape channel-dependency graph has a cycle "
                            f"through link {succ}"
                        )
                    if c == WHITE:
                        color[succ] = GREY
                        stack.append((succ, iter(deps.get(succ, ()))))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()


@dataclass(frozen=True)
class RoutingPolicy:
    """How route computation behaves at simulation time.

    ``adaptive`` enables the HPCA-2008 congestion fallback as a cost
    comparison at route-computation time: a packet skips a selected RF
    shortcut when the estimated transmitter wait (queued flits over the
    shortcut's drain rate, plus ``rf_congestion_threshold`` when no VC is
    free) exceeds the mesh-detour cost (``detour_cycles_per_hop`` per hop
    the shortcut would have saved).  Marginal flows divert first, which is
    what relieves shortcut contention.  ``escape_timeout`` is how many
    cycles a head flit may stall in VC allocation before being diverted to
    the escape (XY, mesh-only) VC class.
    """

    adaptive: bool = False
    rf_congestion_threshold: int = 8
    detour_cycles_per_hop: int = 4
    escape_timeout: int = 16
