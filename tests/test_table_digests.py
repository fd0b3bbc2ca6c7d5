"""Bit-for-bit pins on the routing tables of every first-party provider.

For mesh, torus and cmesh — each intact and each with one link fault plus
one router fault, all carrying a shortcut set — the full
``(port, dist, mesh_port, escape_port)`` table over every ordered pair of
live routers is hashed and compared against ``tests/data/table_digests.json``.
Any change to adjacency order, BFS tie-breaks, the mesh-only fallback or
the escape tree shows up here as a digest mismatch.

Regenerate (only when a table change is intended) with::

    PYTHONPATH=src python tests/test_table_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.noc import RoutingTables, Shortcut
from repro.noc.topology import build_topology
from repro.params import TopologyParams

GOLDEN = Path(__file__).parent / "data" / "table_digests.json"

#: Per provider: shortcuts as (x, y) -> (x, y), one failed link as two
#: adjacent (x, y) routers, one failed router (x, y).  No shortcut touches
#: the failed router and neither fault partitions the graph.
CASES = {
    "mesh": {
        "shortcuts": [((1, 1), (8, 8)), ((8, 1), (1, 8)), ((0, 5), (9, 5)),
                      ((8, 8), (2, 2))],
        "link": ((4, 4), (5, 4)),
        "router": (6, 2),
    },
    "torus": {
        "shortcuts": [((1, 1), (5, 5)), ((8, 1), (3, 6)), ((0, 5), (5, 0))],
        "link": ((0, 0), (9, 0)),
        "router": (4, 7),
    },
    "cmesh": {
        "shortcuts": [((0, 0), (4, 4)), ((4, 0), (0, 4)), ((2, 2), (0, 0))],
        "link": ((1, 1), (1, 2)),
        "router": (3, 1),
    },
}


def _tables(name: str, faulted: bool) -> RoutingTables:
    topo = build_topology(TopologyParams(), provider=name)
    case = CASES[name]
    rid = lambda xy: topo.router_id(*xy)
    shortcuts = [Shortcut(rid(a), rid(b)) for a, b in case["shortcuts"]]
    if not faulted:
        return RoutingTables(topo, shortcuts)
    a, b = case["link"]
    return RoutingTables(
        topo, shortcuts,
        failed_links=[(rid(a), rid(b))],
        failed_routers=[rid(case["router"])],
    )


def table_digest(tables: RoutingTables) -> str:
    """SHA-256 over every live ordered pair's four table entries."""
    h = hashlib.sha256()
    for cur in tables.alive_routers:
        for dst in tables.alive_routers:
            row = (
                tables.port_for(cur, dst),
                tables.distance(cur, dst),
                tables.mesh_port_for(cur, dst),
                tables.escape_port_for(cur, dst),
            )
            h.update(f"{cur},{dst}:{row}\n".encode("ascii"))
    return h.hexdigest()


def _keys() -> list[str]:
    return [f"{name}/{'faulted' if f else 'intact'}"
            for name in CASES for f in (False, True)]


@pytest.mark.parametrize("key", _keys())
def test_table_digest_pinned(key):
    name, state = key.split("/")
    expected = json.loads(GOLDEN.read_text())[key]
    assert table_digest(_tables(name, state == "faulted")) == expected


if __name__ == "__main__":
    digests = {}
    for key in _keys():
        name, state = key.split("/")
        digests[key] = table_digest(_tables(name, state == "faulted"))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(json.dumps(digests, indent=1, sort_keys=True))
