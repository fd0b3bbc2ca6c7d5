"""Closed-loop load generator: at most two keep-alive connections.

Each connection is one thread with its own ``ServeClient`` sockets; it
sends its next ``POST /v1/simulate`` only when the previous reply has
arrived, because that is how the serve tier's real callers
(``ServeClient``, ``campaign --via-serve``) behave.  Nothing is retried:
a 429, 503, 5xx or transport error is one failed request.

The request order is made here from a seeded generator; the server only
ever sees the requests.  Also runs stand-alone against a running server::

    PYTHONPATH=src python benchmarks/e2e/loadgen.py --port 8032 \
        --requests 1000 [--connections 2] [--seed 1]

(the ``__main__`` guard matters: the serve tier's ``JobExecutor`` uses
the spawn start method, which re-imports the main module).
"""

from __future__ import annotations

import argparse
import random
import statistics
import threading
import time
from dataclasses import dataclass, field

from repro.serve import ServeClient, ServeClientError

MAX_CONNECTIONS = 2


@dataclass
class Exchange:
    """One request as the client saw it."""

    cell: int
    start: float
    end: float
    status: int              # 0: transport error
    payload: dict


@dataclass
class Phase:
    """Everything one closed-loop phase sent and got back."""

    name: str
    wall_s: float = 0.0
    exchanges: list = field(default_factory=list)   # per connection, in order
    connections_opened: int = 0

    @property
    def flat(self) -> list:
        return [x for conn in self.exchanges for x in conn]

    @property
    def sent(self) -> int:
        return len(self.flat)

    @property
    def failed(self) -> int:
        return sum(1 for x in self.flat if x.status != 200)

    @property
    def rtt_ms(self) -> list:
        return [(x.end - x.start) * 1e3 for x in self.flat
                if x.status == 200]

    def summary(self) -> str:
        rtt = self.rtt_ms
        p50 = f"{statistics.median(rtt):.2f} ms" if rtt else "n/a"
        return (f"{self.name}: sent {self.sent}, succeeded "
                f"{self.sent - self.failed}, failed {self.failed}, "
                f"wall {self.wall_s:.2f} s, p50 {p50}")


def request_orders(rng: random.Random, cells: int, connections: int,
                   per_connection: int, cover: bool = False) -> list:
    """Seeded cell indices per connection, drawn uniformly.

    ``cover`` makes the phase start with every cell exactly once (spread
    over the connections, shuffled), so a warm-up provably touches the
    whole working set.
    """
    orders = [[] for _ in range(connections)]
    if cover:
        first = list(range(cells))
        rng.shuffle(first)
        for i, cell in enumerate(first):
            orders[i % connections].append(cell)
    for order in orders:
        while len(order) < per_connection:
            order.append(rng.randrange(cells))
    return orders


def drive(name: str, bodies: list, orders: list, port,
          host: str = "127.0.0.1") -> Phase:
    """Run one closed-loop phase; ``orders`` has one list per connection.

    ``port`` is one port, or a function ``cell index -> port`` (requests
    sent straight to each cell's shard); a connection keeps one
    keep-alive socket per port it talks to.
    """
    if len(orders) > MAX_CONNECTIONS:
        raise ValueError(f"at most {MAX_CONNECTIONS} connections")
    pick = port if callable(port) else (lambda cell: port)
    phase = Phase(name, exchanges=[[] for _ in orders])
    barrier = threading.Barrier(len(orders) + 1)
    clients: list = []

    def connection(index: int) -> None:
        mine: dict = {}
        log = phase.exchanges[index]
        barrier.wait()
        for cell in orders[index]:
            target = pick(cell)
            client = mine.get(target)
            if client is None:
                client = mine[target] = ServeClient(host, target,
                                                    timeout=60.0)
                clients.append(client)
            start = time.perf_counter()
            try:
                response = client.simulate(**bodies[cell])
                status, payload = response.status, response.payload
            except ServeClientError as exc:
                status, payload = 0, {"error": str(exc)}
            log.append(Exchange(cell, start, time.perf_counter(), status,
                                payload))

    threads = [threading.Thread(target=connection, args=(i,), daemon=True)
               for i in range(len(orders))]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    phase.wall_s = time.perf_counter() - start
    for client in clients:
        phase.connections_opened += client.connections_opened
        client.close()
    print(phase.summary())
    return phase


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8032)
    parser.add_argument("--requests", type=int, default=1000,
                        help="requests per connection")
    parser.add_argument("--connections", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    bodies = [{"design": design, "workload": workload, "width": width}
              for design in ("baseline", "static")
              for workload in ("uniform", "1Hotspot")
              for width in (16, 8)]
    orders = request_orders(random.Random(args.seed), len(bodies),
                            args.connections, args.requests)
    phase = drive("loadgen", bodies, orders, args.port, args.host)
    return 1 if phase.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
