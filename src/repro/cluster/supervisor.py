"""Worker lifecycle for the sharded serve tier: spawn, probe, restart.

Three pieces, smallest first:

* :class:`WorkerHandle` — one serve worker the cluster owns.  Two
  backings share one interface: a **subprocess** running ``repro serve``
  (what ``repro serve --workers N`` uses — real process isolation, can
  be SIGKILLed and restarted), or an **in-process**
  :class:`~repro.serve.http.ServerThread` (what tests and the benchmark
  harness use — ephemeral ports, no spawn latency).
* :class:`WorkerSupervisor` — a monitor thread that probes every
  worker's ``/healthz`` each poll interval and drives the router's
  shard states: healthy → ``up``; probe failed or self-reported
  draining → ``draining`` (new keys remap to ring successors while
  anything in flight settles); process exited → ``down`` + restart with
  exponential backoff.  All router-state changes cross into the router's
  event loop via
  :meth:`~repro.cluster.router.ClusterRouter.set_shard_state_threadsafe`.
* :class:`Cluster` — the composition ``repro serve --workers N`` runs:
  N workers on successive ports, each with a private result-store
  directory over one **shared read-through tier** (a warm result
  computed by any shard serves every shard), one
  :class:`~repro.cluster.router.ClusterRouter` front door, one
  supervisor.  ``start()`` returns the router's port.

Worker stores live under one cache root::

    <root>/shared/    read-through tier every shard mirrors into
    <root>/shard-0/   shard-0's private store (its ring keys stay warm)
    <root>/shard-1/   ...
    <root>/shard-0.log  subprocess worker stdout+stderr (process mode)
"""

from __future__ import annotations

import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Optional

from repro.experiments.config import ExperimentConfig, resolve_config
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.http import ServerThread
from repro.serve.service import SimulationService
from repro.cluster.ring import DEFAULT_VNODES
from repro.cluster.router import ClusterRouter, RouterThread, Shard


def free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free TCP port (bind :0, read, release)."""
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def probe_health(host: str, port: int,
                 timeout: float = 2.0) -> Optional[dict]:
    """One blocking ``GET /healthz``; None when unreachable/unparseable."""
    with ServeClient(host, port, timeout=timeout) as client:
        try:
            response = client.health()
        except ServeClientError:
            return None
    return response.payload if response.status == 200 else None


class WorkerHandle:
    """One serve worker: a subprocess (``argv``) or a thread
    (``service_factory``), exactly one of which must be given."""

    def __init__(self, shard_id: str, *, host: str = "127.0.0.1",
                 port: int = 0, argv: Optional[list[str]] = None,
                 service_factory: Optional[
                     Callable[[], SimulationService]] = None,
                 log_path: Optional[Path] = None,
                 env: Optional[dict] = None):
        if (argv is None) == (service_factory is None):
            raise ValueError("give exactly one of argv / service_factory")
        if argv is not None and port == 0:
            raise ValueError("subprocess workers need an explicit port")
        self.shard_id = shard_id
        self.host = host
        self.port = port
        self.argv = argv
        self.service_factory = service_factory
        self.log_path = Path(log_path) if log_path else None
        self.env = env
        self.restarts = 0
        self._proc: Optional[subprocess.Popen] = None
        self._thread: Optional[ServerThread] = None

    @property
    def pid(self) -> Optional[int]:
        return self._proc.pid if self._proc is not None else None

    def start(self) -> int:
        """Start (or restart) the worker; returns its bound port."""
        if self.argv is not None:
            # A serve worker runs a ProcessPoolExecutor whose children
            # inherit its listening socket; if any survived the previous
            # incarnation they hold the port (EADDRINUSE on restart) and
            # half-open connections.  Each worker therefore gets its own
            # process group (start_new_session) and a restart sweeps the
            # old group first.
            self._sweep_group()
            log = (open(self.log_path, "ab")
                   if self.log_path is not None else subprocess.DEVNULL)
            try:
                self._proc = subprocess.Popen(
                    self.argv, stdout=log, stderr=subprocess.STDOUT,
                    env=self.env, start_new_session=True,
                )
            finally:
                if log is not subprocess.DEVNULL:
                    log.close()
        else:
            # Restarts rebind the original ephemeral port so the
            # router's shard address stays valid.
            self._thread = ServerThread(self.service_factory(),
                                        host=self.host, port=self.port)
            self.port = self._thread.start()
        return self.port

    def alive(self) -> bool:
        if self._proc is not None:
            return self._proc.poll() is None
        if self._thread is not None:
            thread = self._thread._thread
            return thread is not None and thread.is_alive()
        return False

    def _sweep_group(self) -> None:
        """SIGKILL everything left in the worker's process group."""
        if self._proc is None:
            return
        try:
            os.killpg(self._proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError, OSError):
            pass

    def kill(self) -> None:
        """SIGKILL the worker (failure injection in tests/benchmarks)."""
        if self._proc is not None:
            self._sweep_group()
            self._proc.kill()
            self._proc.wait(timeout=10)
        elif self._thread is not None:
            self._thread.stop()

    def stop(self) -> None:
        """Graceful shutdown (terminate, then kill after a grace period)."""
        if self._proc is not None:
            if self._proc.poll() is None:
                self._proc.terminate()
                try:
                    self._proc.wait(timeout=10)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    self._proc.kill()
                    self._proc.wait(timeout=10)
            self._sweep_group()
            self._proc = None
        if self._thread is not None:
            self._thread.stop()
            self._thread = None

    def as_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "host": self.host,
            "port": self.port,
            "mode": "process" if self.argv is not None else "thread",
            "pid": self.pid,
            "alive": self.alive(),
            "restarts": self.restarts,
        }


class WorkerSupervisor:
    """Probe workers, drive router shard states, restart the dead."""

    def __init__(self, workers: list[WorkerHandle], *,
                 router: Optional[ClusterRouter] = None,
                 poll_interval_s: float = 0.5,
                 probe_timeout_s: float = 2.0,
                 restart_backoff_s: float = 0.5,
                 max_restart_backoff_s: float = 10.0):
        self.workers = {worker.shard_id: worker for worker in workers}
        self.router = router
        self.poll_interval_s = poll_interval_s
        self.probe_timeout_s = probe_timeout_s
        self.restart_backoff_s = restart_backoff_s
        self.max_restart_backoff_s = max_restart_backoff_s
        self._backoff = {sid: restart_backoff_s for sid in self.workers}
        self._next_restart = {sid: 0.0 for sid in self.workers}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def attach(self, router: ClusterRouter) -> None:
        self.router = router
        router.status_extra = self.status

    # -- lifecycle ----------------------------------------------------------

    def start_workers(self, ready_timeout_s: float = 60.0) -> None:
        """Start every worker and wait until each answers ``/healthz``."""
        for worker in self.workers.values():
            worker.start()
        deadline = time.monotonic() + ready_timeout_s
        pending = set(self.workers)
        while pending:
            for sid in sorted(pending):
                worker = self.workers[sid]
                if not worker.alive():
                    raise RuntimeError(
                        f"worker {sid} exited during startup"
                        + (f" (log: {worker.log_path})"
                           if worker.log_path else ""))
                if probe_health(worker.host, worker.port,
                                self.probe_timeout_s) is not None:
                    pending.discard(sid)
            if pending and time.monotonic() > deadline:
                raise RuntimeError(
                    f"workers {sorted(pending)} not healthy after "
                    f"{ready_timeout_s:.0f}s")
            if pending:
                time.sleep(0.05)

    def start_monitor(self) -> None:
        self._thread = threading.Thread(target=self._monitor, daemon=True,
                                        name="repro-cluster-supervisor")
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None
        for worker in self.workers.values():
            worker.stop()

    # -- monitoring ---------------------------------------------------------

    def _route_state(self, shard_id: str, state: str,
                     reason: Optional[str] = None) -> None:
        if self.router is not None:
            self.router.set_shard_state_threadsafe(shard_id, state, reason)

    def poll_once(self) -> None:
        """One supervision pass (the monitor loop's body; callable in
        tests without the thread)."""
        now = time.monotonic()
        for sid, worker in self.workers.items():
            if not worker.alive():
                self._route_state(sid, "down", "worker process exited")
                if now >= self._next_restart[sid]:
                    worker.restarts += 1
                    backoff = self._backoff[sid]
                    self._next_restart[sid] = now + backoff
                    self._backoff[sid] = min(backoff * 2,
                                             self.max_restart_backoff_s)
                    try:
                        worker.start()
                    except (OSError, RuntimeError):  # pragma: no cover
                        pass      # retried after the backoff window
                continue
            health = probe_health(worker.host, worker.port,
                                  self.probe_timeout_s)
            if health is None:
                # Alive but not answering: starting up or wedged.  Stop
                # routing new keys here; in-flight work settles on its
                # own connections.
                self._route_state(sid, "draining", "health probe failed")
            elif health.get("status") == "draining":
                self._route_state(sid, "draining", "worker draining")
            else:
                self._route_state(sid, "up")
                self._backoff[sid] = self.restart_backoff_s

    def _monitor(self) -> None:
        while not self._stop.wait(self.poll_interval_s):
            self.poll_once()

    def status(self) -> dict:
        """JSON-safe supervision snapshot (merged into ``/cluster``)."""
        return {
            "poll_interval_s": self.poll_interval_s,
            "workers": {sid: worker.as_dict()
                        for sid, worker in self.workers.items()},
            "restarts": sum(w.restarts for w in self.workers.values()),
        }


class Cluster:
    """N serve workers + consistent-hash router + supervisor, as one unit.

    ``processes=False`` (default) hosts workers as in-process server
    threads — what tests and benchmarks want.  ``processes=True`` spawns
    each worker as a real ``repro serve`` subprocess — what the CLI
    does, and what makes SIGKILL-and-restart supervision meaningful.
    ``cache_root=None`` uses a private temporary directory, removed on
    :meth:`stop`; name a directory to keep the caches warm across runs.
    """

    def __init__(self, workers: int = 2, *,
                 fast: bool = False,
                 config: Optional[ExperimentConfig] = None,
                 processes: bool = False,
                 host: str = "127.0.0.1",
                 router_port: int = 0,
                 worker_ports: Optional[list[int]] = None,
                 cache_root: Optional[str] = None,
                 queue_limit: int = 16,
                 concurrency: int = 2,
                 vnodes: int = DEFAULT_VNODES,
                 ring_seed: int = 0,
                 poll_interval_s: float = 0.5,
                 proxy_timeout_s: float = 600.0,
                 extra_worker_args: Optional[list[str]] = None):
        if workers < 1:
            raise ValueError("a cluster needs at least one worker")
        if worker_ports is not None and len(worker_ports) != workers:
            raise ValueError("worker_ports must name one port per worker")
        self.num_workers = workers
        self.fast = fast
        self.config = resolve_config(config, fast=fast)
        self.processes = processes
        self.host = host
        self.router_port = router_port
        self.worker_ports = worker_ports
        self.queue_limit = queue_limit
        self.concurrency = concurrency
        self.vnodes = vnodes
        self.ring_seed = ring_seed
        self.poll_interval_s = poll_interval_s
        self.proxy_timeout_s = proxy_timeout_s
        self.extra_worker_args = list(extra_worker_args or [])
        self._owns_cache_root = cache_root is None
        self.cache_root = Path(cache_root) if cache_root else None
        self.workers: list[WorkerHandle] = []
        self.supervisor: Optional[WorkerSupervisor] = None
        self.router: Optional[ClusterRouter] = None
        self.router_thread: Optional[RouterThread] = None

    # -- worker construction ------------------------------------------------

    def _worker_argv(self, shard_id: str, port: int,
                     root: Path) -> list[str]:
        argv = [sys.executable, "-m", "repro", "serve",
                "--host", self.host, "--port", str(port),
                "--shard-id", shard_id,
                "--cache", str(root / shard_id),
                "--shared-cache", str(root / "shared"),
                "--queue-limit", str(self.queue_limit),
                "--jobs", str(self.concurrency)]
        if self.fast:
            argv.append("--fast")
        argv.extend(self.extra_worker_args)
        return argv

    def _worker_env(self) -> dict:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        if src not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (src + os.pathsep + existing
                                 if existing else src)
        return env

    def _make_worker(self, index: int, root: Path) -> WorkerHandle:
        shard_id = f"shard-{index}"
        if self.processes:
            port = (self.worker_ports[index] if self.worker_ports
                    else free_port(self.host))
            return WorkerHandle(
                shard_id, host=self.host, port=port,
                argv=self._worker_argv(shard_id, port, root),
                log_path=root / f"{shard_id}.log",
                env=self._worker_env(),
            )
        from repro.exec.store import ResultStore

        config = self.config
        shared_dir = root / "shared"
        queue_limit, concurrency = self.queue_limit, self.concurrency

        def factory(shard_id=shard_id) -> SimulationService:
            return SimulationService(
                config=config,
                store=ResultStore(root / shard_id, shared=shared_dir),
                queue_limit=queue_limit,
                concurrency=concurrency,
                shard_id=shard_id,
            )

        port = self.worker_ports[index] if self.worker_ports else 0
        return WorkerHandle(shard_id, host=self.host, port=port,
                            service_factory=factory)

    # -- lifecycle ----------------------------------------------------------

    def start(self, supervise: bool = True) -> int:
        """Bring the whole tier up; returns the router's port."""
        if self.cache_root is None:
            self.cache_root = Path(
                tempfile.mkdtemp(prefix="repro-cluster-"))
        root = self.cache_root
        root.mkdir(parents=True, exist_ok=True)
        (root / "shared").mkdir(exist_ok=True)
        self.workers = [self._make_worker(i, root)
                        for i in range(self.num_workers)]
        self.supervisor = WorkerSupervisor(
            self.workers, poll_interval_s=self.poll_interval_s)
        self.supervisor.start_workers()
        self.router = ClusterRouter(
            [Shard(w.shard_id, w.host, w.port) for w in self.workers],
            config=self.config,
            vnodes=self.vnodes,
            ring_seed=self.ring_seed,
            proxy_timeout_s=self.proxy_timeout_s,
        )
        self.supervisor.attach(self.router)
        self.router_thread = RouterThread(self.router, host=self.host,
                                          port=self.router_port)
        self.router_port = self.router_thread.start()
        if supervise:
            self.supervisor.start_monitor()
        return self.router_port

    def stop(self) -> None:
        if self.supervisor is not None:
            self.supervisor.stop()
            self.supervisor = None
        if self.router_thread is not None:
            self.router_thread.stop()
            self.router_thread = None
        self.router = None
        self.workers = []
        if self._owns_cache_root and self.cache_root is not None:
            shutil.rmtree(self.cache_root, ignore_errors=True)
            self.cache_root = None

    def __enter__(self) -> "Cluster":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
