"""The ``service`` workload: a ``python -m repro.service`` subprocess under
two closed-loop clients, then one warm client.

One pass = launch the server on a fresh data directory (set-up), the cold
phase, the warm phase, shutdown.  The ``run.py`` process is the client; it
imports ``repro`` for the wire types only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading
import time

import common
from common import OUT_DIR
from speed import cpu_ticks, steal_share, with_steal

#: Seconds allowed for the server to announce its address and answer.
BOOT_TIMEOUT = 60.0
#: Socket timeout of every client request, well inside a run's limit.
REQUEST_TIMEOUT = 120.0
#: Times the warm client sends the whole list.  One round lasts a fifth
#: of a second; five give its latency enough samples to be steady.
WARM_ROUNDS = 5


class Server:
    """A ``python -m repro.service`` child on an ephemeral local port."""

    def __init__(self, data_dir, max_workers: int) -> None:
        self.data_dir = data_dir
        self.max_workers = max_workers
        self.proc: subprocess.Popen | None = None
        self.address = ""
        self.boot_s = 0.0

    def start(self) -> None:
        from repro.errors import ServiceError
        from repro.service.client import ServiceClient

        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service",
                "--data-dir", str(self.data_dir),
                "--listen", "127.0.0.1:0",
                "--max-workers", str(self.max_workers),
            ],
            stdout=subprocess.PIPE, text=True, env=common.child_env(),
            cwd=common.ROOT,
        )
        line = self.proc.stdout.readline()
        prefix = "repro-service listening on "
        if not line.startswith(prefix):
            raise RuntimeError(f"service did not announce an address: {line!r}")
        self.address = line[len(prefix):].strip()
        probe = ServiceClient(self.address, retries=0, timeout=5.0)
        while True:
            try:
                probe.healthz()
                break
            except ServiceError:
                if time.perf_counter() - start > BOOT_TIMEOUT:
                    raise
                time.sleep(0.005)
        self.boot_s = time.perf_counter() - start

    def counters(self) -> dict[str, int]:
        from repro.service.client import ServiceClient

        client = ServiceClient(self.address, timeout=REQUEST_TIMEOUT)
        return client.healthz()["counters"]

    def stop(self) -> None:
        """Shut down and reap the server (it reaps its own workers)."""
        if self.proc is None:
            return
        from repro.errors import ServiceError
        from repro.service.client import ServiceClient

        try:
            if not self.address:
                raise ServiceError("server never announced an address")
            ServiceClient(self.address, retries=0, timeout=5.0).shutdown()
            self.proc.wait(timeout=60)
        except (ServiceError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait(timeout=60)
        finally:
            self.proc.stdout.close()
            self.proc = None


def _client_loop(address, requests, latencies, responses, errors) -> None:
    """One closed-loop client: next request only after the last reply.

    Appends ``(seconds, served_from_store)`` per request, where the
    second item says whether every cell was a store hit.
    """
    from repro.service.client import ServiceClient

    client = ServiceClient(address, timeout=REQUEST_TIMEOUT)
    try:
        for index, request in requests:
            start = time.perf_counter()
            response = client.sweep(request)
            elapsed = time.perf_counter() - start
            stats = response.stats
            latencies.append((elapsed, stats["store_hits"] == stats["cells"]))
            responses[index] = response
    except Exception as exc:  # re-raised by run_pass, never swallowed
        errors.append(exc)


def run_phase(address, orders, client_names, seed, trace_length, warmup):
    """Send the request list once per client, concurrently.

    *orders* holds, per client, the request indices in sending order.
    Returns ``(wall seconds, latencies, responses per client, errors)``;
    see :func:`_client_loop` for the latency records.
    """
    import model
    from repro.service.protocol import SweepRequest

    cells = [cells for _, cells in model.service_requests()]
    threads, latencies, responses, errors = [], [], [], []
    for order, name in zip(orders, client_names):
        reqs = [
            (i, SweepRequest(
                cells=tuple(cells[i]), trace_length=trace_length,
                warmup=warmup, seed=seed, client=name,
            ))
            for i in order
        ]
        got: dict[int, object] = {}
        responses.append(got)
        threads.append(threading.Thread(
            target=_client_loop,
            args=(address, reqs, latencies, got, errors),
        ))
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, latencies, responses, errors


def boot_once(data_dir, workers: int, sampler) -> tuple[float, float]:
    """Boot a server and shut it down; returns its boot seconds and the
    speed factor over the boot."""
    server = Server(data_dir, workers)
    marks, ticks = [sampler.mark()], [cpu_ticks()]
    try:
        server.start()
        marks.append(sampler.mark())
        ticks.append(cpu_ticks())
    finally:
        server.stop()
    return server.boot_s, _speed(sampler, marks, ticks, 0, 1)


def _speed(sampler, marks, ticks, start: int, end: int) -> float:
    """Speed factor between two boundaries of a pass: the client's
    thread-time samples, with the steal the whole machine saw."""
    return with_steal(
        sampler.factor(marks[start], marks[end]),
        steal_share(ticks[start], ticks[end]),
    )


def run_pass(seed: int, trace_length: int, workers: int, index: int,
             sampler) -> dict:
    """One full pass: boot, cold phase (two clients), warm phase (one
    client, :data:`WARM_ROUNDS` times).

    *sampler* is a running ``speed.SpeedSampler``; the pass reports the
    host's speed factor over the boot, the cold and the warm phase.  The
    client's own share of a request's time is small, so the factor of
    the phase, sampled over seconds, serves its requests better than
    the few samples around each one.
    """
    import model

    warmup = trace_length // 4
    n = len(model.service_requests())
    forward, backward = list(range(n)), list(reversed(range(n)))
    data_dir = OUT_DIR / f"service-{os.getpid()}-{index}"
    shutil.rmtree(data_dir, ignore_errors=True)
    server = Server(data_dir, workers)
    cpu0 = time.process_time()
    children0 = os.times()
    pass0 = time.perf_counter()
    marks = [sampler.mark()]
    ticks = [cpu_ticks()]
    try:
        server.start()
        marks.append(sampler.mark())
        ticks.append(cpu_ticks())
        cold_wall, cold_lat, cold_resp, errors = run_phase(
            server.address, (forward, backward), ("client-a", "client-b"),
            seed, trace_length, warmup,
        )
        if errors:
            raise errors[0]
        marks.append(sampler.mark())
        ticks.append(cpu_ticks())
        cold_counters = server.counters()
        marks.append(sampler.mark())
        ticks.append(cpu_ticks())
        warm_lat, warm_resp = [], []
        for _ in range(WARM_ROUNDS):
            _, latencies, responses, errors = run_phase(
                server.address, (forward,), ("client-warm",),
                seed, trace_length, warmup,
            )
            if errors:
                raise errors[0]
            warm_lat += latencies
            warm_resp += responses
        marks.append(sampler.mark())
        ticks.append(cpu_ticks())
        warm_counters = server.counters()
    finally:
        server.stop()
        shutil.rmtree(data_dir, ignore_errors=True)
    pass_wall = time.perf_counter() - pass0
    children1 = os.times()
    child_cpu = (children1.children_user - children0.children_user) + (
        children1.children_system - children0.children_system
    )
    return {
        "boot_speed": _speed(sampler, marks, ticks, 0, 1),
        "cold_speed": _speed(sampler, marks, ticks, 1, 2),
        "warm_speed": _speed(sampler, marks, ticks, 3, 4),
        "cold_steal": steal_share(ticks[1], ticks[2]),
        "boot_s": server.boot_s,
        "wall_s": cold_wall,
        "pass_wall_s": pass_wall,
        "cpu_s": time.process_time() - cpu0 + child_cpu,
        "latencies": cold_lat,
        "warm_latencies": warm_lat,
        "cold": cold_resp,
        "warm": warm_resp,
        "cold_counters": cold_counters,
        "warm_counters": warm_counters,
    }
