"""Open-loop load generation for ``serve-small`` and ``serve-mixed``.

The server runs in its own process (:mod:`kbench.server_main`).  The
generator is this process: one asyncio loop on one thread, and at most two
connections.

* Connection 1 carries the latency stream: 1-row 8^3 fp32 matmuls against
  one registered handle, Poisson arrivals at :data:`LATENCY_RPS`.
* Connection 2, in ``serve-mixed`` only, carries the bulk side: a Poisson
  schedule of CG solves and cold registrations beside the latency stream.

Traffic runs in windows of :data:`WINDOW_S`.  Between windows the
generator waits for every reply, then runs a pause slice with the server
idle: the library operations for the end-to-end metrics the workload's own
traffic does not produce (``gflops`` and ``call_us_p50``; in
``serve-small`` also the solve and the cold compile), and the host probe.
Spreading those samples over the whole run keeps a phase of the host from
landing on one metric only.

Every request is timed from its scheduled send; every reply is checked; a
typed error, a mismatch or a timeout counts as a failed operation.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from kbench import inputs, tracing
from kbench.library import LibraryOps, OpLog

from repro.exceptions import ReproError
from repro.server.client import AsyncKronClient
from repro.server.protocol import MessageKind

LATENCY_RPS = 200.0
SOLVE_RPS = 4.0
COLD_RPS = 8.0
WINDOW_S = 1.0
#: Bound on every single request; a request exceeding it counts as failed.
REQUEST_TIMEOUT_S = 10.0
#: Warm-up matmuls in set-up.
WARMUP = 20
#: Library solves and cold compiles per pause slice in serve-small.
PAUSE_LIBRARY_OPS = 3
#: One-shot library calls per pause slice.
PAUSE_CALLS = 40
#: The large shape the pause slice runs for ``gflops``.
PAUSE_LARGE = "m256_32p3"

_SERVER_MAIN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "server_main.py")


class ServerProcess:
    """One server subprocess; :meth:`close` always leaves it reaped."""

    def __init__(self, trace: bool):
        args = [sys.executable, _SERVER_MAIN] + (["--trace"] if trace else [])
        # The child inherits this process's environment, BLAS pinning included.
        self.proc = subprocess.Popen(
            args, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, name="server-stdout", daemon=True)
        self._reader.start()
        self.port: Optional[int] = None

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def wait_ready(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("server did not report READY")
            line = self.lines.get(timeout=remaining)
            if line is None:
                raise RuntimeError(f"server exited with code {self.proc.wait()}")
            if line.startswith("READY "):
                self.port = int(line.split()[1])
                return self.port

    def command(self, text: str) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def close(self, timeout: float = 15.0) -> List[list]:
        """Stop the server; returns its spans when it was tracing."""
        spans: List[list] = []
        try:
            if self.proc.poll() is None and self.proc.stdin is not None:
                self.proc.stdin.write("stop\n")
                self.proc.stdin.close()
        except (BrokenPipeError, OSError):
            pass
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                break
            if line is None:
                break
            if line.startswith("SPANS "):
                spans = json.loads(line[len("SPANS "):])
        self.kill()
        return spans

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=5)
        self._reader.join(timeout=5)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()


class Service:
    """A running server, its connections and the registered handles.

    ``conn2`` and ``spd_handle`` exist only when the workload has a bulk side.
    """

    def __init__(self, server: ServerProcess, conn1: AsyncKronClient, handle: str):
        self.server = server
        self.conn1 = conn1
        self.handle = handle
        self.conn2: Optional[AsyncKronClient] = None
        self.spd_handle = ""

    async def close(self) -> List[list]:
        for conn in (self.conn1, self.conn2):
            if conn is None:
                continue
            try:
                await asyncio.wait_for(conn.close(), 5)
            except (asyncio.TimeoutError, ConnectionError, OSError):
                pass
        # Stopping waits for the process (and its spans): off the loop thread.
        return await asyncio.get_running_loop().run_in_executor(None, self.server.close)


class Generator:
    """The open-loop generator of one served run."""

    def __init__(self, workload: str, seed: int, lib: LibraryOps, trace: bool,
                 processes: List["ServerProcess"]):
        self.lib = lib
        self.trace = trace
        self.mixed = workload == "serve-mixed"
        self.cold_inputs = lib.cold_inputs
        self.log = OpLog()
        #: ``(scheduled, sent, done)`` of each latency request, keyed by
        #: whether tracing was on in its window.
        self.latency: Dict[bool, List[Tuple[float, float, float]]] = {False: [], True: []}
        self._cold = 0
        self._row = 0
        self._lat_rng = inputs.rng_for(seed, "latency")
        self._bulk_rng = inputs.rng_for(seed, "bulk")
        #: Every server this generator spawned; the caller reaps them.
        self.processes = processes

    # ------------------------------------------------------------------ #
    # set-up
    # ------------------------------------------------------------------ #
    async def start(self) -> tuple:
        """Spawn, connect, register and warm up; returns ``(svc, seconds)``."""
        start = time.monotonic()
        server = ServerProcess(self.trace)
        self.processes.append(server)
        port = await asyncio.get_running_loop().run_in_executor(None, server.wait_ready, 60.0)
        conn1 = await AsyncKronClient.connect(port=port, timeout=REQUEST_TIMEOUT_S)
        svc = Service(server, conn1, await conn1.register(self.lib.small))
        for _ in range(WARMUP):
            await self._latency_op(svc, time.monotonic(), record=False)
        if self.mixed:
            await self.open_bulk(svc)
        return svc, time.monotonic() - start

    async def open_bulk(self, svc: Service) -> None:
        """Connection 2: register the SPD factors, warm one solve and one cold op."""
        assert svc.server.port is not None
        svc.conn2 = await AsyncKronClient.connect(port=svc.server.port,
                                                      timeout=REQUEST_TIMEOUT_S)
        svc.spd_handle = await svc.conn2.register(self.lib.spd)
        await self._solve_op(svc, time.monotonic(), record=False)
        await self._cold_op(svc, time.monotonic(), record=False)

    async def bulk_census(self, svc: Service, count: int = 10) -> None:
        """Solves and cold registrations one at a time, for a traced run without a bulk side."""
        if svc.conn2 is None:
            await self.open_bulk(svc)
        for _ in range(count):
            await self._solve_op(svc, time.monotonic())
            await self._cold_op(svc, time.monotonic())

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #
    def _fail(self, kind: str, why: str, record: bool) -> None:
        if record:
            self.log.record(kind, None, False, why)
        else:
            raise RuntimeError(f"set-up {kind} failed: {why}")

    async def _at(self, when: float) -> float:
        delay = when - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        return time.monotonic()

    async def _latency_op(self, svc: Service, when: float, record: bool = True,
                          traced: bool = False) -> None:
        self._row = (self._row + 1) % len(self.lib.rows)
        i = self._row
        sent = await self._at(when)
        try:
            y = await asyncio.wait_for(
                svc.conn1.matmul(svc.handle, self.lib.rows[i:i + 1]),
                REQUEST_TIMEOUT_S)
        except (asyncio.TimeoutError, ReproError, ConnectionError, OSError) as exc:
            self._fail("latency", f"{type(exc).__name__}: {exc}", record)
            return
        done = time.monotonic()
        if not np.array_equal(y, self.lib.row_ref[i]):
            self._fail("latency", "result differs from kron_matmul", record)
            return
        if record:
            self.log.record("latency", done - when, True)
            self.latency[traced].append((when, sent, done))

    async def _solve_op(self, svc: Service, when: float, record: bool = True) -> None:
        await self._at(when)
        try:
            res = await asyncio.wait_for(
                svc.conn2.solve(svc.spd_handle, self.lib.rhs, noise=inputs.CG_NOISE,
                                    tol=inputs.CG_TOL, max_iterations=inputs.CG_MAX_ITERATIONS),
                REQUEST_TIMEOUT_S)
        except (asyncio.TimeoutError, ReproError, ConnectionError, OSError) as exc:
            self._fail("solve", f"{type(exc).__name__}: {exc}", record)
            return
        done = time.monotonic()
        if not (res.converged and res.iterations == self.lib.cg_iterations
                and res.max_residual <= inputs.CG_TOL):
            self._fail("solve", f"iterations {res.iterations} (library "
                       f"{self.lib.cg_iterations}), residual {res.max_residual:.2e}", record)
            return
        if record:
            self.log.record("solve", done - when, True)

    async def _cold_op(self, svc: Service, when: float, record: bool = True) -> None:
        i = self._cold
        self._cold = (self._cold + 1) % len(self.cold_inputs)
        op = self.cold_inputs[i]
        await self._at(when)
        try:
            handle = await asyncio.wait_for(svc.conn2.register(op.factors), REQUEST_TIMEOUT_S)
            y = await asyncio.wait_for(svc.conn2.matmul(handle, op.row), REQUEST_TIMEOUT_S)
            done = time.monotonic()
            await asyncio.wait_for(svc.conn2.unregister(handle), REQUEST_TIMEOUT_S)
        except (asyncio.TimeoutError, ReproError, ConnectionError, OSError) as exc:
            self._fail("cold", f"{type(exc).__name__}: {exc}", record)
            return
        if not np.array_equal(y, self.lib.cold_ref[i]):
            self._fail("cold", "result differs from kron_matmul", record)
            return
        if record:
            self.log.record("cold", done - when, True)

    # ------------------------------------------------------------------ #
    # traffic
    # ------------------------------------------------------------------ #
    async def window(self, svc: Service, traced: bool = False) -> None:
        """One window of open-loop traffic; returns when every reply is in."""
        t0 = time.monotonic() + 0.01
        tasks = [
            asyncio.ensure_future(self._latency_op(svc, t0 + off, traced=traced))
            for off in inputs.poisson_offsets(self._lat_rng, LATENCY_RPS, WINDOW_S)
        ]
        if self.mixed:
            # One connection, one request at a time: a solve and a cold op
            # never overlap on connection 2, as a single bulk client's would not.
            tasks.append(asyncio.ensure_future(self._bulk_stream(svc, t0)))
        await asyncio.gather(*tasks)

    async def _bulk_stream(self, svc: Service, t0: float) -> None:
        events = [(off, "solve") for off in
                  inputs.poisson_offsets(self._bulk_rng, SOLVE_RPS, WINDOW_S)]
        events += [(off, "cold") for off in
                   inputs.poisson_offsets(self._bulk_rng, COLD_RPS, WINDOW_S)]
        for off, kind in sorted(events):
            op = self._solve_op if kind == "solve" else self._cold_op
            await op(svc, t0 + off)

    def pause(self) -> None:
        """The pause slice between windows (server idle)."""
        if not self.mixed:
            for _ in range(PAUSE_LIBRARY_OPS):
                self.lib.run_cg(self.log)
                self.lib.run_cold(self.log)
        self.lib.run_large(self.log, PAUSE_LARGE)
        for i in range(PAUSE_CALLS):
            self.lib.run_one_shot(self.log)
            if i % 2 == 0:
                self.lib.run_host_probe(self.log)

    async def capacity(self, svc: Service, seconds: float = 1.5) -> float:
        """Closed-loop completions per second with two requests in flight."""
        done = 0
        deadline = time.monotonic() + seconds

        async def worker() -> None:
            nonlocal done
            while time.monotonic() < deadline:
                try:
                    await self._latency_op(svc, time.monotonic(), record=False)
                except RuntimeError as exc:
                    self.log.record("capacity", None, False, str(exc))
                    return
                done += 1

        start = time.monotonic()
        await asyncio.gather(worker(), worker())
        return done / (time.monotonic() - start)


async def run_served(workload: str, seed: int, seconds: float, lib: LibraryOps,
                     setups: int, trace: bool, processes: List[ServerProcess]) -> dict:
    """One served run: ``setups`` timed set-ups, then ``seconds`` of windows.

    Every server spawned is appended to ``processes`` as soon as it exists,
    so the caller can reap it whatever happens here.
    """
    gen = Generator(workload, seed, lib, trace, processes)
    result: dict = {"setup": [], "spans": [], "stats": {}, "capacity": None}
    svc: Optional[Service] = None
    try:
        for i in range(setups):
            svc, took = await gen.start()
            result["setup"].append(took)
            if i + 1 < setups:
                await svc.close()
                svc = None
        assert svc is not None
        deadline = time.monotonic() + seconds
        window = 0
        while time.monotonic() < deadline:
            traced = trace and window % 2 == 0
            if trace:
                svc.server.command("trace on" if traced else "trace off")
            await gen.window(svc, traced=traced)
            gen.pause()
            window += 1
        if trace:
            if not gen.mixed:
                svc.server.command("trace on")
                await gen.bulk_census(svc)
            svc.server.command("trace off")
            result["capacity"] = await gen.capacity(svc)
        result["stats"] = await asyncio.wait_for(svc.conn1.stats(), REQUEST_TIMEOUT_S)
    finally:
        if svc is not None:
            result["spans"] = await svc.close()
        for proc in gen.processes:
            proc.kill()
    result["gen"] = gen
    return result


def served_layers(result: dict) -> Dict[str, tuple]:
    """Per-layer metrics of a traced served run: name -> (value, unit, samples)."""
    from kbench.stats import lateness, percentile, scheduled_latencies

    gen: Generator = result["gen"]
    out = tracing.analyse(result["spans"], int(MessageKind.RESULT))

    def latencies(requests):
        return scheduled_latencies([r[0] for r in requests], [r[2] for r in requests])

    everything = gen.latency[False] + gen.latency[True]
    lat = latencies(everything)
    late = lateness([r[0] for r in everything], [r[1] for r in everything])
    stats = result["stats"]
    engine = stats.get("engine", {})
    out["engine.coalesce_ratio"] = (float(engine.get("coalesce_ratio", 0.0)), "ratio",
                                    int(engine.get("batches", 0)))
    lookups = engine.get("plan_hits", 0) + engine.get("plan_misses", 0)
    out["plan_cache.hit_rate"] = (engine.get("plan_hits", 0) / lookups if lookups else 0.0,
                                  "ratio", lookups)
    out["plan_cache.evictions"] = (int(engine.get("plan_evictions", 0)), "count", lookups)
    out["client.lat_p99_ms"] = (percentile(lat, 99) * 1e3, "ms", len(lat))
    solves = gen.log.times.get("solve", [])
    out["client.solve_p99_ms"] = (percentile(solves, 99) * 1e3 if solves else 0.0, "ms",
                                  len(solves))
    out["client.capacity_rps"] = (result["capacity"] or 0.0, "1/s", 1)
    out["client.samples"] = (len(lat), "count", len(lat))
    out["gen.late_ms_p99"] = (percentile(late, 99) * 1e3 if late else 0.0, "ms", len(late))
    traced, untraced = latencies(gen.latency[True]), latencies(gen.latency[False])
    if traced and untraced:
        on = float(np.median(traced))
        off = float(np.median(untraced))
        out["trace.overhead_pct"] = (100.0 * (on - off) / off, "%", len(traced))
        mean_on_ms = float(np.mean(traced)) * 1e3
        out["trace.unattributed_ms"] = (mean_on_ms - tracing.attributed_ms(out), "ms",
                                        len(traced))
    classes = stats.get("scheduler", {}).get("classes", {})
    for klass in ("latency", "bulk"):
        info = classes.get(klass, {})
        out[f"_stats.mean_wait_ms.{klass}"] = (float(info.get("mean_wait_ms", 0.0)), "ms",
                                               int(info.get("completed", 0)))
    return out
