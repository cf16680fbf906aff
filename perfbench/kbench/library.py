"""In-process library operations: the ``kmm-library`` workload and its probes.

Every operation is timed around one public call and its output checked:

* ``large``     one-shot ``kron_matmul`` on a large shape, ``ThreadedBackend``;
                bit-equal to ``backend="numpy"``.
* ``one_shot``  one-shot ``kron_matmul`` on 1 x 8^3, default backend.
* ``prepared``  ``GraphExecutor.execute`` of a graph compiled once, 1 x 8^3.
* ``cg``        ``conjugate_gradient`` over ``kron_matvec_operator``; the
                iteration count must equal the first solve's, residual ≤ tol.
* ``cold_compile`` compile a graph for fresh factors and run it once.

``layer_census`` measures the library layers one at a time for the traced
run: plan counts, graph compile and execute, backend bandwidth against the
roofline, dispatch cost and CG.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from kbench import inputs
from kbench.stats import roofline_pct

# The package under test; run.py puts its source tree on sys.path first.
from repro import (
    GraphExecutor,
    compile_graph,
    conjugate_gradient,
    graph,
    kron_matmul,
    kron_matvec_operator,
)
from repro.backends.threaded import ThreadedBackend
from repro.core.problem import KronMatmulProblem
from repro.plan import compile_plan
from repro.plan.executor import plan_execution_stats


#: Iterations of the host probe's empty interpreted loop.
PROBE_LOOP = 2000


def host_probe_ns(log: "OpLog") -> Optional[float]:
    """Median nanoseconds per iteration of the run's host probes."""
    loops = log.times.get("probe.loop")
    return statistics.median(loops) / PROBE_LOOP * 1e9 if loops else None


class OpLog:
    """Per-kind operation timings plus attempted/failed counts."""

    def __init__(self) -> None:
        self.times: Dict[str, List[float]] = {}
        self.attempted: Dict[str, int] = {}
        self.failed: Dict[str, int] = {}
        self.errors: List[str] = []

    def record(self, kind: str, seconds: Optional[float], ok: bool, why: str = "") -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        self.times.setdefault(kind, [])
        if ok and seconds is not None:
            self.times[kind].append(seconds)
        else:
            self.failed[kind] = self.failed.get(kind, 0) + 1
            if len(self.errors) < 20:
                self.errors.append(f"{kind}: {why}")

    def sample(self, kind: str, seconds: float) -> None:
        """A timing that is not an operation of the program (a host reference)."""
        self.times.setdefault(kind, []).append(seconds)

    def merge(self, other: "OpLog") -> None:
        for kind, values in other.times.items():
            self.times.setdefault(kind, []).extend(values)
        for kind, n in other.attempted.items():
            self.attempted[kind] = self.attempted.get(kind, 0) + n
        for kind, n in other.failed.items():
            self.failed[kind] = self.failed.get(kind, 0) + n
        self.errors.extend(other.errors)

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


def _timed(fn: Callable[[], object]):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def plan_counts(name: str, backend) -> Dict[str, int]:
    """FLOPs, computed bytes moved and fusion groups of one fp32 shape's plan."""
    m, p, n = inputs.LARGE_SHAPES.get(name, inputs.SMALL_SHAPE)
    plan = compile_plan(
        KronMatmulProblem(m=m, factor_shapes=((p, p),) * n, dtype=np.dtype(np.float32)),
        backend=backend,
    )
    stats = plan_execution_stats(plan)
    return {
        "flops": int(stats.flops),
        "bytes": int(stats.fused_memory_elements) * 4,
        "groups": len(plan.groups),
    }


class LibraryOps:
    """The library operations of one run, with their inputs and references.

    Construction generates inputs and computes the numpy references (not
    timed); :meth:`setup` is what a user pays before steady state and is
    what ``setup_s`` times.
    """

    def __init__(self, seed: int, large_names: Sequence[str], threads: int = 2,
                 references: bool = True):
        self.backend = ThreadedBackend(num_threads=threads)
        self.large_names = list(large_names)
        self.large = {name: inputs.large_operands(seed, name) for name in self.large_names}
        self.small = inputs.small_factors(seed)
        self.rows = inputs.row_pool(seed)
        self.spd = inputs.spd_factors(seed)
        self.rhs = inputs.cg_rhs(seed)
        self.cold_inputs = inputs.cold_ops(seed, 64)
        self.large_ref: Dict[str, np.ndarray] = {}
        self.row_ref: List[np.ndarray] = []
        self.cold_ref: List[np.ndarray] = []
        if references:
            for name, (x, factors) in self.large.items():
                self.large_ref[name] = kron_matmul(x, factors, backend="numpy")
            self.row_ref = [kron_matmul(r[None, :], self.small, backend="numpy")
                            for r in self.rows]
            self.cold_ref = [kron_matmul(op.row, op.factors, backend="numpy")
                             for op in self.cold_inputs]
        self.prepared_exe = None
        self.matvec = None
        self.cg_iterations: Optional[int] = None
        self._row = 0
        self._cold = 0

    # ------------------------------------------------------------------ #
    def setup(self) -> float:
        """Compile and warm every operation once; returns the seconds it took."""
        start = time.perf_counter()
        for name in self.large_names:
            x, factors = self.large[name]
            kron_matmul(x, factors, backend=self.backend)
        row = self.rows[:1]
        kron_matmul(row, self.small)
        g = graph(dtype=np.float32)
        self.prepared_exe = g.compile(
            output=g.kmm(self.small, g.input("x", shape=row.shape)))
        self.prepared_exe.execute(row)
        self.matvec = kron_matvec_operator(self.spd, noise=inputs.CG_NOISE)
        first = conjugate_gradient(self.matvec, self.rhs, tol=inputs.CG_TOL,
                                   max_iterations=inputs.CG_MAX_ITERATIONS)
        self.cg_iterations = int(first.iterations)
        return time.perf_counter() - start

    def close(self) -> None:
        if self.prepared_exe is not None:
            self.prepared_exe.close()
        if self.matvec is not None:
            self.matvec.close()

    # ------------------------------------------------------------------ #
    def _next_row(self) -> int:
        self._row = (self._row + 1) % len(self.rows)
        return self._row

    def run_large(self, log: OpLog, name: str) -> None:
        x, factors = self.large[name]
        seconds, y = _timed(lambda: kron_matmul(x, factors, backend=self.backend))
        ok = np.array_equal(y, self.large_ref[name])
        log.record(f"large.{name}", seconds, ok, "differs from backend=numpy")

    def run_one_shot(self, log: OpLog) -> None:
        i = self._next_row()
        row = self.rows[i:i + 1]
        seconds, y = _timed(lambda: kron_matmul(row, self.small))
        log.record("one_shot", seconds, np.array_equal(y, self.row_ref[i]),
                   "differs from backend=numpy")

    def run_prepared(self, log: OpLog) -> None:
        i = self._next_row()
        row = self.rows[i:i + 1]
        seconds, y = _timed(lambda: self.prepared_exe.execute(row))
        log.record("prepared", seconds, np.array_equal(y, self.row_ref[i]),
                   "differs from backend=numpy")

    def run_cg(self, log: OpLog) -> None:
        seconds, res = _timed(lambda: conjugate_gradient(
            self.matvec, self.rhs, tol=inputs.CG_TOL, max_iterations=inputs.CG_MAX_ITERATIONS))
        ok = (res.converged and res.iterations == self.cg_iterations
              and res.max_residual <= inputs.CG_TOL)
        log.record("cg", seconds, ok, f"iterations {res.iterations}, residual {res.max_residual:.2e}")

    def run_cold(self, log: OpLog) -> None:
        i = self._cold
        self._cold = (self._cold + 1) % len(self.cold_inputs)
        op = self.cold_inputs[i]

        def cold() -> np.ndarray:
            g = graph(dtype=np.float32)
            exe = g.compile(
                output=g.kmm(op.factors, g.input("x", shape=op.row.shape)))
            try:
                return exe.execute(op.row).copy()
            finally:
                exe.close()

        seconds, y = _timed(cold)
        log.record("cold_compile", seconds, np.array_equal(y, self.cold_ref[i]),
                   "differs from backend=numpy")

    @staticmethod
    def run_host_probe(log: OpLog) -> None:
        """The host probe: an empty interpreted loop, no repository code."""
        start = time.perf_counter()
        for _ in range(PROBE_LOOP):
            pass
        log.sample("probe.loop", time.perf_counter() - start)

    def small_burst(self, log: OpLog, calls: int) -> None:
        """Alternating one-shot and prepared calls, then one solve and one cold op."""
        for i in range(calls):
            self.run_one_shot(log)
            self.run_prepared(log)
            if i % 2 == 0:
                self.run_host_probe(log)
        self.run_cg(log)
        self.run_cold(log)


def run_library_workload(ops: LibraryOps, seconds: float, burst: int = 40) -> OpLog:
    """Round-robin over the large shapes, a small burst after each large call."""
    log = OpLog()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for name in ops.large_names:
            ops.run_large(log, name)
            ops.small_burst(log, burst)
    return log


def library_gflops(ops: LibraryOps, log: OpLog) -> Optional[tuple]:
    """``(GF/s, samples)``: FLOPs of one pass over the large shapes ÷ Σ median call times."""
    flops = 0
    seconds = 0.0
    counts = []
    for name in ops.large_names:
        samples = log.times.get(f"large.{name}")
        if not samples:
            return None
        flops += plan_counts(name, ops.backend)["flops"]
        seconds += statistics.median(samples)
        counts.append(len(samples))
    return flops / seconds / 1e9, min(counts)


# ---------------------------------------------------------------------- #
# per-layer census (traced run)
# ---------------------------------------------------------------------- #
def _median_time(fn: Callable[[], object], repeats: int) -> float:
    return statistics.median(_timed(fn)[0] for _ in range(repeats))


def _kmm_graph(factors, rows: int, cols: int):
    g = graph(dtype=np.float32)
    return g.build(g.kmm(factors, g.input("x", shape=(rows, cols))))


def _cg_body_graph(spd, m_cols: int):
    """The per-iteration CG body ``kron_matvec_operator`` compiles."""
    transposed = [np.ascontiguousarray(f.T) for f in spd]
    n = int(np.prod([f.shape[0] for f in spd]))
    g = graph(dtype=np.float64)
    vt = g.transpose(g.input("v", shape=(n, m_cols)))
    y = g.axpy(inputs.CG_NOISE, vt, g.kmm(transposed, vt))
    return g.build(g.transpose(y))


def layer_census(ops: LibraryOps, ceilings: Dict[str, float], log: OpLog) -> Dict[str, tuple]:
    """Library per-layer metrics: name -> (value, unit, samples)."""
    out: Dict[str, tuple] = {}
    peak, bandwidth = ceilings["sgemm_gflops"], ceilings["copy_gbps"]
    for name in list(ops.large_names) + [inputs.SMALL_NAME]:
        counts = plan_counts(name, ops.backend)
        out[f"plan.flops.{name}"] = (counts["flops"], "flop", 1)
        out[f"plan.bytes.{name}"] = (counts["bytes"], "B", 1)
        out[f"plan.groups.{name}"] = (counts["groups"], "count", 1)
    for name in ops.large_names:
        x, factors = ops.large[name]
        built = _kmm_graph(factors, *x.shape)
        out[f"graph.compile_ms.{name}"] = (
            _median_time(lambda: compile_graph(built, backend=ops.backend), 5) * 1e3, "ms", 5)
        exe = GraphExecutor(compile_graph(built, backend=ops.backend),
                            backend=ops.backend, factors=factors)
        times = []
        try:
            for _ in range(3):
                seconds, y = _timed(lambda: exe.execute(x))
                log.record(f"graph.{name}", seconds, np.array_equal(y, ops.large_ref[name]),
                           "differs from backend=numpy")
                times.append(seconds)
        finally:
            exe.close()
        t = statistics.median(times)
        counts = plan_counts(name, ops.backend)
        out[f"graph.execute_ms.{name}"] = (t * 1e3, "ms", 3)
        out[f"backends.gbps.{name}"] = (counts["bytes"] / t / 1e9, "GB/s", 3)
        out[f"backends.roofline_pct.{name}"] = (
            roofline_pct(counts["flops"] / t / 1e9, peak, bandwidth,
                         counts["flops"], counts["bytes"]), "%", 3)
    cg_body = _cg_body_graph(ops.spd, inputs.CG_RHS)
    out["graph.compile_ms.cg_body"] = (
        _median_time(lambda: compile_graph(cg_body), 5) * 1e3, "ms", 5)
    small = OpLog()
    for _ in range(300):
        ops.run_one_shot(small)
        ops.run_prepared(small)
    for _ in range(10):
        ops.run_cg(small)
    log.merge(small)
    one_shot = statistics.median(small.times["one_shot"])
    prepared = statistics.median(small.times["prepared"])
    out["graph.execute_us.small"] = (prepared * 1e6, "us", len(small.times["prepared"]))
    out["core.dispatch_us"] = ((one_shot - prepared) * 1e6, "us", len(small.times["one_shot"]))
    out["gp.cg_iterations"] = (ops.cg_iterations, "count", 1)
    out["gp.cg_solve_ms"] = (statistics.median(small.times["cg"]) * 1e3, "ms",
                             len(small.times["cg"]))
    return out
