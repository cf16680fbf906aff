"""Host ceilings and the machine fingerprint recorded with every run.

The ceilings are what the roofline divides by: GEMM peak per dtype at the
thread count the workload uses (BLAS itself pinned to one thread, so ``T``
Python threads each run one GEMM), ``np.copyto`` bandwidth on arrays at
least four times the last-level cache, and the cost of one interpreted loop
iteration.  If a ceiling moves between runs, the host changed, not the code.
"""

from __future__ import annotations

import os
import platform
import statistics
import threading
import time
from typing import Dict, List

import numpy as np

from kbench import BLAS_THREAD_VARS

_FALLBACK_LLC = 32 * 1024 * 1024


def llc_bytes() -> int:
    """Size of the largest cache the kernel reports, or 32 MiB if unknown."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = 0
    try:
        entries = os.listdir(base)
    except OSError:
        return _FALLBACK_LLC
    for entry in entries:
        if not entry.startswith("index"):
            continue
        try:
            with open(os.path.join(base, entry, "size")) as fh:
                raw = fh.read().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(raw[-1:], 1)
        digits = raw[:-1] if raw[-1:] in "KMG" else raw
        if digits.isdigit():
            best = max(best, int(digits) * scale)
    return best or _FALLBACK_LLC


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_info() -> Dict[str, str]:
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):  # numpy < 1.26 has no mode=
        blas = {}
    return {
        "name": str(blas.get("name", "unknown")),
        "version": str(blas.get("version", "unknown")),
        "config": str(blas.get("openblas configuration", "")),
    }


def fingerprint() -> Dict[str, object]:
    """What the numbers of this run depend on, besides the code."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": usable,
        "llc_bytes": llc_bytes(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "blas_threads": {var: os.environ.get(var, "") for var in BLAS_THREAD_VARS},
    }


def cpu_steal() -> tuple:
    """``(steal, total)`` CPU ticks since boot, from ``/proc/stat``; zeros if unknown.

    Steal is time this VM's CPUs were ready to run while the hypervisor ran
    something else.  It lengthens every wake-up on the served path, which
    no probe that runs on the VM can see.
    """
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0, 0
    ticks = [int(x) for x in fields[1:]]
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def steal_pct(before: tuple, after: tuple) -> float:
    """Share of CPU time stolen between two :func:`cpu_steal` readings, in %."""
    total = after[1] - before[1]
    return 100.0 * (after[0] - before[0]) / total if total > 0 else 0.0


def _concurrent_rounds(work, threads: int, rounds: int) -> List[float]:
    """Wall time of ``rounds`` rounds in which thread ``i`` calls ``work(i)``."""
    times: List[float] = []
    for _ in range(rounds):
        barrier = threading.Barrier(threads + 1)
        done = threading.Barrier(threads + 1)

        def body(i: int) -> None:
            barrier.wait()
            work(i)
            done.wait()

        pool = [threading.Thread(target=body, args=(i,)) for i in range(threads)]
        for t in pool:
            t.start()
        barrier.wait()
        start = time.perf_counter()
        done.wait()
        times.append(time.perf_counter() - start)
        for t in pool:
            t.join()
    return times


def gemm_gflops(dtype, threads: int, n: int = 640, rounds: int = 5) -> float:
    """Median GFLOP/s of ``threads`` concurrent ``n x n`` GEMMs."""
    rng = np.random.default_rng(0)
    mats = [
        (rng.standard_normal((n, n)).astype(dtype), rng.standard_normal((n, n)).astype(dtype))
        for _ in range(threads)
    ]
    outs = [np.empty((n, n), dtype=dtype) for _ in range(threads)]

    def work(i: int) -> None:
        a, b = mats[i]
        for _ in range(4):
            np.matmul(a, b, out=outs[i])

    for i in range(threads):
        work(i)  # warm the BLAS kernels and the pages
    times = _concurrent_rounds(work, threads, rounds)
    return threads * 4 * 2.0 * n ** 3 / statistics.median(times) / 1e9


def copy_gbps(rounds: int = 3) -> Dict[str, float]:
    """``np.copyto`` bandwidth (bytes read + written) on arrays ≥ 4× the LLC."""
    nbytes = 4 * llc_bytes()
    count = nbytes // 8
    src = np.full(count, 1.0)
    dst = np.zeros(count)
    np.copyto(dst, src)
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - start)
    del src, dst
    return {"gbps": 2 * count * 8 / statistics.median(times) / 1e9, "array_bytes": count * 8}


def py_loop_ns(iterations: int = 200_000, rounds: int = 5) -> float:
    """Median nanoseconds per iteration of an empty interpreted loop."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter_ns()
        for _ in range(iterations):
            pass
        times.append((time.perf_counter_ns() - start) / iterations)
    return float(statistics.median(times))


def ceilings(threads: int) -> Dict[str, float]:
    """The host ceilings at ``threads`` concurrent BLAS callers."""
    copy = copy_gbps()
    return {
        "threads": threads,
        "sgemm_gflops": gemm_gflops(np.float32, threads),
        "dgemm_gflops": gemm_gflops(np.float64, threads),
        "copy_gbps": copy["gbps"],
        "copy_array_bytes": copy["array_bytes"],
        "py_loop_ns": py_loop_ns(),
    }
