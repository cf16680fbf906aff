"""The benchmark command: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload {kmm-library,serve-small,serve-mixed}
                             --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it is a separate traced run of the same workload and seed
that measures the per-layer metrics.  Report lines (fingerprint, host
ceilings, every metric with its unit and sample count, operations per
kind) come first; the last line is the JSON result.  The exit code is 0
only when every output checked out.  ``perfbench/WORKLOADS.md`` says why
each workload exists and which metric each layer should move.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# The script's directory is on sys.path; kbench/__init__ imports nothing.
from kbench import BLAS_THREAD_VARS  # noqa: E402

# BLAS threads are pinned before numpy loads: the threaded backend already
# runs one BLAS call per core, so BLAS threads would oversubscribe them.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

WORKLOADS = ("kmm-library", "serve-small", "serve-mixed")
#: The whole run is abandoned (non-zero exit, no result) after this long.
WATCHDOG_S = 150
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Threads of the library backend, and of the host GEMM ceilings.
THREADS = 2

END_TO_END = ("gflops", "call_us_p50", "lat_p50_ms", "solve_p50_ms", "cold_p50_ms", "setup_s")
#: Timed end-to-end metrics: name -> (scale, unit).
TIMED = {"call_us_p50": (1e6, "us"), "lat_p50_ms": (1e3, "ms"),
         "solve_p50_ms": (1e3, "ms"), "cold_p50_ms": (1e3, "ms")}
#: The operation each timed metric takes its samples from, per workload.
#: Library kinds (one_shot, prepared, cg, cold_compile) come from
#: kbench.library, served kinds (latency, solve, cold) from kbench.served;
#: WORKLOADS.md defines each pairing.
SOURCES = {
    "kmm-library": {"call_us_p50": "one_shot", "lat_p50_ms": "prepared",
                    "solve_p50_ms": "cg", "cold_p50_ms": "cold_compile"},
    "serve-small": {"call_us_p50": "one_shot", "lat_p50_ms": "latency",
                    "solve_p50_ms": "cg", "cold_p50_ms": "cold_compile"},
    "serve-mixed": {"call_us_p50": "one_shot", "lat_p50_ms": "latency",
                    "solve_p50_ms": "solve", "cold_p50_ms": "cold"},
}


class Watchdog(Exception):
    """The run exceeded :data:`WATCHDOG_S`."""


def _alarm(_signum, _frame):
    raise Watchdog(f"run exceeded {WATCHDOG_S} s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="FastKron end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time one library set-up and print it")
    return parser.parse_args(argv)


def library_setup_in_child(args) -> float:
    """One library set-up timed in a fresh interpreter (no warm caches)."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1].split()[1])


def report(name: str, value: float, unit: str, n: int, tail=None, raw=None) -> None:
    """One report line: value, unit, sample count, supported tail, raw reading."""
    extra = f" p{tail[0]:g}={tail[1]:.6g}" if tail else ""
    if raw is not None and raw != value:
        extra += f" raw={raw:.6g}"
    print(f"metric {name} {value:.6g} {unit} n={n}{extra}")


def measure_end_to_end(args, processes):
    """The untraced run: returns ``(log, metrics)``; metrics None if one is missing."""
    from kbench import inputs
    from kbench.library import LibraryOps, host_probe_ns, library_gflops, run_library_workload
    from kbench.served import PAUSE_LARGE, run_served
    from kbench.stats import REF_LOOP_NS, at_reference_speed, summarize

    served = args.workload != "kmm-library"
    setups = []
    if not served:
        setups = [library_setup_in_child(args) for _ in range(SETUPS - 1)]
    lib = LibraryOps(args.seed, [PAUSE_LARGE] if served else list(inputs.LARGE_SHAPES), THREADS)
    try:
        if served:
            # The generator's library probes are warmed here, untimed: the
            # served set-up is the server's, timed inside run_served.
            lib.setup()
            result = asyncio.run(run_served(args.workload, args.seed, args.seconds, lib,
                                            SETUPS, False, processes))
            log = result["gen"].log
            setups = result["setup"]
        else:
            setups.append(lib.setup())
            log = run_library_workload(lib, args.seconds)
        gflops = library_gflops(lib, log)
    finally:
        lib.close()
    probe_ns = host_probe_ns(log)
    if probe_ns is None:
        print("error: no host probe samples", file=sys.stderr)
        return log, None
    print(f"probe loop_ns={probe_ns:.6g} n={len(log.times['probe.loop'])} "
          f"reference loop_ns={REF_LOOP_NS:g}")
    # name -> (raw value, unit, samples, raw tail, factor to the reference
    # host).  Timings scale with the probe's time and the rate inversely;
    # the one-off set-up is reported as measured.
    to_reference = at_reference_speed(1.0, probe_ns, REF_LOOP_NS)
    values = {"setup_s": (statistics.median(setups), "s", len(setups), None, 1.0)}
    if gflops is not None:
        values["gflops"] = (gflops[0], "GF/s", gflops[1], None, 1.0 / to_reference)
    for name, (scale, unit) in TIMED.items():
        samples = log.times.get(SOURCES[args.workload][name])
        if samples:
            s = summarize(samples)
            tail = (s.tail_q, s.tail * scale) if s.tail is not None else None
            values[name] = (s.p50 * scale, unit, s.n, tail, to_reference)
    metrics = {}
    for name in END_TO_END:
        if name not in values:
            print(f"error: no samples for {name}", file=sys.stderr)
            return log, None
        raw, unit, n, tail, factor = values[name]
        value = raw * factor
        report(name, value, unit, n, (tail[0], tail[1] * factor) if tail else None, raw)
        metrics[name] = {"value": float(value), "unit": unit}
    return log, metrics


def measure_layers(args, ceilings, started, processes):
    """The traced run: library census, then traced served traffic."""
    from kbench import inputs
    from kbench.library import LibraryOps, OpLog, layer_census
    from kbench.served import run_served, served_layers

    log = OpLog()
    lib = LibraryOps(args.seed, list(inputs.LARGE_SHAPES), THREADS)
    try:
        lib.setup()
        layers = layer_census(lib, ceilings, log)
        # kmm-library calls no serving layer; its traced run measures them on
        # the serve-small schedule so every per-layer metric is present.
        workload = args.workload if args.workload != "kmm-library" else "serve-small"
        remaining = max(4.0, args.seconds - (time.monotonic() - started))
        result = asyncio.run(run_served(workload, args.seed, remaining, lib, 1, True, processes))
    finally:
        lib.close()
    layers.update(served_layers(result))
    log.merge(result["gen"].log)
    for key, unit in (("sgemm_gflops", "GF/s"), ("dgemm_gflops", "GF/s"),
                      ("copy_gbps", "GB/s"), ("py_loop_ns", "ns")):
        layers[f"host.{key}"] = (ceilings[key], unit, 1)
    metrics = {}
    for name, (value, unit, n) in sorted(layers.items()):
        report(name, value, unit, n)
        if not name.startswith("_"):
            metrics[name] = {"value": float(value), "unit": unit}
    return log, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the package under test is missing ({SRC}/repro); run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from kbench import host, inputs
    from kbench.library import LibraryOps

    if args.setup_probe:
        ops = LibraryOps(args.seed, list(inputs.LARGE_SHAPES), THREADS, references=False)
        print(f"SETUP {ops.setup():.9f}")
        ops.close()
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(WATCHDOG_S)
    started = time.monotonic()
    print("fingerprint " + json.dumps(host.fingerprint()))
    ceilings = host.ceilings(THREADS)
    print("host " + json.dumps(ceilings))

    processes = []
    steal_before = host.cpu_steal()
    try:
        if args.trace:
            log, metrics = measure_layers(args, ceilings, started, processes)
        else:
            log, metrics = measure_end_to_end(args, processes)
    except Watchdog as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        for proc in processes:
            proc.kill()
    print(f"steal_pct {host.steal_pct(steal_before, host.cpu_steal()):.3g}")
    if metrics is None:
        return 1

    for kind in sorted(log.attempted):
        attempted = log.attempted[kind]
        failed = log.failed.get(kind, 0)
        print(f"ops {kind} attempted={attempted} succeeded={attempted - failed} failed={failed}")
    for error in log.errors:
        print(f"failure {error}", file=sys.stderr)
    correct = log.total_failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": log.total_attempted,
        "failed": log.total_failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
