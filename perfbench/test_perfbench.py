"""Tests of the benchmark's own helpers (pure arithmetic, no timing)."""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys

import pytest

from kbench import stats, tracing


# ---------------------------------------------------------------------- #
# percentiles and the sample-count rule
# ---------------------------------------------------------------------- #
def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(values, 50) == pytest.approx(2.5)
    assert stats.percentile(list(range(101)), 90) == pytest.approx(90.0)


def test_percentile_rejects_empty_sample():
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("n, expected", [
    (99, None),       # p90 needs 100 samples for 10 beyond it
    (100, 90.0),
    (999, 90.0),
    (1000, 99.0),     # p99 needs 1000
    (10000, 99.9),
])
def test_supported_tail_needs_ten_samples_beyond(n, expected):
    assert stats.supported_tail(n) == expected


def test_summarize_reports_median_count_and_supported_tail():
    values = [float(i) for i in range(1, 201)]
    s = stats.summarize(values)
    assert s.n == 200
    assert s.p50 == statistics.median(values)
    assert s.tail_q == 90.0
    assert s.tail == pytest.approx(stats.percentile(values, 90))
    small = stats.summarize([3.0, 1.0, 2.0])
    assert small.tail_q is None and small.tail is None and small.p50 == 2.0


# ---------------------------------------------------------------------- #
# open-loop accounting
# ---------------------------------------------------------------------- #
def test_latency_runs_from_the_scheduled_send():
    # Request 2 was due at t=1.0 but a stall held its send until t=1.5: the
    # half second it waited is part of its latency.
    scheduled = [0.0, 1.0]
    sent = [0.0, 1.5]
    done = [0.2, 1.7]
    assert stats.scheduled_latencies(scheduled, done) == pytest.approx([0.2, 0.7])
    assert stats.lateness(scheduled, sent) == pytest.approx([0.0, 0.5])


def test_lateness_never_negative_and_pairs_must_match():
    assert stats.lateness([1.0], [0.9]) == [0.0]
    with pytest.raises(ValueError):
        stats.scheduled_latencies([0.0, 1.0], [0.5])


# ---------------------------------------------------------------------- #
# self time
# ---------------------------------------------------------------------- #
def test_self_time_subtracts_covered_interval_once():
    # Span [0, 10] with children [1, 3] and [2, 5] (overlapping) and [8, 12]
    # (sticking out): covered = [1, 5] + [8, 10] = 6.
    children = [(1, 3), (2, 5), (8, 12)]
    assert stats.covered_length(0, 10, children) == 6
    assert stats.self_time(0, 10, children) == 4


def test_self_time_ignores_children_outside_the_span():
    assert stats.self_time(10, 20, [(0, 5), (25, 30)]) == 10
    assert stats.self_time(10, 20, []) == 10
    assert stats.self_time(0, 10, [(0, 10)]) == 0


def test_engine_self_time_uses_children_on_the_dispatcher_thread():
    ms = 1_000_000
    latency = [1, "latency", 7]
    spans = [
        # request span submit -> resolve on thread 2 (where it resolved)
        [1, "engine.request", 0, 10 * ms, 0, 2, latency],
        # batch execution inside it on thread 2: 6 ms of the 10
        [2, "engine.exec", 3 * ms, 9 * ms, 0, 2, None],
        # an execution on another thread does not count
        [3, "engine.exec", 1 * ms, 2 * ms, 0, 5, None],
        [4, "scheduler.admit", 0, 1000, 0, 1, latency],
        [5, "scheduler.wait", 0, 2 * ms, 0, 1, latency],
    ]
    layers = tracing.analyse(spans, result_kind=4)
    assert layers["engine.wait_ms"][0] == pytest.approx(4.0)
    assert layers["_engine.child_ms"][0] == pytest.approx(6.0)
    assert layers["scheduler.wait_ms.latency"][0] == pytest.approx(2.0)
    assert layers["scheduler.wait_ms.bulk"][2] == 0


# ---------------------------------------------------------------------- #
# roofline
# ---------------------------------------------------------------------- #
def test_roofline_is_the_lower_of_compute_and_bandwidth_bound():
    # 100 GF/s peak, 10 GB/s: at 1 FLOP/byte the bandwidth bound (10) wins;
    # at 100 FLOP/byte compute (100) wins.
    assert stats.roofline_gflops(100.0, 10.0, flops=1e9, nbytes=1e9) == 10.0
    assert stats.roofline_gflops(100.0, 10.0, flops=1e11, nbytes=1e9) == 100.0
    assert stats.roofline_pct(5.0, 100.0, 10.0, flops=1e9, nbytes=1e9) == pytest.approx(50.0)


def test_reference_speed_scales_times_and_rates_by_the_probe():
    # The probe loop ran at 40 ns/iteration against a 20 ns reference: the
    # host ran at half speed, so a 200 us call reads 100 us at reference.
    assert stats.at_reference_speed(200.0, probe=40.0, reference=20.0) == pytest.approx(100.0)
    # A rate scales with rates: a probe reading 50/s against 100/s doubles it.
    assert stats.at_reference_speed(10.0, probe=50.0, reference=100.0) == pytest.approx(20.0)
    assert stats.at_reference_speed(7.0, probe=3.0, reference=3.0) == 7.0


# ---------------------------------------------------------------------- #
# the command outside a checkout
# ---------------------------------------------------------------------- #
def test_command_fails_without_the_package_under_test(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kmm-library", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
