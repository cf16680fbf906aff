"""Spans recorded by wrapping the public functions a served request calls.

:func:`install_server_spans` replaces functions of the ``repro`` modules
with wrappers that time each call; it runs in the server subprocess before
the server is built, and changes nothing in the repository's files.  Spans
stay in memory and are exported once, when the server stops.

A span is ``(id, name, start_ns, end_ns, parent, thread, tag)``:

* ``parent`` is the span open on the same thread when this one started
  (synchronous nesting); work handed to another thread — a batch the
  engine's dispatcher runs for a submitted request — is linked to the
  request's span by time containment on that thread during analysis.
* ``tag`` is ``[kind, class, request id]`` where the wrapper sees the
  request: the frame just read sets it in a context variable that the
  request's handler task inherits.  Work objects admitted to the scheduler
  carry it across to the dispatch (keyed by the operand array's identity).

Times are ``time.monotonic_ns()``, the clock the load generator's event
loop uses too, so client and server timestamps compare directly.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import statistics
import threading
import time
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from kbench.stats import covered_length, self_time

_REQUEST: "contextvars.ContextVar[Optional[list]]" = contextvars.ContextVar(
    "perfbench_request", default=None
)

Span = Tuple[int, str, int, int, int, int, Optional[list]]


class SpanRecorder:
    """In-memory span store; recording can be switched on and off."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: Admission tags and times keyed by ``id(operand)`` until dispatch.
        self.admitted: Dict[int, Tuple[int, Optional[list]]] = {}

    def set_enabled(self, on: bool) -> None:
        self.enabled = bool(on)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: int, end: int, tag: Optional[list] = None) -> None:
        """A span timed by the caller; it has no synchronous parent."""
        self.spans.append((next(self._ids), name, start, end, 0, threading.get_ident(), tag))

    def wrap(self, owner, attr: str, name: str, tag_of=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording one span per call."""
        fn = getattr(owner, attr)
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            parent = stack[-1] if stack else 0
            sid = next(recorder._ids)
            stack.append(sid)
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                stack.pop()
            tag = tag_of(args, kwargs, result) if tag_of else _REQUEST.get()
            recorder.spans.append((sid, name, start, end, parent, threading.get_ident(), tag))
            return result

        setattr(owner, attr, wrapper)

    def export(self) -> List[list]:
        return [list(span) for span in self.spans]


def install_server_spans(recorder: SpanRecorder) -> None:
    """Wrap the serving path's public entry points; call before building the server."""
    from repro.gp import cg
    from repro.plan.executor import PlanExecutor
    from repro.graph.executor import GraphExecutor
    from repro.server import protocol, server
    from repro.server.registry import FactorRegistry
    from repro.server.scheduler import SloScheduler
    from repro.serving.engine import KronEngine
    from repro.serving.plan_cache import PlanCache

    # Frame decode: the preamble and header parsers read_frame calls, and the
    # payload view the handlers build.  (read_frame itself also waits for the
    # peer, so its duration is not decode time.)
    recorder.wrap(protocol, "parse_preamble", "decode")
    recorder.wrap(protocol, "decode_header", "decode")
    recorder.wrap(server, "array_from_payload", "decode")

    original_read = server.read_frame

    async def read_frame(reader, max_payload=protocol.DEFAULT_MAX_PAYLOAD):
        frame = await original_read(reader, max_payload)
        if recorder.enabled:
            header = frame.header
            _REQUEST.set([int(frame.kind), str(header.get("class", "")), header.get("id")])
        return frame

    server.read_frame = read_frame

    # Reply encode.
    recorder.wrap(server, "array_payload", "encode")
    recorder.wrap(server, "encode_frame", "encode.frame", tag_of=_reply_tag)
    recorder.wrap(FactorRegistry, "get", "registry.get")
    recorder.wrap(FactorRegistry, "register", "registry.register")

    admit = SloScheduler.admit

    @functools.wraps(admit)
    def admit_wrapper(self, work, klass, deadline_ms=None):
        if not recorder.enabled:
            return admit(self, work, klass, deadline_ms)
        start = time.monotonic_ns()
        future = admit(self, work, klass, deadline_ms)
        end = time.monotonic_ns()
        tag = _REQUEST.get()
        recorder.add("scheduler.admit", start, end, tag=tag)
        operand = getattr(work, "x", None)
        if operand is None:
            operand = getattr(work, "b", None)
        recorder.admitted[id(operand)] = (start, [tag[0] if tag else 0, klass,
                                                  tag[2] if tag else None])
        return future

    SloScheduler.admit = admit_wrapper

    submit = KronEngine.submit

    @functools.wraps(submit)
    def submit_wrapper(self, x, factors):
        if not recorder.enabled:
            return submit(self, x, factors)
        start = time.monotonic_ns()
        admitted = recorder.admitted.pop(id(x), None)
        future = submit(self, x, factors)
        if admitted is not None:
            recorder.add("scheduler.wait", admitted[0], start, tag=admitted[1])
        tag = admitted[1] if admitted else None

        def done(_):
            recorder.add("engine.request", start, time.monotonic_ns(), tag=tag)

        future.add_done_callback(done)
        return future

    KronEngine.submit = submit_wrapper
    recorder.wrap(PlanCache, "get_or_create", "plan_cache.lookup")
    recorder.wrap(PlanExecutor, "execute", "engine.exec")
    recorder.wrap(GraphExecutor, "execute", "graph.execute")

    solve = cg.conjugate_gradient

    @functools.wraps(solve)
    def cg_wrapper(matvec, b, *args, **kwargs):
        if recorder.enabled:
            admitted = recorder.admitted.pop(id(b), None)
            if admitted is not None:
                recorder.add("scheduler.wait", admitted[0], time.monotonic_ns(),
                             tag=admitted[1])
        return solve(matvec, b, *args, **kwargs)

    cg.conjugate_gradient = cg_wrapper


def _reply_tag(args, kwargs, _result) -> list:
    """``[reply kind, request class, id]`` of an ``encode_frame`` call."""
    header = (args[1] if len(args) > 1 else kwargs.get("header")) or {}
    request = _REQUEST.get()
    return [int(args[0]), request[1] if request else "", header.get("id")]


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #
def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def analyse(spans: Sequence[Sequence], result_kind: int) -> Dict[str, tuple]:
    """Per-layer means from exported spans: name -> (value, unit, samples).

    Means are per latency-class request (the class the latency stream uses)
    except where the metric names another class.
    """
    by_name: Dict[str, List[Sequence]] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)

    def durations(name: str, keep=lambda s: True) -> List[float]:
        return [(s[3] - s[2]) / 1e3 for s in by_name.get(name, []) if keep(s)]

    out: Dict[str, tuple] = {}
    frames = len(by_name.get("scheduler.admit", [])) or 1
    decode = durations("decode")
    out["protocol.decode_us"] = (sum(decode) / frames, "us", frames)
    results = durations("encode.frame", lambda s: s[6] and s[6][0] == result_kind)
    payload = durations("encode")
    out["protocol.encode_us"] = (_mean(results) + _mean(payload), "us", len(results))
    for metric, name in (("registry.get_us", "registry.get"),
                         ("registry.register_us", "registry.register")):
        values = durations(name)
        out[metric] = (_mean(values), "us", len(values))
    for klass in ("latency", "bulk"):
        waits = [v / 1e3 for v in durations("scheduler.wait",
                                            lambda s, k=klass: s[6] and s[6][1] == k)]
        out[f"scheduler.wait_ms.{klass}"] = (_mean(waits), "ms", len(waits))

    # Engine: a request's span runs from submit until its future resolves;
    # its children are the batch executions and plan lookups on the
    # dispatcher thread inside that interval.
    children: Dict[int, List[Tuple[int, int]]] = {}
    for name in ("engine.exec", "plan_cache.lookup"):
        for s in by_name.get(name, []):
            children.setdefault(s[5], []).append((s[2], s[3]))
    starts: Dict[int, List[int]] = {}
    for thread, intervals in children.items():
        intervals.sort()
        starts[thread] = [a for a, _ in intervals]
    engine_self: List[float] = []
    engine_child: List[float] = []
    for s in by_name.get("engine.request", []):
        if not (s[6] and s[6][1] == "latency"):
            continue
        thread, start, end = s[5], s[2], s[3]
        intervals = children.get(thread, [])
        lo = bisect_left(starts.get(thread, []), start)
        inside = []
        for a, b in intervals[lo:]:
            if a >= end:
                break
            inside.append((a, b))
        engine_self.append(self_time(start, end, inside) / 1e6)
        engine_child.append(covered_length(start, end, inside) / 1e6)
    exec_ms = [v / 1e3 for v in durations("engine.exec")]
    out["engine.wait_ms"] = (_mean(engine_self), "ms", len(engine_self))
    out["engine.exec_ms"] = (_mean(exec_ms), "ms", len(exec_ms))
    out["_engine.child_ms"] = (_mean(engine_child), "ms", len(engine_child))
    admit = durations("scheduler.admit")
    out["_scheduler.admit_us"] = (_mean(admit), "us", len(admit))
    return out


def attributed_ms(layers: Dict[str, tuple]) -> float:
    """Σ of the mean per-request layer self times along a latency request's path."""
    us = sum(layers[k][0] for k in ("protocol.decode_us", "protocol.encode_us",
                                    "registry.get_us", "_scheduler.admit_us"))
    ms = sum(layers[k][0] for k in ("scheduler.wait_ms.latency", "engine.wait_ms",
                                    "_engine.child_ms"))
    return us / 1e3 + ms
