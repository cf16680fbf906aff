"""The server process of the served workloads.

    python3 perfbench/kbench/server_main.py [--trace]

Starts a :class:`repro.KronServer` on an ephemeral loopback port, on the
numpy backend, and prints ``READY <port>`` once it accepts connections.
Commands arrive one per line on stdin: ``trace on`` / ``trace off`` switch
span recording (``--trace`` installs the wrappers first), ``stop`` or end
of input stops the server gracefully.  With ``--trace`` the recorded spans
are printed as one ``SPANS <json>`` line before the process exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(_HERE)), "src"))
sys.path.insert(0, os.path.dirname(_HERE))

from kbench import tracing  # noqa: E402


async def serve(trace: bool) -> None:
    recorder = None
    if trace:
        recorder = tracing.SpanRecorder()
        tracing.install_server_spans(recorder)
    from repro.server import KronServer

    server = KronServer(host="127.0.0.1", port=0, backend="numpy")
    await server.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()

    def commands() -> None:
        for line in sys.stdin:
            command = line.strip()
            if command == "stop":
                break
            if recorder is not None and command in ("trace on", "trace off"):
                loop.call_soon_threadsafe(recorder.set_enabled, command == "trace on")
        loop.call_soon_threadsafe(stop.set)

    threading.Thread(target=commands, name="commands", daemon=True).start()
    print(f"READY {server.port}", flush=True)
    try:
        await stop.wait()
    finally:
        await server.stop()
    if recorder is not None:
        recorder.set_enabled(False)
        print("SPANS " + json.dumps(recorder.export()), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    asyncio.run(serve(args.trace))


if __name__ == "__main__":
    main()
