"""``pbs-repro serve`` with the benchmark's layer spans installed.

Builds the same ``PredictorService`` → ``make_server`` → ``serve_forever``
stack as the CLI's ``serve`` command (default settings, spot checks on),
after wrapping the layer boundaries with :mod:`tracer`.  It prints the same
"serving on" line as the CLI, serves until ``stop`` arrives on standard input
(or it closes; ``reset`` zeroes the totals), then prints one JSON object
with the span totals and the process's CPU seconds since the last reset,
and exits.  The top-level spans are the units of work the server runs on
its threads: accepting a connection and starting its thread
(``get_request`` and ``process_request`` on the serving thread), one
connection on its own thread (``process_request_thread``: the request, then
closing the socket) and one drain of the spot-check queue
(``PredictorService.run_pending_spot_checks``).  What the process does
outside them (the selector loop, thread start-up and exit, idle wake-ups)
is what the coverage figure leaves out.

Run from the repository root: ``python3 perfbench/traced_server.py``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, install_layer_spans  # noqa: E402


def main() -> int:
    tracer = Tracer()
    install_layer_spans(tracer)
    from repro.serving import PredictorService, make_server, serve_forever
    from repro.serving.http import PredictorServer

    for method in ("get_request", "process_request"):
        original = getattr(PredictorServer, method)
        setattr(PredictorServer, method, tracer.wrap(original, "serving.accept"))
    PredictorServer.process_request_thread = tracer.wrap(
        PredictorServer.process_request_thread, "serving.connection"
    )
    PredictorServer.finish_request = tracer.wrap(
        PredictorServer.finish_request, "serving.request"
    )
    PredictorService.run_pending_spot_checks = tracer.wrap(
        PredictorService.run_pending_spot_checks, "serving.spot_check_drain"
    )
    service = PredictorService()
    service.register_tenant("default", "LNKD-SSD")
    service.start_spot_check_worker()
    server = make_server(service, port=0)
    handler = server.RequestHandlerClass
    handler.do_GET = tracer.wrap(handler.do_GET, "serving.dispatch")
    handler.do_POST = tracer.wrap(handler.do_POST, "serving.dispatch")
    handler.handle = tracer.wrap(handler.handle, "serving.http")
    handler.parse_request = tracer.wrap(handler.parse_request, "serving.parse")
    handler.setup = tracer.wrap(handler.setup, "serving.socket")
    handler.finish = tracer.wrap(handler.finish, "serving.socket")
    host, port = server.server_address[:2]
    print(f"pbs-repro serving on http://{host}:{port}", flush=True)

    tracer.start_gc_timing()
    thread = threading.Thread(target=serve_forever, args=(server,), daemon=True)
    thread.start()
    cpu_start = time.process_time()
    for line in sys.stdin:
        if line.strip() != "reset":
            break
        tracer.reset()
        cpu_start = time.process_time()
    cpu_seconds = time.process_time() - cpu_start
    server.shutdown()
    thread.join(timeout=10.0)
    service.stop_spot_check_worker()
    tracer.stop_gc_timing()

    spans = {
        name: {"calls": calls, "total_s": total, "self_s": own}
        for name, (calls, total, own) in tracer.totals.items()
    }
    print(
        json.dumps(
            {
                "spans": spans,
                "counts": tracer.counts,
                "roots": tracer.roots,
                "cpu_seconds": cpu_seconds,
                "gc_seconds": tracer.gc_seconds,
                "gc_collections": tracer.gc_collections,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
