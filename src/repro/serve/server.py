"""The persistent ``repro serve`` HTTP service (stdlib only).

A ``ThreadingHTTPServer`` wrapping one :class:`~repro.serve.store.ResultStore`
and one :class:`~repro.serve.jobs.JobQueue`:

============================  =======================================
``GET  /health``              liveness + backend, queue stats, store
                              row counts, staleness report
``POST /submit``              enqueue a submission; body may set
                              ``wait`` (seconds) to block for the
                              payload inline
``GET  /status/<job-id>``     one job's state (non-blocking)
``GET  /jobs``                every tracked job's state
``GET  /result/<job-id>``     a job's payload; ``?wait=S`` blocks
``POST /query``               read-only SQL over the result store
============================  =======================================

Requests and responses are JSON.  Payloads may contain non-finite
floats; they are emitted as the ``NaN``/``Infinity`` tokens Python's
``json`` produces and parses — the same canonical text the store and
cache hold, so service reads stay bit-identical to cold runs.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.serve.jobs import JobQueue
from repro.serve.store import ResultStore, StoreError

#: Largest request body /submit or /query accepts (a spec document or
#: an SQL string; nobody posts megabytes of YAML at a simulator).
_MAX_BODY = 4 << 20


def default_port() -> int:
    """Service port (``REPRO_SERVE_PORT``, default 8642)."""
    try:
        return int(os.environ.get("REPRO_SERVE_PORT", "8642"))
    except ValueError:
        return 8642


class ServiceServer(ThreadingHTTPServer):
    """HTTP server owning the store and the job queue."""

    daemon_threads = True
    #: The whole point of the service is absorbing bursts of identical
    #: submissions; socketserver's default listen backlog of 5 resets
    #: connections the dedupe logic would have answered for free.
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], store: ResultStore,
                 queue: JobQueue, verbose: bool = False):
        self.store = store
        self.queue = queue
        self.verbose = verbose
        self.started_at = time.time()
        super().__init__(address, _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        self.shutdown()
        self.server_close()
        self.queue.shutdown(wait=False)
        self.store.close()


class _Handler(BaseHTTPRequestHandler):
    server: ServiceServer

    # -- plumbing -----------------------------------------------------

    def log_message(self, format: str, *args) -> None:
        if self.server.verbose:
            sys.stderr.write("serve: %s\n" % (format % args))

    def _send(self, status: int, payload: dict[str, Any]) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send(status, {"error": message})

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY:
            raise ValueError(f"request body over {_MAX_BODY} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        return json.loads(raw)

    def _query_params(self) -> dict[str, str]:
        from urllib.parse import parse_qsl, urlsplit

        return dict(parse_qsl(urlsplit(self.path).query))

    def _route(self) -> tuple[str, ...]:
        from urllib.parse import urlsplit

        return tuple(p for p in urlsplit(self.path).path.split("/") if p)

    # -- GET ----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server contract)
        try:
            route = self._route()
            if route == ("health",):
                return self._health()
            if route == ("jobs",):
                return self._send(200, {"jobs": [
                    job.describe() for job in self.server.queue.jobs()]})
            if len(route) == 2 and route[0] == "status":
                return self._status(route[1])
            if len(route) == 2 and route[0] == "result":
                return self._result(route[1])
            self._error(404, f"unknown endpoint GET /{'/'.join(route)}")
        except Exception as exc:  # never kill the handler thread
            self._error(500, f"{type(exc).__name__}: {exc}")

    def _health(self) -> None:
        # Flag before counting, so "rows" sees this sweep's flags.
        staleness = self.server.store.refresh_staleness()
        self._send(200, {
            "ok": True,
            "backend": self.server.store.backend,
            "store": str(self.server.store.path),
            "uptime_s": round(time.time() - self.server.started_at, 3),
            "workers": self.server.queue.workers,
            "queue": dict(self.server.queue.stats),
            "rows": self.server.store.counts(),
            "staleness": staleness,
        })

    def _status(self, job_id: str) -> None:
        try:
            job = self.server.queue.get(job_id)
        except KeyError as exc:
            return self._error(404, exc.args[0])
        self._send(200, job.describe())

    def _result(self, job_id: str) -> None:
        params = self._query_params()
        try:
            wait = float(params["wait"]) if "wait" in params else None
        except ValueError:
            return self._error(400, "'wait' must be a number of seconds")
        try:
            job = self.server.queue.get(job_id)
        except KeyError as exc:
            return self._error(404, exc.args[0])
        if wait is not None:
            job.done.wait(wait)
        if job.state == "failed":
            return self._send(500, job.describe())
        if job.state != "done":
            return self._send(202, job.describe())
        self._send(200, job.describe()
                   | {"result": self.server.queue.payload(job)})

    # -- POST ---------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (http.server contract)
        try:
            route = self._route()
            if route == ("submit",):
                return self._submit()
            if route == ("query",):
                return self._query()
            self._error(404, f"unknown endpoint POST /{'/'.join(route)}")
        except ValueError as exc:
            self._error(400, str(exc))
        except Exception as exc:
            self._error(500, f"{type(exc).__name__}: {exc}")

    def _submit(self) -> None:
        body = self._read_json()
        wait = body.pop("wait", None) if isinstance(body, dict) else None
        if wait is not None and not isinstance(wait, (int, float)):
            return self._error(400, "'wait' must be a number of seconds")
        try:
            job = self.server.queue.submit(body)
        except (ValueError, KeyError) as exc:
            return self._error(400, str(exc.args[0] if exc.args else exc))
        if wait:
            # Wait on the job in hand: the queue may forget a finished
            # job (a store-answered one at once) under a submit burst.
            job.done.wait(float(wait))
        response = job.describe()
        if job.state == "done":
            response["result"] = self.server.queue.payload(job)
        status = 500 if job.state == "failed" else 200
        self._send(status, response)

    def _query(self) -> None:
        body = self._read_json()
        sql = body.get("sql") if isinstance(body, dict) else None
        if not sql or not isinstance(sql, str):
            return self._error(400, "body must be {\"sql\": \"SELECT ...\"}")
        params = body.get("params") or ()
        try:
            table = self.server.store.query(sql, params)
        except StoreError as exc:
            return self._error(400, str(exc))
        self._send(200, table)


def make_server(host: str = "127.0.0.1", port: int | None = None,
                store: ResultStore | None = None,
                queue: JobQueue | None = None,
                workers: int | None = None,
                verbose: bool = False) -> ServiceServer:
    """Build a ready-to-run service (port 0 = ephemeral, for tests)."""
    store = store if store is not None else ResultStore()
    queue = queue if queue is not None else JobQueue(store, workers=workers)
    server = ServiceServer(
        (host, port if port is not None else default_port()),
        store, queue, verbose=verbose)
    return server


def serve_in_thread(server: ServiceServer) -> threading.Thread:
    """Run ``server`` on a daemon thread (tests and embedding)."""
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-serve", daemon=True)
    thread.start()
    return thread
