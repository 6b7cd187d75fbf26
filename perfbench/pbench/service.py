"""The ``serve-mixed`` workload: a closed loop against an in-process server.

Set-up opens a fresh result store, binds ``make_server(port=0)`` and
primes the store with a few fig02 submissions.  The load then runs in
*windows* of two client threads in a closed loop: a client sends its
next request only when the previous reply arrived.  A window has two
phases:

* *reads*: both clients send ``READS_PER_WINDOW`` requests each, in a
  seeded order: store-answered ``/submit``s of primed requests
  (``cached``) and ``/query`` SQL over the primed rows (``query``),
  four to one;
* *writes*: once both are done, one client sends ``COLD_PER_WINDOW``
  cold ``/submit``s of fig02, each with a never-repeated ``accesses``
  override, back to back.  Each runs ``run_sweep`` and writes rows.

Every submit payload is later compared bit for bit with a direct
``execute_request`` of the same request on a throwaway store, and every
query answer with the answer the store gave right after priming.

The mix is an assumed design point, not measured traffic: the repo has
no record of how ``repro serve`` is used.  Reads never run beside a
sweep, and sweeps never beside each other.  On one CPU, a read beside a
sweep waits for the interpreter lock a varying number of times, and two
sweeps side by side share it in proportions that depend on where the
seed places them; either made the latencies swing between runs.  The
four-to-one share of cached submits to queries is assumed.  The phase
sizes give the two phases about equal time.  ``PRIMED`` only sets how
many distinct fingerprints the cached submits draw from; 6 keeps
priming (one cold run each) a small part of set-up.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field

ARTIFACT = "fig02"
CLIENTS = 2
#: The client that sends the cold submits.
WRITER = 0
#: Reads each client sends per window, and cold submits per window.
READS_PER_WINDOW = 100
COLD_PER_WINDOW = 2
#: Cached submits per query among the reads.
CACHED_PER_QUERY = 4
#: Primed ``accesses`` overrides (cached submits draw from these).
PRIMED = 6
ACCESS_RANGE = (1500, 1800)
#: Windows a plan has fresh cold requests for.
MAX_WINDOWS = 100
REPLY_TIMEOUT_S = 120.0

QUERIES = (
    "SELECT kind, name, request FROM jobs WHERE fingerprint = ?",
    "SELECT point_id, value FROM points WHERE params LIKE ?"
    " ORDER BY point_id",
    "SELECT artifact, count(*), min(point_id) FROM points"
    " WHERE params LIKE ? GROUP BY artifact",
)


def _accesses_param(accesses: int) -> str:
    return f'%"accesses": {accesses},%'


@dataclass
class Plan:
    """The seeded inputs: primed requests, the cold requests, and each
    client's reads."""

    primed: list[int]
    cold: list[int]
    seed: int

    def writes(self, index: int) -> list[tuple[str, object]]:
        """The cold submits of window ``index``."""
        first = index * COLD_PER_WINDOW
        return [("cold", a) for a in self.cold[first:first
                                                + COLD_PER_WINDOW]]

    def reads(self, client: int, index: int) -> list[tuple[str, object]]:
        """Client ``client``'s reads in window ``index``."""
        rng = random.Random(f"serve-mixed/{self.seed}/{client}/{index}")
        reqs: list[tuple[str, object]] = []
        for _ in range(READS_PER_WINDOW):
            if rng.randrange(CACHED_PER_QUERY + 1):
                reqs.append(("cached", rng.choice(self.primed)))
            else:
                reqs.append(("query", (rng.randrange(len(QUERIES)),
                                       rng.choice(self.primed))))
        return reqs


def make_plan(seed: int) -> Plan:
    rng = random.Random(f"serve-mixed/{seed}")
    values = rng.sample(range(*ACCESS_RANGE),
                        PRIMED + MAX_WINDOWS * COLD_PER_WINDOW)
    return Plan(primed=values[:PRIMED], cold=values[PRIMED:], seed=seed)


def submit_body(accesses: int) -> dict:
    return {"artifact": ARTIFACT, "overrides": {"accesses": accesses}}


@dataclass
class Reply:
    kind: str
    arg: object
    seconds: float
    body: object = None
    error: str | None = None


@dataclass
class Service:
    """One running server with its store, and what priming recorded."""

    server: object
    thread: threading.Thread
    workdir: str
    fingerprints: dict[int, str] = field(default_factory=dict)
    expected_queries: dict[tuple[int, int], dict] = field(default_factory=dict)

    @property
    def backend(self) -> str:
        return self.server.store.backend

    def close(self) -> None:
        self.server.close()
        self.server.queue.shutdown(wait=True)
        self.thread.join(timeout=30)
        shutil.rmtree(self.workdir, ignore_errors=True)


def start(plan: Plan, work_root: str) -> Service:
    """Open a fresh store, bind the server, and prime it (set-up)."""
    from repro.serve.client import ServiceClient
    from repro.serve.server import make_server, serve_in_thread
    from repro.serve.store import ResultStore

    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="serve-", dir=work_root)
    store = ResultStore(os.path.join(workdir, "results.db"))
    server = make_server(port=0, store=store)
    service = Service(server, serve_in_thread(server), workdir)
    client = ServiceClient(server.url, timeout=REPLY_TIMEOUT_S)
    for accesses in plan.primed:
        reply = client.submit(**submit_body(accesses), wait=REPLY_TIMEOUT_S)
        if reply.get("state") != "done":
            raise RuntimeError(f"priming {accesses} failed: {reply}")
        service.fingerprints[accesses] = reply["fingerprint"]
    for accesses in plan.primed:
        for q in range(len(QUERIES)):
            service.expected_queries[(q, accesses)] = json.loads(json.dumps(
                store.query(QUERIES[q], _query_params(service, q, accesses))))
    return service


def _query_params(service: Service, q: int, accesses: int) -> list:
    if q == 0:
        return [service.fingerprints[accesses]]
    return [_accesses_param(accesses)]


def _send(client, service: Service, kind: str, arg) -> object:
    if kind == "query":
        q, accesses = arg
        return client.query(QUERIES[q], _query_params(service, q, accesses))
    reply = client.submit(**submit_body(arg), wait=REPLY_TIMEOUT_S)
    if reply.get("state") != "done":
        raise RuntimeError(f"submit ended {reply.get('state')}:"
                           f" {reply.get('error')}")
    if reply.get("cached") != (kind == "cached"):
        raise RuntimeError(f"{kind} submit answered with"
                           f" cached={reply.get('cached')}")
    return reply["result"]


def run_window(service: Service, plan: Plan, index: int,
               on_request=None) -> tuple[list[Reply], float]:
    """Window ``index``: both clients' reads, then the cold submits.
    Returns the replies and the window's wall time."""
    from repro.serve.client import ServiceClient

    replies: list[list[Reply]] = [[] for _ in range(CLIENTS)]
    reads_done = threading.Barrier(CLIENTS)

    def client_loop(c: int) -> None:
        client = ServiceClient(service.server.url, timeout=REPLY_TIMEOUT_S)
        out = replies[c]
        requests = plan.reads(c, index)
        for phase in ("reads", "writes"):
            for kind, arg in requests:
                if on_request is not None:
                    on_request(c, len(out))
                t0 = time.perf_counter()
                try:
                    body = _send(client, service, kind, arg)
                    out.append(Reply(kind, arg, time.perf_counter() - t0,
                                     body))
                except Exception as exc:  # counted, never fatal
                    out.append(Reply(kind, arg, time.perf_counter() - t0,
                                     error=f"{type(exc).__name__}: {exc}"))
            if phase == "reads":
                reads_done.wait()
                requests = plan.writes(index) if c == WRITER else []

    threads = [threading.Thread(target=client_loop, args=(c,),
                                name=f"perfbench-client-{c}")
               for c in range(CLIENTS)]
    start_at = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [r for out in replies for r in out], \
        time.perf_counter() - start_at


def check_replies(service: Service, replies: list[Reply],
                  work_root: str) -> list[str | None]:
    """One verdict per reply (None = correct), outside the timed region.

    Submit payloads are compared with ``payloads_equal`` against a
    direct ``execute_request`` on a throwaway store (memoized per
    request); query answers against the post-priming answer.
    """
    from repro.serve.jobs import execute_request, normalize_request
    from repro.serve.store import ResultStore

    payloads_equal = load_payloads_equal()
    scratch = tempfile.mkdtemp(prefix="direct-", dir=work_root)
    direct: dict[int, object] = {}
    verdicts: list[str | None] = []
    try:
        for reply in replies:
            if reply.error is not None:
                verdicts.append(reply.error)
                continue
            if reply.kind == "query":
                expected = service.expected_queries[reply.arg]
                verdicts.append(None if payloads_equal(reply.body, expected)
                                else f"query {reply.arg} answered"
                                     f" {reply.body!r}")
                continue
            if reply.arg not in direct:
                store = ResultStore(os.path.join(
                    scratch, f"direct-{reply.arg}.db"))
                try:
                    direct[reply.arg] = json.loads(json.dumps(execute_request(
                        normalize_request(submit_body(reply.arg)), store)))
                finally:
                    store.close()
            verdicts.append(None if payloads_equal(reply.body,
                                                   direct[reply.arg])
                            else f"{reply.kind} submit {reply.arg}: payload"
                                 " differs from a direct execute_request")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return verdicts


def load_payloads_equal():
    """``tools/compare_results.payloads_equal`` from the checkout."""
    import importlib.util

    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    path = os.path.join(root, "tools", "compare_results.py")
    spec = importlib.util.spec_from_file_location("compare_results", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.payloads_equal
