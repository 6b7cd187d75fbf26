"""Async job queue with in-flight dedupe for the ``repro serve`` service.

A submission names an artifact (optionally with overrides and a point
filter) or carries a whole spec document.  Its identity is its
:func:`job_fingerprint` — the normalized request hashed together with
the source :func:`~repro.runner.cache.code_fingerprint` (for specs, PR
6's ``run_fingerprint`` = spec_hash + code).  The queue guarantees:

* **Coalescing.**  While a fingerprint is in flight, every further
  submission of it attaches to the running job — N concurrent
  identical requests execute ``run_sweep`` exactly once, and all N
  clients read the identical payload.
* **Store-first.**  A fingerprint whose payload already sits in the
  result store is answered as a cached SQL read without touching the
  scheduler at all.
* **Bounded execution.**  Misses run on a fixed worker pool
  (``REPRO_SERVE_WORKERS``); every sweep point they produce lands in
  the store, so even partially overlapping requests reuse each other's
  points.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import tempfile
import threading
import time
import traceback
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.runner import registry
from repro.runner.scheduler import run_sweep
from repro.serve.store import ResultStore

#: Request fields that participate in the fingerprint (everything
#: semantic; transport fields like ``wait`` never reach the hash).
_FINGERPRINT_FIELDS = ("kind", "artifact", "overrides", "points", "spec")

#: Finished jobs the queue keeps for ``/status`` and ``/jobs``; older
#: finished jobs are forgotten, oldest first (their ids then read as
#: unknown, and their payloads stay in the store under the fingerprint).
#: In-flight jobs are always kept.
FINISHED_JOBS_KEPT = 1024


def default_workers() -> int:
    """Worker-pool width (``REPRO_SERVE_WORKERS``, default 2)."""
    try:
        return max(1, int(os.environ.get("REPRO_SERVE_WORKERS", "2")))
    except ValueError:
        return 2


def normalize_request(request: Mapping[str, Any]) -> dict[str, Any]:
    """Canonical submission dict; raises ``ValueError`` on a bad shape."""
    if not isinstance(request, Mapping):
        raise ValueError("submission must be a JSON object")
    spec_text = request.get("spec")
    artifact = request.get("artifact")
    if bool(spec_text) == bool(artifact):
        raise ValueError(
            "submission needs exactly one of 'artifact' (an artifact id)"
            " or 'spec' (a spec document's YAML text)")
    overrides = request.get("overrides") or {}
    if not isinstance(overrides, Mapping):
        raise ValueError("'overrides' must be an object of keyword"
                         " arguments for the sweep's point builder")
    points = request.get("points")
    if points is not None:
        if (not isinstance(points, (list, tuple))
                or not all(isinstance(p, str) for p in points)):
            raise ValueError("'points' must be a list of point ids")
        points = sorted(points)
    if spec_text is not None and not isinstance(spec_text, str):
        raise ValueError("'spec' must be the YAML text of a spec file")
    if artifact is not None and not isinstance(artifact, str):
        raise ValueError("'artifact' must be an artifact id string")
    kind = "spec" if spec_text else ("point" if points else "artifact")
    normalized = {
        "kind": kind,
        "artifact": artifact,
        "overrides": json.loads(json.dumps(dict(overrides))),
        "points": points,
        "spec": spec_text,
    }
    return normalized


def job_fingerprint(request: Mapping[str, Any],
                    code: str | None = None) -> str:
    """Content address of one submission under one source tree."""
    from repro.runner.cache import code_fingerprint

    payload = {key: request.get(key) for key in _FINGERPRINT_FIELDS}
    payload["code"] = code if code is not None else code_fingerprint()
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


@dataclass
class Job:
    """One tracked submission (shared by every coalesced client)."""

    job_id: str
    fingerprint: str
    request: dict[str, Any]
    state: str = "queued"  # queued -> running -> done | failed
    cached: bool = False
    #: Submissions answered by this job beyond the one that created it.
    coalesced: int = 0
    error: str | None = None
    created_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    done: threading.Event = field(default_factory=threading.Event,
                                  repr=False)

    def describe(self) -> dict[str, Any]:
        """The JSON shape /status and /submit return."""
        return {
            "job_id": self.job_id,
            "fingerprint": self.fingerprint,
            "kind": self.request["kind"],
            "artifact": self.request.get("artifact"),
            "state": self.state,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "error": self.error,
        }


def execute_request(request: Mapping[str, Any], store: ResultStore,
                    jobs: int = 1) -> dict[str, Any]:
    """Run one normalized submission through the sweep scheduler.

    This is the queue's default runner (tests inject spies around it).
    Every evaluated point goes through ``store`` — the cache argument —
    so the payload is assembled from exactly the rows the store now
    holds, and a later identical run is pure SQL reads.
    """
    if request["kind"] == "spec":
        return _execute_spec(request, store, jobs)
    spec = registry.get(request["artifact"])  # KeyError: did-you-mean
    only = request["points"]
    outcome = run_sweep(spec, jobs=jobs, cache=store,
                        overrides=request["overrides"], only=only,
                        do_combine=only is None)
    if not outcome.ok:
        raise RuntimeError(outcome.error)
    payload: dict[str, Any] = {
        "kind": request["kind"],
        "artifact": spec.artifact,
        "title": spec.title,
        "points": outcome.points,
        "selected": outcome.selected,
    }
    if only is None:
        payload["result"] = outcome.result
    else:
        built = {p.point_id: p for p in
                 spec.build_points(**dict(request["overrides"]))}
        unknown = sorted(set(only) - set(built))
        if unknown:
            raise KeyError(
                f"unknown point id(s) for {spec.artifact!r}:"
                f" {', '.join(unknown)}")
        payload["values"] = {pid: store.get(built[pid]) for pid in only}
    return payload


def _execute_spec(request: Mapping[str, Any], store: ResultStore,
                  jobs: int) -> dict[str, Any]:
    """Run a submitted spec document (all entries, combined)."""
    from repro.specs import applied_env, load_and_compile, spec_hash

    # The loader is path-based (line-anchored errors); give the posted
    # text a real file for the duration of the run.
    with tempfile.NamedTemporaryFile(
            "w", suffix=".yaml", prefix="serve-spec-",
            delete=False) as handle:
        handle.write(request["spec"])
        path = handle.name
    try:
        compiled = load_and_compile(path)
        results: dict[str, Any] = {}
        with applied_env(compiled.spec.env):
            for entry in compiled.entries:
                sweep = entry.sweep
                only = tuple(p.point_id for p in entry.selected) \
                    if entry.filtered else None
                outcome = run_sweep(sweep, jobs=jobs, cache=store,
                                    overrides=entry.overrides, only=only)
                if not outcome.ok:
                    raise RuntimeError(outcome.error)
                results[sweep.artifact] = outcome.result
        return {
            "kind": "spec",
            "spec": compiled.spec.name,
            "spec_hash": spec_hash(compiled.spec),
            "artifacts": results,
        }
    finally:
        os.unlink(path)


class JobQueue:
    """Bounded worker pool with fingerprint-level dedupe."""

    def __init__(self, store: ResultStore, workers: int | None = None,
                 runner: Callable[..., dict] | None = None,
                 sweep_jobs: int = 1):
        self.store = store
        self.workers = workers if workers is not None else default_workers()
        self.runner = runner if runner is not None else execute_request
        self.sweep_jobs = sweep_jobs
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve")
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, Job] = {}
        self._finished: deque[str] = deque()
        self._ids = itertools.count(1)
        #: Monotonic counters for /health and the dedupe tests.
        self.stats = {"submitted": 0, "coalesced": 0, "cached": 0,
                      "executed": 0, "failed": 0}

    # -- submission ---------------------------------------------------

    def submit(self, raw_request: Mapping[str, Any]) -> Job:
        """Enqueue (or attach to, or answer from the store) a request.

        Raises ``ValueError`` on a malformed submission and ``KeyError``
        (with a did-you-mean) on an unknown artifact id — shape problems
        surface at submit time, not as failed jobs.
        """
        request = normalize_request(raw_request)
        if request["kind"] != "spec":
            registry.get(request["artifact"])  # KeyError: did-you-mean
        fingerprint = job_fingerprint(request, self.store.code())
        with self._lock:
            self.stats["submitted"] += 1
            running = self._inflight.get(fingerprint)
            if running is not None:
                running.coalesced += 1
                self.stats["coalesced"] += 1
                return running
            job = Job(job_id=f"job-{next(self._ids)}",
                      fingerprint=fingerprint, request=request)
            self._jobs[job.job_id] = job
            if self.store.get_job_payload(fingerprint) is not None:
                job.state = "done"
                job.cached = True
                job.finished_at = time.time()
                job.done.set()
                self.stats["cached"] += 1
                self._retire(job)
                return job
            self._inflight[fingerprint] = job
        self._pool.submit(self._run, job)
        return job

    def _run(self, job: Job) -> None:
        job.state = "running"
        job.started_at = time.time()
        try:
            payload = self.runner(job.request, self.store,
                                  jobs=self.sweep_jobs)
            self.store.record_job(
                job.fingerprint, job.request["kind"],
                job.request.get("artifact") or payload.get("spec", "?"),
                job.request, payload, spec_hash=payload.get("spec_hash"))
            job.state = "done"
            with self._lock:
                self.stats["executed"] += 1
        except Exception:
            job.state = "failed"
            job.error = traceback.format_exc()
            with self._lock:
                self.stats["failed"] += 1
        finally:
            job.finished_at = time.time()
            with self._lock:
                self._inflight.pop(job.fingerprint, None)
                self._retire(job)
            job.done.set()

    def _retire(self, job: Job) -> None:
        """Record ``job`` as finished (lock held), forgetting the oldest
        finished jobs beyond :data:`FINISHED_JOBS_KEPT`."""
        finished = self._finished
        finished.append(job.job_id)
        while len(finished) > FINISHED_JOBS_KEPT:
            del self._jobs[finished.popleft()]

    # -- inspection ---------------------------------------------------

    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job id {job_id!r}") from None

    def jobs(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until ``job_id`` finishes (or ``timeout`` elapses)."""
        job = self.get(job_id)
        job.done.wait(timeout)
        return job

    def result(self, job_id: str):
        """A finished job's payload from the store (None if unfinished
        or failed)."""
        return self.payload(self.get(job_id))

    def payload(self, job: Job):
        """:meth:`result` for a job already in hand, which answers even
        after the queue has forgotten the job."""
        if job.state != "done":
            return None
        return self.store.get_job_payload(job.fingerprint)

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)
