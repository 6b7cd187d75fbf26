"""Simulation-as-a-service: the persistent ``repro serve`` layer.

Three pieces turn the cold-CLI sweep runner into a long-running
service:

* :mod:`repro.serve.store` — a single stdlib ``sqlite3`` result store
  into which every sweep point and every combined artifact lands,
  keyed by its content-hash cache fingerprint.  Repeated submissions become cached SQL reads and
  results are queryable across experiments (``repro query``).
* :mod:`repro.serve.jobs` — an async job queue in front of
  :func:`repro.runner.scheduler.run_sweep`: submissions are coalesced
  by run fingerprint while in flight (N concurrent identical requests
  execute once) and run on a bounded worker pool.
* :mod:`repro.serve.server` / :mod:`repro.serve.client` — a stdlib
  ``ThreadingHTTPServer`` exposing submit/status/result/query/health
  plus the thin ``repro submit`` / ``repro query`` client.

Bit-identity is the contract throughout: a payload read back from the
store compares equal (``tools/compare_results.py`` semantics) to the
artifact dict a fresh ``repro run`` produces.  Staleness is tracked
per source fingerprint (:meth:`ResultStore.refresh_staleness`): a code
edit moves every key, so stale rows can be flagged and re-populated but
never silently served.
"""

from repro.serve.client import ServiceClient, ServiceError
from repro.serve.jobs import Job, JobQueue, job_fingerprint
from repro.serve.store import ResultStore, StoreError, default_store_path

__all__ = [
    "Job",
    "JobQueue",
    "ResultStore",
    "ServiceClient",
    "ServiceError",
    "StoreError",
    "default_store_path",
    "job_fingerprint",
]
