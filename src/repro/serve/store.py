"""SQL-backed queryable result store for the ``repro serve`` service.

One database file absorbs every result the service ever computes, in
two tables:

* ``points`` — one row per sweep point, keyed by the same content-hash
  fingerprint the on-disk JSON cache uses
  (:func:`repro.runner.cache.point_key`: params + function + source
  fingerprint).  The store implements the runner's cache interface, so
  ``run_sweep`` reads and writes it directly — a repeated submission is
  served as cached SQL reads, bit-identical to a cold run.
* ``jobs`` — one row per completed submission (a whole artifact or
  spec), keyed by its :func:`repro.serve.jobs.job_fingerprint`, so a
  finished job's payload is returned without touching the scheduler at
  all.

Values are stored as the canonical JSON text of the already-normalized
payload (the exact representation :func:`repro.runner.spec.json_normalize`
produces, non-finite floats included), never re-encoded through SQL
types — that is what makes the write -> read round trip bit-identical.

The backend is the stdlib ``sqlite3``, one file on disk.  The store is a
cache: a file at the store path that is not an SQLite database is an
error (delete it and re-run), never migrated.  The store path defaults
to ``REPRO_SERVE_STORE`` or ``.repro-serve/results.db``.

Staleness: keys embed the source fingerprint, so a code edit makes
every previously stored row unreachable through the cache interface —
correctness never depends on flagging.  What
:meth:`ResultStore.refresh_staleness` adds is *visibility*: rows a
fingerprint bump left behind get an explicit ``stale = 1`` instead of
silently mixing results computed by different simulators.  The server
runs it at startup and before reporting /health; flagged rows remain
queryable forever (regression archaeology across code versions is a
feature, not a leak).
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.runner import cache as runner_cache
from repro.runner.spec import SweepPoint

_MISS = object()

_SCHEMA = (
    """CREATE TABLE IF NOT EXISTS points (
        key TEXT PRIMARY KEY,
        artifact TEXT NOT NULL,
        point_id TEXT NOT NULL,
        fn TEXT NOT NULL,
        params TEXT NOT NULL,
        value TEXT NOT NULL,
        code_fingerprint TEXT NOT NULL,
        stale INTEGER NOT NULL DEFAULT 0,
        created_at DOUBLE NOT NULL
    )""",
    """CREATE TABLE IF NOT EXISTS jobs (
        fingerprint TEXT PRIMARY KEY,
        kind TEXT NOT NULL,
        name TEXT NOT NULL,
        spec_hash TEXT,
        request TEXT NOT NULL,
        payload TEXT NOT NULL,
        code_fingerprint TEXT NOT NULL,
        stale INTEGER NOT NULL DEFAULT 0,
        created_at DOUBLE NOT NULL
    )""",
)

#: First keyword of the statements ``query`` accepts; everything else
#: (INSERT, UPDATE, ATTACH, PRAGMA...) is rejected up front.  A CTE can
#: still front a write (``WITH x AS (...) DELETE ...``), so ``query``
#: also runs under ``PRAGMA query_only``: SQLite itself refuses writes.
_READONLY_PREFIXES = ("select", "with", "explain")


class StoreError(Exception):
    """A store operation failed (bad SQL, unreadable store file...)."""


def default_store_path() -> str:
    """Resolve the store file (``REPRO_SERVE_STORE`` or the default)."""
    return os.environ.get("REPRO_SERVE_STORE", "") \
        or os.path.join(".repro-serve", "results.db")


class ResultStore(runner_cache.NullCache):
    """Thread-safe SQL store for point results and job payloads.

    Implements the runner's cache interface (``get``/``has``/``put``),
    so it can be handed to ``run_sweep(cache=...)`` unchanged: every
    sweep point the service executes lands here, and probe hits are
    SQL reads.

    ``code`` pins the source fingerprint used for new keys and
    staleness checks; the default (None) tracks the current tree via
    :func:`repro.runner.cache.code_fingerprint`.  Tests use explicit
    fingerprints to simulate code moving underneath stored results.
    """

    #: The only SQL backend; /health reports it.
    backend = "sqlite"

    def __init__(self, path: str | os.PathLike | None = None,
                 code: str | None = None):
        self.path = Path(path) if path else Path(default_store_path())
        self._code_override = code
        self._lock = threading.Lock()
        try:
            if self.path.parent and str(self.path.parent) not in (".", ""):
                self.path.parent.mkdir(parents=True, exist_ok=True)
            # One shared connection guarded by self._lock: the HTTP
            # server handles requests on many threads.
            self._conn = sqlite3.connect(str(self.path),
                                         check_same_thread=False)
        except Exception as exc:
            raise StoreError(
                f"cannot open result store at {self.path}: {exc}") from exc
        try:
            with self._lock:
                for statement in _SCHEMA:
                    self._conn.execute(statement)
                self._conn.commit()
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            raise StoreError(
                f"result store at {self.path} is not a usable SQLite"
                f" database ({exc}); the store is a cache: delete it and"
                " re-run") from exc

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def code(self) -> str:
        """The source fingerprint new rows are keyed under."""
        if self._code_override is not None:
            return self._code_override
        return runner_cache.code_fingerprint()

    # -- the runner cache interface -----------------------------------

    def get(self, point: SweepPoint):
        """The stored value for ``point`` at the current source
        fingerprint, or the miss sentinel.

        The key embeds the fingerprint, so results computed under an
        older tree can never be served here — they simply miss.
        """
        key = runner_cache.point_key(point, self.code())
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM points WHERE key = ? AND stale = 0",
                (key,)).fetchone()
        if row is None:
            return _MISS
        return json.loads(row[0])

    def has(self, point: SweepPoint) -> bool:
        key = runner_cache.point_key(point, self.code())
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM points WHERE key = ? AND stale = 0",
                (key,)).fetchone()
        return row is not None

    def put(self, point: SweepPoint, value: Any) -> None:
        """Persist one JSON-normalized point result.

        The stored text is ``json.dumps`` of the normalized value —
        the same canonical form a cache hit or a worker round-trip
        produces — so reading it back is bit-identical by construction.
        """
        code = self.code()
        key = runner_cache.point_key(point, code)
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO points VALUES (?,?,?,?,?,?,?,?,?)",
                (key, point.artifact, point.point_id, point.fn,
                 json.dumps(dict(point.params), sort_keys=True),
                 json.dumps(value), code, 0, time.time()))
            self._conn.commit()

    @staticmethod
    def is_hit(value) -> bool:
        return value is not _MISS

    # -- job payloads -------------------------------------------------

    def record_job(self, fingerprint: str, kind: str, name: str,
                   request: Mapping[str, Any], payload: Any,
                   spec_hash: str | None = None) -> None:
        """Persist a completed submission's combined payload."""
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO jobs VALUES (?,?,?,?,?,?,?,?,?)",
                (fingerprint, kind, name, spec_hash,
                 json.dumps(dict(request), sort_keys=True),
                 json.dumps(payload), self.code(), 0, time.time()))
            self._conn.commit()

    def get_job_payload(self, fingerprint: str):
        """A completed job's payload, or None.

        Only rows written under the *current* source fingerprint
        qualify — a stale row is never silently served as a hit.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM jobs WHERE fingerprint = ?"
                " AND stale = 0 AND code_fingerprint = ?",
                (fingerprint, self.code())).fetchone()
        if row is None:
            return None
        return json.loads(row[0])

    # -- staleness ----------------------------------------------------

    def refresh_staleness(self) -> dict[str, Any]:
        """Mark rows from other source fingerprints stale; report.

        Flagged rows stay in the store — historical results remain
        queryable with SQL (``WHERE stale = 1``) — but no read path
        serves them as hits.  Returns the /health ``staleness`` dict:
        the current fingerprint, the rows this call newly flagged, and
        the stale totals after it.
        """
        code = self.code()
        report: dict[str, Any] = {"code_fingerprint": code}
        with self._lock:
            for table in ("points", "jobs"):
                cursor = self._conn.execute(
                    f"UPDATE {table} SET stale = 1 WHERE stale = 0"
                    " AND code_fingerprint != ?", (code,))
                report[f"{table}_flagged"] = cursor.rowcount
            self._conn.commit()
            for table in ("points", "jobs"):
                report[f"{table}_stale"] = self._conn.execute(
                    f"SELECT count(*) FROM {table} WHERE stale = 1"
                ).fetchone()[0]
        return report

    def counts(self) -> dict[str, int]:
        """Row counts for /health: total and stale, per table."""
        out = {}
        with self._lock:
            for table in ("points", "jobs"):
                total = self._conn.execute(
                    f"SELECT count(*) FROM {table}").fetchone()[0]
                stale = self._conn.execute(
                    f"SELECT count(*) FROM {table} WHERE stale = 1"
                ).fetchone()[0]
                out[table] = int(total)
                out[f"{table}_stale"] = int(stale)
        return out

    # -- ad-hoc SQL ---------------------------------------------------

    def query(self, sql: str,
              params: Sequence[Any] = ()) -> dict[str, Any]:
        """Run one read-only SQL statement; ``{"columns", "rows"}``.

        Rejects anything that is not a single SELECT-shaped statement,
        and runs the statement under ``PRAGMA query_only`` so SQLite
        refuses any write it hides (a CTE in front of a DELETE): the
        service's query surface is read-only by contract.
        """
        statement = sql.strip().rstrip(";")
        if ";" in statement:
            raise StoreError("query must be a single SQL statement")
        first = statement.split(None, 1)[0].lower() if statement else ""
        if first not in _READONLY_PREFIXES:
            raise StoreError(
                f"query must be read-only (got {first or 'nothing'!r};"
                f" expected one of: {', '.join(_READONLY_PREFIXES)})")
        with self._lock:
            self._conn.execute("PRAGMA query_only = ON")
            try:
                cursor = self._conn.execute(statement, tuple(params))
                rows = cursor.fetchall()
                columns = [d[0] for d in cursor.description or ()]
            except Exception as exc:  # SQL errors, refused writes
                raise StoreError(f"query failed: {exc}") from None
            finally:
                self._conn.execute("PRAGMA query_only = OFF")
        return {"columns": columns, "rows": [list(row) for row in rows]}
