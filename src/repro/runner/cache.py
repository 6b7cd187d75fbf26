"""Content-addressed on-disk cache for sweep-point results.

A point's cache key hashes everything that determines its result: the
function reference, its parameters, the artifact/point ids, and a
fingerprint of the ``repro`` package's source code (the Python modules
and the serve kernel's C) — so editing the simulator invalidates every
cached result while re-runs of an unchanged tree hit the cache.  Values are the JSON-normalized point results, one
file per point under ``<cache root>/<artifact>/<key>.json``.

The cache root defaults to ``.repro-cache`` and can be moved with the
``REPRO_CACHE_DIR`` environment variable or the CLI's ``--cache-dir``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from functools import lru_cache
from pathlib import Path

from repro.runner.spec import SweepPoint

_MISS = object()


#: Source suffixes whose content determines results: the Python package
#: and the compiled serve kernel's C source.
SOURCE_SUFFIXES = (".py", ".c")


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of every source file in the installed ``repro`` package."""
    import repro

    return tree_fingerprint(Path(repro.__file__).resolve().parent)


def tree_fingerprint(root: Path) -> str:
    """Hash of every ``.py`` and ``.c`` source file under ``root``.

    Build caches (``_cache`` directories, where the kernel backend
    writes its rendered C and shared objects) are skipped: they follow
    from the sources and appear as a side effect of running.
    """
    digest = hashlib.sha256()
    paths = sorted(
        path for path in root.rglob("*")
        if path.suffix in SOURCE_SUFFIXES and path.is_file()
        and "_cache" not in path.relative_to(root).parts)
    for path in paths:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def default_cache_dir() -> str:
    """Resolve the cache root (``REPRO_CACHE_DIR`` or ``.repro-cache``)."""
    return os.environ.get("REPRO_CACHE_DIR", "") or ".repro-cache"


def point_key(point: SweepPoint, code: str | None = None) -> str:
    """Content-hash cache key of one sweep point.

    Hashes everything that determines the point's result — the function
    reference, its parameters, the artifact/point ids, and the source
    ``code`` fingerprint (current tree when omitted) — so the same
    scheme keys both the on-disk JSON cache and the service's SQLite
    result store (``repro.serve.store``): a code edit moves every key,
    which is what makes stale results unservable by construction.
    """
    payload = json.dumps({
        "artifact": point.artifact,
        "point_id": point.point_id,
        "fn": point.fn,
        "params": dict(point.params),
        "code": code if code is not None else code_fingerprint(),
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


class NullCache:
    """Cache interface that never stores anything (``--no-cache``)."""

    def get(self, point: SweepPoint):
        return _MISS

    def has(self, point: SweepPoint) -> bool:
        """Whether ``get`` would hit, without reading the value
        (``repro plan``'s probe)."""
        return False

    def put(self, point: SweepPoint, value) -> None:
        pass

    @staticmethod
    def is_hit(value) -> bool:
        return value is not _MISS


class ResultCache(NullCache):
    """Directory-backed point-result cache."""

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = Path(root) if root else Path(default_cache_dir())

    def key(self, point: SweepPoint) -> str:
        return point_key(point)

    def _path(self, point: SweepPoint) -> Path:
        return self.root / point.artifact / f"{self.key(point)}.json"

    def get(self, point: SweepPoint):
        """The cached value for ``point``, or the miss sentinel."""
        path = self._path(point)
        try:
            with open(path) as f:
                entry = json.load(f)
        except (OSError, ValueError):
            return _MISS
        if entry.get("point_id") != point.point_id:
            return _MISS
        return entry.get("value")

    def has(self, point: SweepPoint) -> bool:
        return self.is_hit(self.get(point))

    def put(self, point: SweepPoint, value) -> None:
        """Persist ``value`` (already JSON-normalized) for ``point``.

        The write goes through a uniquely-named temp file + rename so
        concurrent invocations sharing a cache directory (CI shards)
        can never interleave into a corrupt entry.
        """
        path = self._path(point)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump({
                    "point_id": point.point_id,
                    "fn": point.fn,
                    "params": dict(point.params),
                    "value": value,
                }, f)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
