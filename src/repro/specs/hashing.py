"""Content addresses for experiment specs.

Two digests, two lifetimes:

* :func:`spec_hash` — canonical content address of the spec *document*
  alone (schema-normalized, key-order independent).  Stable across code
  changes; checked into ``specs/HASHES.json`` and gated in CI by
  ``repro hash --check`` exactly like the ``docs/KNOBS.md`` drift gate,
  so a semantic edit to a checked-in spec cannot land without its hash
  (and therefore the reviewer's attention) following along.
* :func:`run_fingerprint` — ``spec_hash`` combined with the runner's
  source :func:`~repro.runner.cache.code_fingerprint` and the run's
  scale (CI or paper, ``--full``).  This is the address of a concrete
  *run*: two invocations with equal fingerprints produce bit-identical
  artifacts, which is what makes sharded and resumed runs mergeable
  with confidence.

Both are computed from the schema-level model (not the YAML text), so
reordering keys, reflowing strings, or adding comments never changes a
hash while any change to overrides, filters, or artifact selection
always does.  Specs no longer carry an ``env:`` section; the hash input
keeps its empty ``"env"`` slot so every recorded digest stays valid.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.specs.model import ExperimentSpec

#: Basename of the per-directory hash lockfile next to checked-in specs.
HASHES_BASENAME = "HASHES.json"


def canonical_form(spec: ExperimentSpec) -> dict:
    """The hash input: every semantic field, nothing positional but
    the artifact entry order (which is the run order)."""
    return {
        "version": 1,
        "name": spec.name,
        "description": spec.description,
        # Always empty since specs lost ``env:``; kept so spec_hash
        # stays stable and HASHES.json / stored spec_hash values hold.
        "env": {},
        "artifacts": [{
            "artifact": entry.selector,
            "overrides": dict(entry.overrides),
            "include": list(entry.include),
            "exclude": list(entry.exclude),
        } for entry in spec.entries],
    }


def _digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def spec_hash(spec: ExperimentSpec) -> str:
    """Content address of the spec document (code-independent)."""
    return _digest(canonical_form(spec))


def run_scale(full: bool) -> str:
    """The scale a run records: ``"paper"`` under ``--full``, else ``"ci"``."""
    return "paper" if full else "ci"


def run_fingerprint(spec: ExperimentSpec, full: bool = False) -> str:
    """Content address of spec + simulator source + scale (what a run
    produces)."""
    from repro.runner.cache import code_fingerprint

    return _digest({"spec": spec_hash(spec), "code": code_fingerprint(),
                    "scale": run_scale(full)})


def hashes_path(spec_path: str) -> Path:
    """The lockfile governing ``spec_path`` (same directory)."""
    return Path(spec_path).resolve().parent / HASHES_BASENAME


def read_hashes(lock: Path) -> dict[str, str]:
    if not lock.is_file():
        return {}
    try:
        data = json.loads(lock.read_text(encoding="utf-8"))
    except ValueError:
        return {}
    return {k: v for k, v in data.items() if isinstance(v, str)}


def check_hash(spec: ExperimentSpec) -> str | None:
    """Why the lockfile disagrees with ``spec`` (None = up to date)."""
    lock = hashes_path(spec.path)
    recorded = read_hashes(lock).get(Path(spec.path).name)
    actual = spec_hash(spec)
    if recorded is None:
        return (f"{spec.path}: no recorded hash in {lock}; run"
                " `repro hash --update` and commit the result")
    if recorded != actual:
        return (f"{spec.path}: stale hash (recorded {recorded}, actual"
                f" {actual}); run `repro hash --update` and commit the"
                " result")
    return None


def update_hashes(specs: list[ExperimentSpec]) -> list[Path]:
    """Rewrite each affected lockfile with the specs' current hashes."""
    by_lock: dict[Path, list[ExperimentSpec]] = {}
    for spec in specs:
        by_lock.setdefault(hashes_path(spec.path), []).append(spec)
    written = []
    for lock, members in sorted(by_lock.items()):
        entries = read_hashes(lock)
        entries.update({Path(s.path).name: spec_hash(s) for s in members})
        lock.write_text(
            json.dumps(dict(sorted(entries.items())), indent=2) + "\n",
            encoding="utf-8")
        written.append(lock)
    return written
