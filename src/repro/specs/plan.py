"""``repro plan``: what a spec run would do, before paying for it.

For every artifact in a compiled spec the plan reports the enumerated
point count, how many of those points are already in the result cache
(the same content-addressed probe ``repro run`` would make), and a
runtime estimate extrapolated from the sweep's declared cold-run cost
(:attr:`~repro.runner.spec.SweepSpec.runtime`) — so "how expensive is
this sweep, and how much of it is already paid for?" is answerable
without running anything.  With a shard selection the plan covers just
that shard's slice, which is how CI sizes its matrix.
"""

from __future__ import annotations

import re
from typing import Mapping

from repro.runner.cache import NullCache
from repro.specs.hashing import run_fingerprint, run_scale, spec_hash
from repro.specs.model import CompiledSpec

_RUNTIME = re.compile(r"~?\s*([0-9.]+)\s*(s|sec|min|m)\b")


def parse_runtime(text: str) -> float | None:
    """Seconds encoded in a ``SweepSpec.runtime`` string (``"~45 s"``)."""
    match = _RUNTIME.search(text or "")
    if not match:
        return None
    value = float(match.group(1))
    return value * 60.0 if match.group(2) in ("min", "m") else value


def plan_spec(compiled: CompiledSpec, cache: NullCache,
              shard: Mapping[str, tuple[str, ...]] | None = None) -> dict:
    """Assemble the plan report (JSON-shaped; the CLI renders it)."""
    rows = []
    for entry in compiled.entries:
        sweep = entry.sweep
        chosen = entry.selected
        if shard is not None:
            ids = set(shard.get(sweep.artifact, ()))
            chosen = tuple(p for p in chosen if p.point_id in ids)
        cached = sum(1 for p in chosen if cache.has(p))
        est_total = parse_runtime(sweep.runtime)
        est_remaining = None
        if est_total is not None and entry.points:
            # The declared runtime covers the sweep's default point set;
            # scale by the fraction of points actually left to run.
            est_remaining = est_total * (len(chosen) - cached) \
                / len(entry.points)
        rows.append({
            "artifact": sweep.artifact,
            "title": sweep.title,
            "built": len(entry.points),
            "selected": len(chosen),
            "cached": cached,
            "to_run": len(chosen) - cached,
            "point_ids": [p.point_id for p in chosen],
            "est_seconds": est_remaining,
            "runtime": sweep.runtime,
        })
    est_known = [r["est_seconds"] for r in rows if r["est_seconds"]
                 is not None]
    return {
        "spec": compiled.spec.name,
        "path": compiled.spec.path,
        "spec_hash": spec_hash(compiled.spec),
        "run_fingerprint": run_fingerprint(compiled.spec, compiled.full),
        "scale": run_scale(compiled.full),
        "artifacts": rows,
        "total_selected": sum(r["selected"] for r in rows),
        "total_cached": sum(r["cached"] for r in rows),
        "total_to_run": sum(r["to_run"] for r in rows),
        "est_seconds": sum(est_known) if est_known else None,
    }
