"""``repro diff``: the semantic delta between two experiment specs.

A text diff of two YAML files answers "which lines changed"; this
answers "which *runs* changed": artifacts added or removed, overrides
that differ, point filters that now select a different slice — and,
when both specs compile, the concrete point ids gained and lost per
artifact.  Cosmetic edits (key order, comments, reflowed
strings) produce an empty delta, mirroring what :mod:`~repro.specs.
hashing` guarantees about the spec hash.
"""

from __future__ import annotations

from repro.specs.model import (
    ArtifactEntry,
    CompiledSpec,
    ExperimentSpec,
    SpecValidationError,
    compile_spec,
)


def _entry_map(spec: ExperimentSpec) -> dict[str, ArtifactEntry]:
    return {entry.selector: entry for entry in spec.entries}


def _point_ids(compiled: CompiledSpec | None) -> dict[str, tuple[str, ...]]:
    if compiled is None:
        return {}
    return {entry.sweep.artifact: tuple(p.point_id for p in entry.selected)
            for entry in compiled.entries}


def _try_compile(spec: ExperimentSpec) -> CompiledSpec | None:
    try:
        return compile_spec(spec)
    except SpecValidationError:
        return None


def diff_specs(a: ExperimentSpec, b: ExperimentSpec) -> list[str]:
    """Human-readable change lines, empty when semantically identical."""
    changes: list[str] = []
    for field in ("name", "description"):
        old, new = getattr(a, field), getattr(b, field)
        if old != new:
            changes.append(f"{field}: {old!r} -> {new!r}")
    entries_a, entries_b = _entry_map(a), _entry_map(b)
    for selector in [s for s in entries_a if s not in entries_b]:
        changes.append(f"artifact -{selector}")
    for selector in [s for s in entries_b if s not in entries_a]:
        changes.append(f"artifact +{selector}")
    for selector in [s for s in entries_a if s in entries_b]:
        ea, eb = entries_a[selector], entries_b[selector]
        for key in sorted(set(ea.overrides) | set(eb.overrides)):
            old = ea.overrides.get(key)
            new = eb.overrides.get(key)
            if old == new:
                continue
            if key not in ea.overrides:
                changes.append(f"{selector}: override +{key}={new!r}")
            elif key not in eb.overrides:
                changes.append(f"{selector}: override -{key}={old!r}")
            else:
                changes.append(
                    f"{selector}: override {key}: {old!r} -> {new!r}")
        if ea.include != eb.include:
            changes.append(f"{selector}: include {list(ea.include)} ->"
                           f" {list(eb.include)}")
        if ea.exclude != eb.exclude:
            changes.append(f"{selector}: exclude {list(ea.exclude)} ->"
                           f" {list(eb.exclude)}")
    # Point-level delta, when both specs compile against this checkout.
    points_a = _point_ids(_try_compile(a))
    points_b = _point_ids(_try_compile(b))
    if points_a and points_b:
        for artifact in sorted(set(points_a) | set(points_b)):
            ida = set(points_a.get(artifact, ()))
            idb = set(points_b.get(artifact, ()))
            gained = sorted(idb - ida)
            lost = sorted(ida - idb)
            if gained:
                changes.append(
                    f"{artifact}: +{len(gained)} points"
                    f" ({', '.join(gained[:6])}"
                    f"{', ...' if len(gained) > 6 else ''})")
            if lost:
                changes.append(
                    f"{artifact}: -{len(lost)} points"
                    f" ({', '.join(lost[:6])}"
                    f"{', ...' if len(lost) > 6 else ''})")
    return changes
