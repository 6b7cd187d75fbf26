"""Experiment-spec schema, validation, and compilation onto the registry.

A spec is a YAML document describing which artifacts to regenerate and
how their sweeps are parameterized::

    version: 1
    name: fig16-grid
    description: Core-count x scheduler contention grid.
    artifacts:
      - artifact: fig16        # exact id or glob ("fig1*")
        overrides:             # keyword arguments to the sweep's
          core_counts: [1, 2, 4]    # build_points(...)
          schedulers: [fcfs, fr-fcfs]
        points:                # optional point_id filters (globs)
          include: ["*"]
          exclude: ["4core-fcfs"]

A spec carries no environment settings: everything that shapes a
result is stated in the points it builds, which is what the point cache
and the serve store key on.  Paper-scale sweeps come from ``repro run
--spec X --full`` (each sweep's ``paper_overrides`` under the entry's own
``overrides``, merged by :func:`compile_spec`) or from per-artifact
``overrides``.

Validation happens in two layers, both surfaced by ``repro validate``:

* :func:`load_spec` checks the *document*: required keys, types, no
  unknown keys.  Every problem is anchored ``file:line`` via
  :class:`~repro.specs.yamlload.YamlDoc`.
* :func:`compile_spec` checks the spec *against the code*: artifact ids
  resolve in the registry (with did-you-mean suggestions), override
  names exist in the sweep's ``build_points`` signature, and point
  filters actually select something.

Compilation returns the fully enumerated, filtered point set per
artifact — the single source of truth that ``plan``, ``hash``,
sharding, and ``run --spec`` all share.
"""

from __future__ import annotations

import fnmatch
import inspect
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.runner import registry
from repro.runner.spec import SweepPoint, SweepSpec
from repro.specs.yamlload import SpecLoadError, YamlDoc, load_yaml

#: The only schema revision this tree understands.
SCHEMA_VERSION = 1

_TOP_KEYS = {"version", "name", "description", "artifacts"}
_ENTRY_KEYS = {"artifact", "overrides", "points"}
_POINTS_KEYS = {"include", "exclude"}


class SpecValidationError(Exception):
    """One or more schema/cross-check failures, each ``file:line``-anchored."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


@dataclass(frozen=True)
class ArtifactEntry:
    """One validated ``artifacts:`` list entry (pre-registry)."""

    selector: str
    overrides: Mapping[str, Any] = field(default_factory=dict)
    include: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExperimentSpec:
    """A schema-valid spec document (not yet checked against the code)."""

    path: str
    name: str
    description: str
    entries: tuple[ArtifactEntry, ...]


@dataclass(frozen=True)
class CompiledEntry:
    """One artifact of a compiled spec: its sweep and selected points."""

    sweep: SweepSpec
    overrides: Mapping[str, Any]
    points: tuple[SweepPoint, ...]       #: every point the sweep builds
    selected: tuple[SweepPoint, ...]     #: after include/exclude filters

    @property
    def filtered(self) -> bool:
        return len(self.selected) != len(self.points)


@dataclass(frozen=True)
class CompiledSpec:
    """A spec resolved against the live registry."""

    spec: ExperimentSpec
    entries: tuple[CompiledEntry, ...]
    #: Compiled at paper scale (``--full``).
    full: bool = False

    def total_points(self) -> int:
        return sum(len(e.selected) for e in self.entries)


def _check_glob_list(doc: YamlDoc, value: Any, path: tuple,
                     problems: list[str]) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(
            isinstance(p, str) and p for p in value):
        problems.append(f"{doc.anchor(*path)}: '{path[-1]}' must be a list"
                        " of non-empty point-id globs")
        return ()
    return tuple(value)


def _load_entry(doc: YamlDoc, raw: Any, index: int,
                problems: list[str]) -> ArtifactEntry | None:
    where = ("artifacts", index)
    if not isinstance(raw, dict):
        problems.append(f"{doc.anchor(*where)}: artifacts[{index}] must be"
                        " a mapping with an 'artifact' key")
        return None
    for key in sorted(set(raw) - _ENTRY_KEYS):
        problems.append(f"{doc.anchor(*where, key)}: unknown key {key!r}"
                        f" (expected one of: {', '.join(sorted(_ENTRY_KEYS))})")
    selector = raw.get("artifact")
    if not isinstance(selector, str) or not selector:
        problems.append(f"{doc.anchor(*where)}: 'artifact' must be a"
                        " non-empty artifact id or glob")
        return None
    overrides = raw.get("overrides", {})
    if not isinstance(overrides, dict) or not all(
            isinstance(k, str) for k in overrides):
        problems.append(f"{doc.anchor(*where, 'overrides')}: 'overrides'"
                        " must be a mapping of build_points keyword"
                        " arguments")
        overrides = {}
    include: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()
    points = raw.get("points", {})
    if points is not None and not isinstance(points, dict):
        problems.append(f"{doc.anchor(*where, 'points')}: 'points' must be"
                        " a mapping with 'include' and/or 'exclude' lists")
    elif isinstance(points, dict):
        for key in sorted(set(points) - _POINTS_KEYS):
            problems.append(
                f"{doc.anchor(*where, 'points', key)}: unknown key {key!r}"
                " under 'points' (expected 'include'/'exclude')")
        if "include" in points:
            include = _check_glob_list(
                doc, points["include"], where + ("points", "include"),
                problems)
        if "exclude" in points:
            exclude = _check_glob_list(
                doc, points["exclude"], where + ("points", "exclude"),
                problems)
    return ArtifactEntry(selector=selector, overrides=overrides,
                         include=include, exclude=exclude)


def load_spec(path: str) -> ExperimentSpec:
    """Parse and schema-check one spec file.

    Raises :class:`~repro.specs.yamlload.SpecLoadError` on unreadable or
    syntactically invalid YAML, :class:`SpecValidationError` (carrying
    every problem, ``file:line``-anchored) on schema violations.
    """
    doc = load_yaml(path)
    problems: list[str] = []
    data = doc.data
    if not isinstance(data, dict):
        raise SpecValidationError(
            [f"{path}: spec must be a YAML mapping, not"
             f" {type(data).__name__}"])
    for key in sorted(set(data) - _TOP_KEYS):
        problems.append(f"{doc.anchor(key)}: unknown key {key!r}"
                        f" (expected one of: {', '.join(sorted(_TOP_KEYS))})")
    version = data.get("version")
    if version != SCHEMA_VERSION:
        problems.append(
            f"{doc.anchor('version')}: 'version' must be {SCHEMA_VERSION}"
            f" (got {version!r})")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        problems.append(f"{doc.anchor('name')}: 'name' must be a non-empty"
                        " string")
        name = ""
    description = data.get("description", "")
    if not isinstance(description, str):
        problems.append(f"{doc.anchor('description')}: 'description' must"
                        " be a string")
        description = ""
    entries: list[ArtifactEntry] = []
    artifacts = data.get("artifacts")
    if not isinstance(artifacts, list) or not artifacts:
        problems.append(f"{doc.anchor('artifacts')}: 'artifacts' must be a"
                        " non-empty list of artifact entries")
    else:
        for index, raw in enumerate(artifacts):
            entry = _load_entry(doc, raw, index, problems)
            if entry is not None:
                entries.append(entry)
    if problems:
        raise SpecValidationError(problems)
    return ExperimentSpec(path=path, name=name, description=description,
                          entries=tuple(entries))


def _build_kwargs_problems(sweep: SweepSpec, overrides: Mapping[str, Any],
                           anchor: str) -> list[str]:
    """Override names that ``build_points`` would reject."""
    try:
        signature = inspect.signature(sweep.build_points)
    except (TypeError, ValueError):  # builtins/partials without signatures
        return []
    params = signature.parameters.values()
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params):
        return []
    accepted = {p.name for p in params
                if p.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                              inspect.Parameter.KEYWORD_ONLY)}
    problems = []
    for key in overrides:
        if key not in accepted:
            known = ", ".join(sorted(accepted)) or "(none)"
            problems.append(
                f"{anchor}: sweep {sweep.artifact!r} has no override"
                f" {key!r} (accepted: {known})")
    return problems


def _filter_points(points: tuple[SweepPoint, ...], entry: ArtifactEntry,
                   anchor: str, problems: list[str]) -> tuple[SweepPoint, ...]:
    ids = [p.point_id for p in points]
    keep = set(ids)
    if entry.include:
        keep = set()
        for pattern in entry.include:
            matched = fnmatch.filter(ids, pattern)
            if not matched:
                problems.append(f"{anchor}: include pattern {pattern!r}"
                                " matches no points of"
                                f" {points[0].artifact!r}")
            keep.update(matched)
    for pattern in entry.exclude:
        matched = fnmatch.filter(ids, pattern)
        if not matched:
            problems.append(f"{anchor}: exclude pattern {pattern!r} matches"
                            f" no points of {points[0].artifact!r}")
        keep.difference_update(matched)
    if not keep and not problems:
        problems.append(f"{anchor}: point filters leave no points of"
                        f" {points[0].artifact!r} to run")
    return tuple(p for p in points if p.point_id in keep)


def compile_spec(spec: ExperimentSpec, full: bool = False) -> CompiledSpec:
    """Resolve a schema-valid spec against the registry and build points.

    With ``full`` every entry's overrides are its sweep's
    ``paper_overrides`` under the spec's own (see
    :meth:`~repro.runner.spec.SweepSpec.run_overrides`), so the runner,
    the shard slicer and ``plan`` all see one overrides dict.

    Raises :class:`SpecValidationError` listing every cross-check
    failure; on success returns the enumerated point sets that ``plan``,
    ``hash``, sharding, and ``run --spec`` operate on.
    """
    doc = load_yaml(spec.path)
    problems: list[str] = []
    compiled: list[CompiledEntry] = []
    seen: dict[str, str] = {}
    for index, entry in enumerate(spec.entries):
        anchor = doc.anchor("artifacts", index)
        try:
            names = registry.resolve(entry.selector)
        except KeyError as exc:
            problems.append(f"{anchor}: {exc.args[0]}")
            continue
        for name in names:
            if name in seen:
                problems.append(
                    f"{anchor}: artifact {name!r} already selected by"
                    f" entry {seen[name]!r}; each artifact may appear"
                    " once per spec")
                continue
            seen[name] = entry.selector
            sweep = registry.get(name)
            bad = _build_kwargs_problems(
                sweep, entry.overrides,
                doc.anchor("artifacts", index, "overrides"))
            if bad:
                problems.extend(bad)
                continue
            overrides = sweep.run_overrides(entry.overrides, full)
            try:
                points = tuple(sweep.build_points(**overrides))
            except Exception as exc:
                problems.append(
                    f"{doc.anchor('artifacts', index, 'overrides')}:"
                    f" building {name!r} points failed:"
                    f" {type(exc).__name__}: {exc}")
                continue
            selected = _filter_points(
                points, entry, doc.anchor("artifacts", index, "points"),
                problems)
            compiled.append(CompiledEntry(
                sweep=sweep, overrides=overrides,
                points=points, selected=selected))
    if problems:
        raise SpecValidationError(problems)
    return CompiledSpec(spec=spec, entries=tuple(compiled), full=full)


def load_and_compile(path: str, full: bool = False) -> CompiledSpec:
    """Convenience: ``compile_spec(load_spec(path), full)``."""
    return compile_spec(load_spec(path), full)


__all__ = [
    "ArtifactEntry",
    "CompiledEntry",
    "CompiledSpec",
    "ExperimentSpec",
    "SpecLoadError",
    "SpecValidationError",
    "compile_spec",
    "load_and_compile",
    "load_spec",
]
