"""Line-anchored YAML loading for experiment specs.

``repro validate`` must point at the offending *line* of a spec, not
just name the file, so plain ``yaml.safe_load`` is not enough: it throws
the source positions away.  :func:`load_yaml` composes the document into
its node graph once, constructs the data from those same nodes, and
walks both in parallel to build a ``{path: line}`` side table.  Paths
are tuples of mapping keys and sequence indices
(``("artifacts", 2, "overrides")``), which is also how the schema
validator names locations.

PyYAML is the only dependency; it is declared in ``pyproject.toml`` and
imported lazily here so that every other ``repro`` entry point keeps
working on an interpreter without it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


class SpecLoadError(Exception):
    """A spec file could not be parsed at all (I/O or YAML syntax).

    ``str(err)`` is already ``file:line: message`` shaped when the
    parser reported a position.
    """


@dataclass
class YamlDoc:
    """A parsed YAML document plus a path -> source-line side table."""

    path: str
    data: Any
    lines: dict[tuple, int] = field(default_factory=dict)

    def line(self, *path) -> int | None:
        """Best-known source line for ``path`` (deepest recorded prefix)."""
        best = self.lines.get(())
        for i in range(len(path)):
            hit = self.lines.get(tuple(path[: i + 1]))
            if hit is not None:
                best = hit
        return best

    def anchor(self, *path) -> str:
        """``file:line`` label for error messages."""
        line = self.line(*path)
        return f"{self.path}:{line}" if line else self.path


def _walk(node, data, path: tuple, lines: dict[tuple, int]) -> None:
    import yaml

    # A mapping value's path is already anchored at its *key* line,
    # which reads better in errors ("overrides:" rather than the first
    # line inside it) — keep the earliest anchor.
    lines.setdefault(path, node.start_mark.line + 1)
    if isinstance(node, yaml.MappingNode) and isinstance(data, dict):
        for key_node, value_node in node.value:
            # Spec keys are plain scalars; anything fancier just falls
            # back to the container's line.
            key = key_node.value if isinstance(key_node, yaml.ScalarNode) \
                else None
            if key in data:
                lines[path + (key,)] = key_node.start_mark.line + 1
                _walk(value_node, data[key], path + (key,), lines)
    elif isinstance(node, yaml.SequenceNode) and isinstance(data, list):
        for index, item_node in enumerate(node.value):
            _walk(item_node, data[index], path + (index,), lines)


def load_yaml(path: str) -> YamlDoc:
    """Parse one YAML file into data plus line anchors.

    Raises :class:`SpecLoadError` with a ``file:line`` prefix on syntax
    errors, and on documents that are not a mapping at the top level.
    """
    import yaml

    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecLoadError(f"{path}: {exc.strerror or exc}") from None
    try:
        # One parse: compose keeps the source marks, and the loader can
        # construct the data from the composed nodes directly (text
        # parsing dominates spec-compilation cost, which
        # benchmarks/test_spec_overhead.py gates against a fig08 run).
        loader = yaml.SafeLoader(text)
        try:
            node = loader.get_single_node()
            data = loader.construct_document(node) if node is not None \
                else None
        finally:
            loader.dispose()
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark else path
        problem = getattr(exc, "problem", None) or str(exc)
        raise SpecLoadError(f"{where}: invalid YAML: {problem}") from None
    doc = YamlDoc(path=path, data=data)
    if node is not None:
        _walk(node, data, (), doc.lines)
    return doc
