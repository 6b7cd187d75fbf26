"""Declarative sweep descriptions for the experiment runner.

Every paper artifact (a table, a figure, or the ablation bundle) is a
*sweep*: a set of independent measurement points (config x workload x
technique) whose results are combined into the artifact's result dict.
Each experiment module declares its sweep once as a :class:`SweepSpec`;
the scheduler (``repro.runner.scheduler``) can then execute the points
serially, across a process pool, or straight out of the on-disk cache —
all three produce bit-identical artifact dicts.

Two properties make that work:

* **Points are addressable.**  A :class:`SweepPoint` names a module-level
  function (``"package.module:function"``) plus JSON-serializable keyword
  arguments, so it can be pickled to a worker process and hashed into a
  cache key.
* **Point results are JSON-normalized.**  :func:`evaluate_point` passes
  every result through a JSON round-trip, so an in-process result, a
  subprocess result, and a cache hit are indistinguishable (tuples become
  lists, dict keys become strings) before ``combine`` ever sees them.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping


@dataclass(frozen=True)
class SweepPoint:
    """One independent measurement of a sweep.

    ``fn`` is a ``"module.path:function"`` reference to a module-level
    callable and ``params`` its keyword arguments; both must survive
    pickling and JSON serialization so the point can run in a worker
    process and key the result cache.
    """

    artifact: str
    point_id: str
    fn: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def resolve(self) -> Callable[..., Any]:
        module_name, _, attr = self.fn.partition(":")
        if not attr:
            raise ValueError(f"point fn {self.fn!r} is not 'module:function'")
        module = importlib.import_module(module_name)
        return getattr(module, attr)


def json_normalize(value: Any) -> Any:
    """Round-trip ``value`` through JSON.

    This is the canonical representation of a point result: tuples become
    lists and mapping keys become strings, exactly as they would after a
    cache hit, so every execution path yields identical objects.
    """
    return json.loads(json.dumps(value))


def evaluate_point(point: SweepPoint) -> Any:
    """Execute one point and return its JSON-normalized result."""
    return json_normalize(point.resolve()(**dict(point.params)))


@dataclass(frozen=True)
class SweepSpec:
    """A paper artifact expressed as a sweep of independent points.

    ``build_points`` accepts keyword overrides (shrunk sizes, kernel
    subsets...) so tests and the CLI can scale a sweep without editing
    the experiment module; with no arguments it must build the artifact's
    default (CI-scale, or paper-scale under ``REPRO_FULL``) point set.
    ``combine`` receives ``{point_id: normalized result}`` for every
    point, in build order, and returns the artifact's result dict.
    """

    artifact: str
    title: str
    module: str
    build_points: Callable[..., tuple[SweepPoint, ...]]
    combine: Callable[[dict[str, Any]], dict]
    csv_headers: tuple[str, ...] | None = None
    #: One-line human description shown by ``repro list`` so users can
    #: pick artifacts without grepping ``experiments/``.
    description: str = ""
    #: Rough default (CI-scale, cold-cache, single-job) runtime, e.g.
    #: ``"~45 s"``; also shown by ``repro list``.
    runtime: str = ""
    #: False for sweeps whose points measure host wall time (e.g. the
    #: Figure 14 simulation-speed rates): running them concurrently
    #: would let worker contention skew the measured numbers, so the
    #: scheduler keeps them serial regardless of ``--jobs``.
    parallel_safe: bool = True
    #: Result fields that are host wall-time measurements and so differ
    #: between two cold runs of identical code.  Each entry is a
    #: dot-separated path into the result dict (``"host_mhz"``,
    #: ``"rows.*.4"``: column 4 of every row; ``*`` matches every list
    #: item, an integer one item).  ``tools/compare_results.py
    #: --emulated`` masks exactly these.
    host_timed: tuple[str, ...] = ()

    def report(self, result: dict) -> str:
        """Render the artifact's ASCII report via its experiment module."""
        module = importlib.import_module(self.module)
        return module.report(result)
