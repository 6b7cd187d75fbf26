"""Declarative YAML experiment specs over the sweep runner.

The user surface for sweeps: a spec file names artifacts, grid
overrides, and point filters; ``repro validate/plan/diff/hash`` inspect
it without running anything, and ``repro run --spec`` (optionally
``--shard k/N``) executes it through the cached scheduler.  See
``specs/*.yaml`` for the checked-in suite and ``docs/EXPERIMENTS.md``
for the format.
"""

from repro.specs.diff import diff_specs
from repro.specs.hashing import (
    check_hash,
    run_fingerprint,
    run_scale,
    spec_hash,
    update_hashes,
)
from repro.specs.model import (
    CompiledEntry,
    CompiledSpec,
    ExperimentSpec,
    SpecLoadError,
    SpecValidationError,
    compile_spec,
    load_and_compile,
    load_spec,
)
from repro.specs.plan import parse_runtime, plan_spec
from repro.specs.shard import parse_shard, shard_selection

__all__ = [
    "CompiledEntry",
    "CompiledSpec",
    "ExperimentSpec",
    "SpecLoadError",
    "SpecValidationError",
    "check_hash",
    "compile_spec",
    "diff_specs",
    "load_and_compile",
    "load_spec",
    "parse_runtime",
    "parse_shard",
    "plan_spec",
    "run_fingerprint",
    "run_scale",
    "shard_selection",
    "spec_hash",
    "update_hashes",
]
