"""Fast-path configuration knobs.

The array-native frontend (block traces, the blocked cache pipeline, the
flat timing-state queries, and conventional-program pooling) is a pure
host-time optimization: results are bit-identical with the knobs on or
off, which the equivalence tests enforce.  Two environment variables
control it:

``REPRO_FASTPATH``
    ``0``/``false`` disables every fast path and reproduces the PR 2
    object-based pipeline exactly (the baseline the benchmark harness
    measures speedups against).  Default: enabled.

``REPRO_BLOCK_SIZE``
    Accesses per :class:`~repro.cpu.blocks.AccessBlock` chunk emitted by
    the workload generators (default 4096).  Any positive value produces
    the same emulation; the default amortizes per-block overhead without
    hurting locality.

All knobs are read when a component is *constructed* (system, session,
processor feed), never per access, so tests can flip them per
system via ``monkeypatch.setenv`` without reloading modules.
"""

from __future__ import annotations

import os

#: Default accesses per workload block (see ``REPRO_BLOCK_SIZE``).
DEFAULT_BLOCK_ACCESSES = 4096

_FALSE = ("0", "false", "no", "off")


def fastpath_enabled() -> bool:
    """Whether the array-native fast paths are active (default: yes)."""
    return os.environ.get("REPRO_FASTPATH", "").strip().lower() not in _FALSE


def block_accesses() -> int:
    """Accesses per workload block (``REPRO_BLOCK_SIZE``, default 4096)."""
    raw = os.environ.get("REPRO_BLOCK_SIZE", "").strip()
    if not raw:
        return DEFAULT_BLOCK_ACCESSES
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_BLOCK_ACCESSES
    return value if value > 0 else DEFAULT_BLOCK_ACCESSES
