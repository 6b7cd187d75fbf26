"""Serve-path switch shared by ``conftest.py`` and the equivalence tests.

Systems resolve the compiled kernel through
``repro.dram.kernel.resolve_backend`` when they are built, so patching
that one name keeps every system built afterwards off the kernel.
"""

from __future__ import annotations

import repro.dram.kernel

#: The real backend resolver, before any test patches it.
RESOLVE_BACKEND = repro.dram.kernel.resolve_backend


def no_kernel(patch, reason: str = "disabled (no_kernel)") -> None:
    """Through ``patch`` (a ``pytest.MonkeyPatch``), make every system
    built afterwards find no kernel backend; its controller records
    ``reason`` as why the kernel disengaged."""
    patch.setattr(repro.dram.kernel, "resolve_backend",
                  lambda: (None, reason))
