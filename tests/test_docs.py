"""Docs stay in sync: knob reference freshness and link integrity.

These mirror the CI docs job so drift is caught before a push: the
generated ``docs/KNOBS.md`` must match the source tree, and every local
Markdown link in the repo must resolve.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOLS / script), *args],
        capture_output=True, text=True, cwd=ROOT)


def test_knob_reference_is_fresh():
    proc = _run("gen_knob_docs.py", "--check")
    assert proc.returncode == 0, (
        f"docs/KNOBS.md drifted from the source tree:\n{proc.stderr}\n"
        "regenerate with `python tools/gen_knob_docs.py`")


def test_markdown_links_resolve():
    proc = _run("check_markdown_links.py")
    assert proc.returncode == 0, f"broken markdown links:\n{proc.stderr}"


def test_knob_scanner_sees_the_known_knobs():
    sys.path.insert(0, str(TOOLS))
    try:
        import gen_knob_docs
    finally:
        sys.path.pop(0)
    found = gen_knob_docs.scan_env_vars()
    # Deployment settings only: paths, URLs, ports, worker counts and
    # the compiler.  A knob that changes what a run computes, or picks
    # between bit-identical paths, belongs on the run's own arguments.
    assert sorted(found) == [
        "REPRO_CACHE_DIR", "REPRO_CC", "REPRO_JOBS", "REPRO_RESULTS_DIR",
        "REPRO_SERVE_PORT", "REPRO_SERVE_STORE", "REPRO_SERVE_URL",
        "REPRO_SERVE_WORKERS"]
    assert not gen_knob_docs.check_coverage(found)


def test_undocumented_knob_is_flagged():
    sys.path.insert(0, str(TOOLS))
    try:
        import gen_knob_docs
    finally:
        sys.path.pop(0)
    found = dict(gen_knob_docs.scan_env_vars())
    found["REPRO_NOT_A_REAL_KNOB"] = ["src/repro/nowhere.py"]
    problems = gen_knob_docs.check_coverage(found)
    assert any("REPRO_NOT_A_REAL_KNOB" in p for p in problems)
