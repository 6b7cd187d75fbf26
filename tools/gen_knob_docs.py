#!/usr/bin/env python3
"""Generate ``docs/KNOBS.md``: every ``REPRO_*`` knob and ``repro`` flag.

Two sources, neither hand-maintained in the doc itself:

* **Environment variables** are discovered by scanning ``src/repro`` for
  ``os.environ`` reads of ``REPRO_*`` names.  Each discovered variable
  must have a curated entry in :data:`ENV_DOCS` below — a new knob
  without one (or a stale entry whose knob disappeared from the source)
  fails the run, so the reference cannot drift silently.
* **CLI flags** come from the ``repro`` argparse parser itself
  (:func:`repro.runner.cli._parser`); the help strings *are* the
  documentation, so this section can never disagree with ``--help``.

Usage::

    python tools/gen_knob_docs.py            # rewrite docs/KNOBS.md
    python tools/gen_knob_docs.py --check    # fail if KNOBS.md is stale

``--check`` runs in the docs CI job next to the markdown link checker.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
OUT = ROOT / "docs" / "KNOBS.md"

#: Curated default + one-line effect per environment variable.  The
#: scanner enforces that this dict and the source tree agree exactly.
ENV_DOCS: dict[str, tuple[str, str]] = {
    "REPRO_CACHE_DIR": (
        "`.repro-cache/`",
        "Sweep-point result cache root used by `repro run` (keyed on"
        " parameters + source fingerprint)."),
    "REPRO_CC": (
        "`cc`/`gcc`/`clang` probe",
        "C compiler used to build the batch serve kernel; unset probes"
        " `cc`, `gcc`, `clang` in order.  No compiler means the kernel"
        " disengages (bit-identical fallback)."),
    "REPRO_JOBS": (
        "1",
        "Default worker-process count for `repro run` sweeps (same as"
        " `--jobs`)."),
    "REPRO_RESULTS_DIR": (
        "`results/`",
        "Default `--out` directory for `repro run --format json|csv`."),
    "REPRO_SERVE_PORT": (
        "8642",
        "TCP port `repro serve` listens on and clients default to"
        " (same as `repro serve --port`)."),
    "REPRO_SERVE_STORE": (
        "`.repro-serve/results.db`",
        "Result-store database file backing `repro serve` (same as"
        " `repro serve --store`); holds every sweep-point row and job"
        " payload, keyed on parameters + source fingerprint."),
    "REPRO_SERVE_URL": (
        "`http://127.0.0.1:8642`",
        "Service base URL the `repro submit` / `repro query` clients"
        " talk to (same as their `--url`)."),
    "REPRO_SERVE_WORKERS": (
        "2",
        "Job-queue worker threads in `repro serve` (same as"
        " `repro serve --workers`); each miss runs its sweep on one"
        " worker, deduped by run fingerprint."),
}

_ENV_READ = re.compile(r"environ[^\n]*?[\"'](REPRO_[A-Z0-9_]+)[\"']")


def scan_env_vars() -> dict[str, list[str]]:
    """``{variable: [repo-relative files that read it]}`` under src/repro."""
    found: dict[str, set[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for match in _ENV_READ.finditer(text):
            found.setdefault(match.group(1), set()).add(
                str(path.relative_to(ROOT)))
    return {name: sorted(files) for name, files in sorted(found.items())}


def check_coverage(found: dict[str, list[str]]) -> list[str]:
    """Drift between the scan and :data:`ENV_DOCS` (empty = in sync)."""
    problems = []
    for name in found:
        if name not in ENV_DOCS:
            problems.append(
                f"undocumented environment variable {name} (read by"
                f" {', '.join(found[name])}); add it to ENV_DOCS in"
                f" tools/gen_knob_docs.py")
    for name in ENV_DOCS:
        if name not in found:
            problems.append(
                f"ENV_DOCS documents {name} but nothing under src/repro"
                f" reads it; remove the stale entry")
    return problems


def _flag_rows(parser: argparse.ArgumentParser) -> list[tuple[str, str, str]]:
    rows = []
    for action in parser._actions:
        if not action.option_strings or action.help == argparse.SUPPRESS:
            continue
        flags = ", ".join(f"`{opt}`" for opt in action.option_strings)
        if action.default in (None, False, argparse.SUPPRESS) \
                or action.option_strings == ["-h", "--help"]:
            default = ""
        else:
            default = f"`{action.default}`"
        help_text = (action.help or "").replace("%%", "%")
        rows.append((flags, default, " ".join(help_text.split())))
    return rows


def cli_sections() -> list[tuple[str, list[tuple[str, str, str]]]]:
    """(subcommand, flag rows) for every ``repro`` subcommand.

    The parser is built under a scrubbed environment: some argparse
    defaults are env-derived (``--jobs`` reads ``REPRO_JOBS`` at parser
    construction), and the reference must document the canonical
    defaults — not whatever the generating shell happened to export —
    or ``--check`` would flap on CI/batch hosts.
    """
    import os

    sys.path.insert(0, str(ROOT / "src"))
    from repro.runner.cli import _parser

    scrubbed = {name: os.environ.pop(name) for name in list(os.environ)
                if name.startswith("REPRO_")}
    try:
        parser = _parser()
    finally:
        os.environ.update(scrubbed)
    sections = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                sections.append((name, _flag_rows(sub)))
    return sections


def render() -> str:
    found = scan_env_vars()
    problems = check_coverage(found)
    if problems:
        for line in problems:
            print(f"error: {line}", file=sys.stderr)
        raise SystemExit(2)
    lines = [
        "# Knob reference",
        "",
        "<!-- Generated by `python tools/gen_knob_docs.py`; do not edit"
        " by hand. `--check` runs in CI and fails when this file is"
        " stale. -->",
        "",
        "Every environment variable the reproduction reads and every"
        " `repro` CLI flag, in one place. Environment knobs are read when"
        " a component is constructed (system, session, sweep), never per"
        " access, so tests can flip them per system.",
        "",
        "## Environment variables",
        "",
        "| Variable | Default | Effect | Read by |",
        "| --- | --- | --- | --- |",
    ]
    for name, files in found.items():
        default, effect = ENV_DOCS[name]
        readers = ", ".join(f"`{f}`" for f in files)
        lines.append(f"| `{name}` | {default} | {effect} | {readers} |")
    lines += [
        "",
        "## `repro` CLI",
        "",
        "The unified entry point (`repro ...` once installed, or"
        " `python -m repro ...` from a checkout). Flags below are"
        " extracted from the live argparse parser, so they always match"
        " `repro <command> --help`.",
    ]
    for name, rows in cli_sections():
        lines += [
            "",
            f"### `repro {name}`",
            "",
            "| Flag | Default | Effect |",
            "| --- | --- | --- |",
        ]
        for flags, default, help_text in rows:
            lines.append(f"| {flags} | {default} | {help_text} |")
    lines += [
        "",
        "See [EXPERIMENTS.md](EXPERIMENTS.md) for which artifacts honor"
        " which knobs, [TUTORIAL.md](TUTORIAL.md) for a guided tour, and"
        " [ARCHITECTURE.md](ARCHITECTURE.md) for the module map.",
        "",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="verify docs/KNOBS.md matches the source tree; do not write")
    args = parser.parse_args(argv)
    content = render()
    if args.check:
        on_disk = OUT.read_text(encoding="utf-8") if OUT.exists() else ""
        if on_disk != content:
            print("error: docs/KNOBS.md is stale; regenerate it with"
                  " `python tools/gen_knob_docs.py`", file=sys.stderr)
            return 1
        print("docs/KNOBS.md is up to date")
        return 0
    OUT.write_text(content, encoding="utf-8")
    print(f"wrote {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
