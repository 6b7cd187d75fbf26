#!/usr/bin/env python3
"""Assert two ``repro run --format json`` output trees are bit-identical.

The ``sweep-shards`` CI matrix proves the sharding contract with this
tool: after the shard jobs fill a shared cache, the merge job combines
artifacts twice — once from the merged cache, once fresh with
``--no-cache`` — and the two result payloads must match exactly.  Only
the ``result`` key of each artifact file is compared: the surrounding
manifest fields (seconds, cache_hits) legitimately differ between a
cached and a cold run.

Usage::

    python tools/compare_results.py DIR_A DIR_B
    python tools/compare_results.py --emulated DIR_A DIR_B
    python tools/compare_results.py --assert-all-cached DIR

``--emulated`` first masks each artifact's host-timed result fields (its
``SweepSpec.host_timed``: the fig14 rates, fig15's ``host_mhz``, tab01's
measured Ramulator rate), which differ between any two cold runs; every
emulated value must still be bit-identical.  Without it the comparison
is strict, as the CI merge check needs.

``--assert-all-cached`` instead checks a single run's ``manifest.json``:
every artifact must have combined (not partial) with every point served
from the cache — the merge job runs it first, so a missing shard upload
fails loudly instead of silently recomputing.
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
from pathlib import Path

_SKIP_PREFIXES = ("manifest", "shard-")

_ROOT = Path(__file__).resolve().parent.parent


def payloads_equal(a, b) -> bool:
    """Bit-identity for JSON-normalized result payloads.

    Stricter than ``==`` on types (``1`` and ``1.0`` differ, as do
    ``True`` and ``1``) and float bits (``-0.0 != 0.0``), but NaN
    compares equal to itself — plain ``==`` would call two genuinely
    identical payloads different the moment a sweep emits a NaN, which
    is exactly when a comparison tool must not cry wolf.
    """
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, list):
        return len(a) == len(b) and all(
            payloads_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(
            payloads_equal(value, b[key]) for key, value in a.items())
    return a == b


def artifact_files(directory: Path) -> dict[str, Path]:
    return {path.name: path for path in sorted(directory.glob("*.json"))
            if not path.name.startswith(_SKIP_PREFIXES)}


def host_timed_fields(artifact: str) -> tuple[str, ...]:
    """The registered ``SweepSpec.host_timed`` paths of ``artifact``
    (none for an artifact the registry does not know)."""
    if str(_ROOT / "src") not in sys.path:
        sys.path.insert(0, str(_ROOT / "src"))
    from repro.runner import registry

    try:
        return registry.get(artifact).host_timed
    except KeyError:
        return ()


def mask(result, path: str) -> None:
    """Replace the field(s) at dot-separated ``path`` in ``result`` with
    ``None``, in place; ``*`` matches every list item.  Missing fields
    are left alone."""
    key, _, rest = path.partition(".")
    if isinstance(result, dict):
        targets = [key] if key in result else []
    elif isinstance(result, list):
        if key == "*":
            targets = range(len(result))
        else:
            targets = [int(key)] if int(key) < len(result) else []
    else:
        return
    for target in targets:
        if rest:
            mask(result[target], rest)
        else:
            result[target] = None


def compare(dir_a: Path, dir_b: Path, emulated: bool = False) -> list[str]:
    files_a, files_b = artifact_files(dir_a), artifact_files(dir_b)
    problems = []
    for name in sorted(set(files_a) ^ set(files_b)):
        where = dir_a if name in files_a else dir_b
        problems.append(f"{name}: only present under {where}")
    for name in sorted(set(files_a) & set(files_b)):
        result_a = json.loads(files_a[name].read_text()).get("result")
        result_b = json.loads(files_b[name].read_text()).get("result")
        if emulated:
            for path in host_timed_fields(Path(name).stem):
                mask(result_a, path)
                mask(result_b, path)
        if not payloads_equal(result_a, result_b):
            problems.append(f"{name}: result payloads differ")
    return problems


def assert_all_cached(directory: Path) -> list[str]:
    manifest = directory / "manifest.json"
    if not manifest.is_file():
        return [f"{manifest}: not found (run with --format json)"]
    entries = json.loads(manifest.read_text()).get("artifacts", [])
    if not entries:
        return [f"{manifest}: no artifacts recorded"]
    problems = []
    for entry in entries:
        name = entry.get("artifact", "?")
        if not entry.get("ok"):
            problems.append(f"{name}: run failed")
        elif entry.get("partial"):
            problems.append(f"{name}: partial run (no combine)")
        elif entry.get("cache_hits") != entry.get("points"):
            problems.append(
                f"{name}: only {entry.get('cache_hits')} of"
                f" {entry.get('points')} points came from the cache —"
                " a shard's partials are missing")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="+", metavar="DIR",
                        help="one dir with --assert-all-cached, else two")
    parser.add_argument("--assert-all-cached", action="store_true",
                        help="check DIR's manifest.json instead of"
                             " comparing two trees")
    parser.add_argument("--emulated", action="store_true",
                        help="ignore each artifact's host-timed fields"
                             " (SweepSpec.host_timed)")
    args = parser.parse_args(argv)
    if args.assert_all_cached:
        if len(args.dirs) != 1 or args.emulated:
            parser.error("--assert-all-cached takes exactly one DIR")
        problems = assert_all_cached(Path(args.dirs[0]))
    else:
        if len(args.dirs) != 2:
            parser.error("comparison takes exactly two DIRs")
        problems = compare(Path(args.dirs[0]), Path(args.dirs[1]),
                           emulated=args.emulated)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if problems:
        return 1
    if args.assert_all_cached:
        print("all-cached manifest OK")
    elif args.emulated:
        print("result payloads are bit-identical outside host-timed fields")
    else:
        print("result payloads are bit-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
