"""``tools/compare_results.py --emulated``: mask host-timed fields only.

Two cold runs of identical code differ in the fields an artifact
declares as ``SweepSpec.host_timed`` (wall-clock rates) and nowhere
else.  ``--emulated`` must forgive a change to exactly those fields;
the default comparison stays strict.
"""

from __future__ import annotations

import copy
import fnmatch
import importlib.util
import json
import os

import pytest

from repro.experiments import fig14_sim_speed, fig15_channel_scaling
from repro.runner import registry

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load_compare_tool():
    spec = importlib.util.spec_from_file_location(
        "compare_results_emulated",
        os.path.join(REPO, "tools", "compare_results.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fig14() -> dict:
    return fig14_sim_speed._combine({
        "gemm": {"easydram_mhz": 5.0, "easydram_cycle_mhz": 2.0,
                 "ramulator_mhz": 1.0, "mpk_accesses": 12.5},
        "lu": {"easydram_mhz": 4.0, "easydram_cycle_mhz": 1.5,
               "ramulator_mhz": 0.8, "mpk_accesses": 30.25}})


def _fig15() -> dict:
    return fig15_channel_scaling._combine({
        f"ch{n}": {"channels": n, "bytes_moved": 4096, "emulated_ms": 2.0 / n,
                   "gbps": 1.5 * n, "host_mhz": 3.0 + n,
                   "requests_per_channel": [64 // n] * n,
                   "stall_cycles": 100, "row_hits": 50}
        for n in (1, 2)})


def _tab01() -> dict:
    return {"rows": [["Commercial systems", "yes", "no", "billions"],
                     ["Software simulators", "no", "yes (C/C++)",
                      "~1.2M (measured, this host)"],
                     ["EasyDRAM (this work)", "DDR4", "yes (C/C++)",
                      "~90.0M (estimated FPGA wall)"]],
            "easydram_fpga_rate_hz": 9.0e7, "ramulator_rate_hz": 1.2e6}


PAYLOADS = {"fig14": _fig14, "fig15": _fig15, "tab01": _tab01}


def _leaves(value, path=()):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from _leaves(item, path + (index,))
    else:
        yield path


def _perturb(result, path) -> None:
    node = result
    for key in path[:-1]:
        node = node[key]
    value = node[path[-1]]
    if isinstance(value, bool):
        node[path[-1]] = not value
    elif isinstance(value, (int, float)):
        node[path[-1]] = value * 3 + 1
    else:
        node[path[-1]] = f"{value}!"


def _write(directory, artifact: str, result) -> None:
    directory.mkdir(exist_ok=True)
    (directory / f"{artifact}.json").write_text(
        json.dumps({"artifact": artifact, "result": result}))


@pytest.mark.parametrize("artifact", sorted(PAYLOADS))
def test_emulated_masks_exactly_the_declared_fields(artifact, tmp_path):
    tool = load_compare_tool()
    declared = registry.get(artifact).host_timed
    assert declared
    result = json.loads(json.dumps(PAYLOADS[artifact]()))
    _write(tmp_path / "a", artifact, result)
    masked = []
    for path in _leaves(result):
        changed = copy.deepcopy(result)
        _perturb(changed, path)
        _write(tmp_path / "b", artifact, changed)
        dotted = ".".join(str(key) for key in path)
        host_timed = any(fnmatch.fnmatchcase(dotted, pattern)
                         or dotted.startswith(pattern + ".")
                         for pattern in declared)
        emulated = tool.compare(tmp_path / "a", tmp_path / "b",
                                emulated=True)
        assert (emulated == []) == host_timed, dotted
        assert tool.compare(tmp_path / "a", tmp_path / "b") != [], dotted
        masked += [dotted] if host_timed else []
    # Every declared path names at least one real field.
    for pattern in declared:
        assert any(fnmatch.fnmatchcase(dotted, pattern)
                   or dotted.startswith(pattern + ".")
                   for dotted in masked), pattern


def test_cli_emulated_mode(tmp_path, capsys):
    tool = load_compare_tool()
    result = json.loads(json.dumps(_fig15()))
    _write(tmp_path / "a", "fig15", result)
    changed = copy.deepcopy(result)
    changed["host_mhz"][0] += 1.0
    _write(tmp_path / "b", "fig15", changed)
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    assert tool.main(dirs) == 1
    assert tool.main(["--emulated", *dirs]) == 0
    assert "outside host-timed fields" in capsys.readouterr().out
    changed["gbps"][0] += 1.0
    _write(tmp_path / "b", "fig15", changed)
    assert tool.main(["--emulated", *dirs]) == 1


@pytest.mark.parametrize("case", ["missing", "empty", "one-side-empty"])
def test_no_artifacts_is_a_failure(case, tmp_path, capsys):
    """Two failed runs must not compare as bit-identical."""
    tool = load_compare_tool()
    a, b = tmp_path / "a", tmp_path / "b"
    if case != "missing":
        a.mkdir()
        b.mkdir()
        # Manifests and shard files are not artifacts.
        (a / "manifest.json").write_text("{}")
        (b / "manifest.json").write_text("{}")
    if case == "one-side-empty":
        _write(a, "fig15", json.loads(json.dumps(_fig15())))
    problems = tool.compare(a, b)
    assert problems
    assert all(("not a directory" if case == "missing"
                else "no artifact JSON") in problem for problem in problems)
    assert len(problems) == (1 if case == "one-side-empty" else 2)
    for flags in ([], ["--emulated"]):
        assert tool.main([*flags, str(a), str(b)]) == 1
    assert "bit-identical" not in capsys.readouterr().out
