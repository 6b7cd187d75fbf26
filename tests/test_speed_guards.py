"""The spec-overhead check of the speed guards (``benchmarks/speed.py``).

The measurement itself runs in the ``-m bench`` suite
(``benchmarks/test_spec_overhead.py``); tier-1 checks the verdict on
given walls and that the probe is cheap.
"""

from __future__ import annotations

import importlib.util
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_speed():
    spec = importlib.util.spec_from_file_location(
        "bench_speed_under_test", os.path.join(REPO, "benchmarks", "speed.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def overhead(compile_wall: float) -> dict:
    return {"spec": "specs/default.yaml", "validate_wall_s": compile_wall / 2,
            "compile_wall_s": compile_wall}


class TestSpecOverheadGate:
    def test_under_budget_passes(self):
        speed = load_speed()
        assert speed.check_spec_overhead(overhead(0.005), 1.0) == []

    def test_over_budget_fails(self):
        speed = load_speed()
        failures = speed.check_spec_overhead(overhead(0.02), 1.0)
        assert len(failures) == 1 and "spec compile" in failures[0]

    def test_measure_is_real_and_fast(self):
        # The probe itself is cheap enough for tier-1: compiling the
        # default spec takes milliseconds.
        speed = load_speed()
        measured = speed.measure_spec_overhead(rounds=1)
        assert measured["spec"] == "specs/default.yaml"
        assert 0 < measured["validate_wall_s"]
        assert measured["compile_wall_s"] < 1.0
