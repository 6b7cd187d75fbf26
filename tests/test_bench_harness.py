"""Benchmark-harness plumbing: schema, regression gate, CLI wiring.

The heavy measurement itself runs in the ``-m bench`` suite
(:mod:`benchmarks.test_emulation_speed`); tier-1 only validates the
harness's logic on stubbed or miniature inputs.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_harness():
    spec = importlib.util.spec_from_file_location(
        "bench_harness_under_test",
        os.path.join(REPO, "benchmarks", "harness.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report_with(speedups: dict) -> dict:
    return {
        "schema": "bench-emulation/v1",
        "results": [{"workload": name, "speedup": value}
                    for name, value in speedups.items()],
    }


class TestRegressionGate:
    def test_within_tolerance_passes(self):
        harness = load_harness()
        baseline = report_with({"fig08": 3.0, "fig10-cpu-copy": 3.0})
        report = report_with({"fig08": 2.5, "fig10-cpu-copy": 3.4})
        assert harness.check_regression(report, baseline) == []

    def test_regression_fails(self):
        harness = load_harness()
        baseline = report_with({"fig08": 3.0})
        report = report_with({"fig08": 2.3})  # below 3.0 * 0.8
        failures = harness.check_regression(report, baseline)
        assert len(failures) == 1 and "fig08" in failures[0]

    def test_unknown_workloads_are_ignored(self):
        harness = load_harness()
        baseline = report_with({"other": 9.0})
        report = report_with({"fig08": 1.0})
        assert harness.check_regression(report, baseline) == []

    @staticmethod
    def kernel_report(speedup: float, kernel_speedup: float) -> dict:
        return {"results": [{"workload": "fig08", "speedup": speedup,
                             "kernel_speedup": kernel_speedup}]}

    def test_kernel_column_gated_too(self):
        # The kernel column has its own (wider) tolerance: its walls are
        # milliseconds, so the ratio is noisier than the fastpath one.
        harness = load_harness()
        baseline = self.kernel_report(3.0, 40.0)
        report = self.kernel_report(3.0, 15.0)  # below 40.0 * 0.5
        failures = harness.check_regression(report, baseline)
        assert len(failures) == 1 and "kernel_speedup" in failures[0]
        within = self.kernel_report(3.0, 25.0)  # above 40.0 * 0.5
        assert harness.check_regression(within, baseline) == []

    def test_pre_kernel_baseline_gates_classic_column_only(self):
        # A v1 baseline (no kernel column) must not fail a v2 report.
        harness = load_harness()
        baseline = report_with({"fig08": 3.0})
        report = self.kernel_report(2.9, 40.0)
        assert harness.check_regression(report, baseline) == []


class TestSpecOverheadGate:
    @staticmethod
    def report_with_overhead(fig08_wall: float, compile_wall: float) -> dict:
        return {
            "results": [{"workload": "fig08", "baseline_wall_s": fig08_wall}],
            "spec_overhead": {"spec": "specs/default.yaml",
                              "validate_wall_s": compile_wall / 2,
                              "compile_wall_s": compile_wall},
        }

    def test_under_budget_passes(self):
        harness = load_harness()
        report = self.report_with_overhead(1.0, 0.005)
        assert harness.check_spec_overhead(report) == []

    def test_over_budget_fails(self):
        harness = load_harness()
        report = self.report_with_overhead(1.0, 0.02)
        failures = harness.check_spec_overhead(report)
        assert len(failures) == 1 and "spec compile" in failures[0]

    def test_reports_without_overhead_pass(self):
        # Older reports (and stubbed ones in tests) lack the key.
        harness = load_harness()
        assert harness.check_spec_overhead(
            {"results": [{"workload": "fig08", "baseline_wall_s": 1.0}]}) \
            == []

    def test_measure_is_real_and_fast(self):
        # The probe itself is cheap enough for tier-1: compiling the
        # default spec takes milliseconds.
        harness = load_harness()
        overhead = harness.measure_spec_overhead(rounds=1)
        assert overhead["spec"] == "specs/default.yaml"
        assert 0 < overhead["validate_wall_s"]
        assert overhead["compile_wall_s"] < 1.0


class TestHarnessReport:
    def test_main_writes_report_and_checks(self, tmp_path, monkeypatch):
        harness = load_harness()
        fake = {
            "schema": "bench-emulation/v2",
            "engine": "event",
            "git_rev": "deadbee",
            "python": "3.11",
            "rounds": 1,
            "kernel_backend": {
                "backend": "c", "compiler": "cc 12.2.0",
                "build_seconds": 0.4, "compiled_this_process": True,
                "reason": "ok",
            },
            "results": [{
                "workload": "fig08", "accesses": 1000,
                "baseline_wall_s": 1.0, "fastpath_wall_s": 0.25,
                "kernel_wall_s": 0.05,
                "baseline_accesses_per_s": 1000,
                "fastpath_accesses_per_s": 4000,
                "kernel_accesses_per_s": 20000,
                "speedup": 4.0, "kernel_speedup": 20.0,
                "kernel_vs_fastpath": 5.0,
            }],
        }
        monkeypatch.setattr(harness, "run_benchmarks", lambda rounds: fake)
        monkeypatch.setattr(harness, "BASELINE_PATH",
                            str(tmp_path / "BENCH_baseline.json"))
        out = tmp_path / "BENCH_emulation.json"
        assert harness.main(["--out", str(out), "--update-baseline"]) == 0
        written = json.loads(out.read_text())
        assert written["results"][0]["workload"] == "fig08"
        assert json.loads((tmp_path / "BENCH_baseline.json").read_text()) \
            == fake
        # Second run gates against the freshly written baseline.
        assert harness.main(["--out", str(out), "--check"]) == 0
        worse = json.loads(json.dumps(fake))
        worse["results"][0]["speedup"] = 1.0
        monkeypatch.setattr(harness, "run_benchmarks", lambda rounds: worse)
        assert harness.main(["--out", str(out), "--check"]) == 1

    def test_checked_in_baseline_is_valid(self):
        harness = load_harness()
        with open(harness.BASELINE_PATH) as fh:
            baseline = json.load(fh)
        assert baseline["schema"] == "bench-emulation/v2"
        assert "compiler" in baseline["kernel_backend"]
        assert "build_seconds" in baseline["kernel_backend"]
        names = {r["workload"] for r in baseline["results"]}
        assert names == set(harness.WORKLOADS)
        for row in baseline["results"]:
            assert row["speedup"] >= 3.0  # the fastpath acceptance bar
            # The batch kernel's acceptance bar: >=3x over the fastpath.
            assert row["kernel_vs_fastpath"] >= 3.0

    def test_measure_workload_asserts_artifact_equality(self, monkeypatch):
        harness = load_harness()
        artifacts = iter([({"a": 1}, 1.0), ({"a": 2}, 1.0), ({"a": 2}, 1.0)])

        def fake_run_once(driver, mode):
            artifact, wall = next(artifacts)
            return wall, artifact

        monkeypatch.setattr(harness, "_run_once", fake_run_once)
        try:
            harness.measure_workload("fig08", rounds=1)
        except AssertionError as exc:
            assert "artifact" in str(exc)
        else:  # pragma: no cover - guard
            raise AssertionError("artifact mismatch not detected")

    def test_measure_workload_asserts_kernel_artifact_equality(
            self, monkeypatch):
        harness = load_harness()
        artifacts = iter([({"a": 1}, 1.0), ({"a": 1}, 1.0), ({"a": 2}, 1.0)])

        def fake_run_once(driver, mode):
            artifact, wall = next(artifacts)
            return wall, artifact

        monkeypatch.setattr(harness, "_run_once", fake_run_once)
        try:
            harness.measure_workload("fig08", rounds=1)
        except AssertionError as exc:
            assert "kernel" in str(exc)
        else:  # pragma: no cover - guard
            raise AssertionError("kernel artifact mismatch not detected")


class TestCliBench:
    def test_run_bench_invokes_harness(self, tmp_path, monkeypatch):
        from repro.runner import cli

        calls = {}

        class FakeHarness:
            @staticmethod
            def main(argv):
                calls["argv"] = argv
                return 0

        monkeypatch.setattr(cli, "_load_bench_harness", lambda: FakeHarness)
        rc = cli.main(["run", "--bench", "--out", str(tmp_path)])
        assert rc == 0
        assert calls["argv"][0] == "--out"
        assert calls["argv"][1].endswith("BENCH_emulation.json")
        assert "--check" in calls["argv"]

    def test_profile_command_smoke(self, capsys):
        from repro.runner import cli

        rc = cli.main(["profile", "--artifact", "fig02"])
        out = capsys.readouterr().out
        assert rc == 0
        for layer in ("trace_gen", "cache", "smc", "device"):
            assert layer in out

    def test_profile_attributes_resident_mix_to_kernel(self):
        """A multi-core mix's resident replay is kernel time, not "other"
        (and no Python cache filter runs at all)."""
        from repro.core.config import jetson_nano_time_scaling
        from repro.core.workload_mix import WorkloadMix, run_mix
        from repro.dram.kernel import resolve_backend
        from repro.profiling.characterize import layer_breakdown

        if resolve_backend()[0] is None:
            pytest.skip("no compiled kernel backend")
        breakdown = layer_breakdown(
            run_mix, jetson_nano_time_scaling(),
            WorkloadMix.parse("stream+pointer_chase"), solo=False)
        assert breakdown["kernel_s"] > 0
        assert breakdown["cache_s"] == 0
        assert breakdown["kernel_fallbacks"] == {}

    def test_profile_unknown_artifact(self, capsys):
        from repro.runner import cli

        assert cli.main(["profile", "--artifact", "nope"]) == 2
