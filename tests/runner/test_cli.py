"""Smoke tests for the unified ``repro`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.runner import SweepPoint, SweepSpec
from repro.runner import registry
from repro.runner.cli import main


@pytest.fixture
def isolated_dirs(tmp_path, monkeypatch):
    out = tmp_path / "results"
    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    return out, cache


class TestRunJson:
    def test_json_smoke(self, isolated_dirs, capsys):
        out, cache = isolated_dirs
        rc = main(["run", "--artifacts", "tab01", "--jobs", "2",
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "Table 1" in stdout
        assert "all artifacts regenerated" in stdout
        payload = json.loads((out / "tab01.json").read_text())
        assert payload["ok"] is True
        assert payload["artifact"] == "tab01"
        assert len(payload["result"]["rows"]) == 6
        manifest = json.loads((out / "manifest.json").read_text())
        assert [a["artifact"] for a in manifest["artifacts"]] == ["tab01"]
        assert manifest["scale"] == "ci"
        assert (cache / "tab01").is_dir()

    def test_second_run_reports_cache_hits(self, isolated_dirs, capsys):
        out, _cache = isolated_dirs
        assert main(["run", "--artifacts", "tab01", "--format", "json",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["run", "--artifacts", "tab01", "--format", "json",
                     "--out", str(out)]) == 0
        assert "1 cached" in capsys.readouterr().out

    def test_no_cache_flag_skips_cache_dir(self, isolated_dirs, capsys):
        out, cache = isolated_dirs
        rc = main(["run", "--artifacts", "tab01", "--no-cache",
                   "--quiet", "--out", str(out)])
        assert rc == 0
        assert not cache.exists()


class TestRunCsv:
    def test_csv_rows_written(self, isolated_dirs):
        out, _cache = isolated_dirs
        rc = main(["run", "--artifacts", "tab01", "--format", "csv",
                   "--quiet", "--out", str(out)])
        assert rc == 0
        lines = (out / "tab01.csv").read_text().strip().splitlines()
        assert lines[0].startswith("platform,")
        assert len(lines) == 7  # header + 6 platform rows

    def test_every_artifact_shape_has_a_csv_table_or_none(self):
        from repro.runner.cli import _csv_table
        spec = registry.get("fig10")
        fig10_like = {
            "sizes": [8192], "clflush": False,
            "copy": {"TS": [2.0]}, "init": {"TS": [1.1]},
        }
        headers, rows = _csv_table(spec, fig10_like)
        assert headers[0] == "workload"
        assert ("copy", 8192, "TS", 2.0) in rows
        fig08_like = {"sizes_kib": [16], "series": {"A": [3.5]}}
        headers, rows = _csv_table(registry.get("fig08"), fig08_like)
        assert headers == ("size_kib", "A") and rows == [[16, 3.5]]
        # The ablations bundle has no single table: explicit None.
        assert _csv_table(registry.get("ablations"),
                          {"scheduler": {"rows": []}}) is None

    def test_csv_skip_note_names_artifact(self, isolated_dirs, capsys,
                                          monkeypatch):
        from repro.runner import SweepPoint as SP, SweepSpec as SS
        out, _cache = isolated_dirs
        tableless = SS(
            artifact="tableless", title="Tableless", module="repro",
            build_points=lambda: (SP(artifact="tableless", point_id="p",
                                     fn="os:getpid"),),
            combine=lambda r: {"value": list(r.values())})
        registry._load()
        monkeypatch.setitem(registry._REGISTRY, "tableless", tableless)
        rc = main(["run", "--artifacts", "tableless", "--format", "csv",
                   "--quiet", "--no-cache", "--out", str(out)])
        assert rc == 0
        assert "tableless: no tabular shape" in capsys.readouterr().err
        assert not (out / "tableless.csv").exists()


class TestFailureHandling:
    @pytest.fixture
    def with_broken_artifact(self, monkeypatch):
        broken = SweepSpec(
            artifact="broken", title="Broken artifact",
            module="repro.experiments",
            build_points=lambda: (SweepPoint(
                artifact="broken", point_id="p",
                fn="repro.runner.spec:does_not_exist"),),
            combine=dict)
        registry._load()
        monkeypatch.setitem(registry._REGISTRY, "broken", broken)
        return broken

    def test_failing_artifact_exits_nonzero_and_is_named(
            self, with_broken_artifact, isolated_dirs, capsys):
        out, _cache = isolated_dirs
        rc = main(["run", "--artifacts", "broken,tab01", "--quiet",
                   "--no-cache", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "FAILED broken" in captured.out
        assert "broken" in captured.err
        assert "does_not_exist" in captured.err
        # The failure did not abort the remaining artifacts.
        assert "Table 1" in captured.out

    def test_unknown_artifact_is_a_usage_error(self, capsys):
        assert main(["run", "--artifacts", "fig99"]) == 2
        assert "unknown artifact" in capsys.readouterr().err


class TestList:
    def test_list_names_every_artifact(self, capsys):
        assert main(["list"]) == 0
        stdout = capsys.readouterr().out
        for artifact in registry.ARTIFACT_ORDER:
            assert artifact in stdout

    def test_list_shows_descriptions_and_runtimes(self, capsys):
        """Users should not need to grep experiments/ for what runs what."""
        assert main(["list"]) == 0
        stdout = capsys.readouterr().out
        for spec in registry.all_specs().values():
            assert spec.description, f"{spec.artifact} has no description"
            assert spec.runtime, f"{spec.artifact} has no runtime estimate"
            assert spec.description in stdout
            assert spec.runtime in stdout

    def test_run_dash_dash_list_is_the_same_listing(self, capsys):
        assert main(["list"]) == 0
        plain = capsys.readouterr().out
        assert main(["run", "--list"]) == 0
        assert capsys.readouterr().out == plain


class TestProfile:
    def test_profile_command_smoke(self, capsys):
        rc = main(["profile", "--artifact", "fig02"])
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
        assert main(["profile", "--artifact", "nope"]) == 2
