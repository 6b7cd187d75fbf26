"""The spec-facing CLI verbs: validate, plan, diff, hash, run --spec."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.runner.cli import main as cli_main

DEFAULT_SPEC = str(Path(__file__).resolve().parents[2] / "specs"
                   / "default.yaml")


class TestValidate:
    def test_ok_spec_prints_summary(self, tiny_spec, capsys):
        assert cli_main(["validate", tiny_spec]) == 0
        out = capsys.readouterr().out
        assert f"OK {tiny_spec}" in out
        assert "2 artifacts, 6 points" in out

    def test_invalid_spec_exits_2_with_anchored_errors(self, spec_file,
                                                       capsys):
        path = spec_file("""\
            version: 1
            name: x
            artifacts:
              - artifact: fig9
            """)
        assert cli_main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}:4:" in err
        assert "did you mean" in err

    def test_one_bad_spec_fails_the_batch(self, tiny_spec, spec_file,
                                          capsys):
        bad = spec_file("version: 1\n", name="bad.yaml")
        assert cli_main(["validate", tiny_spec, bad]) == 2
        captured = capsys.readouterr()
        assert f"OK {tiny_spec}" in captured.out
        assert "error:" in captured.err


class TestPlan:
    def test_table_lists_artifacts_and_totals(self, tiny_spec, tmp_path,
                                              capsys):
        rc = cli_main(["plan", tiny_spec,
                       "--cache-dir", str(tmp_path / "cache")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fig02" in out and "fig16" in out
        assert "total: 6 points, 0 cached, 6 to run" in out

    def test_json_plan_parses(self, tiny_spec, tmp_path, capsys):
        rc = cli_main(["plan", tiny_spec, "--json",
                       "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        plan = json.loads(capsys.readouterr().out)
        assert plan["total_to_run"] == 6

    def test_shard_plan(self, tiny_spec, tmp_path, capsys):
        rc = cli_main(["plan", tiny_spec, "--shard", "1/2", "--json",
                       "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["total_selected"] == 3

    def test_full_plans_the_paper_scale_points(self, tmp_path, capsys):
        """``--full`` plans each sweep's paper_overrides and records the
        scale; fig10 and fig11 grow from 54 to 72 points."""
        plans = {}
        for full in (False, True):
            rc = cli_main(["plan", DEFAULT_SPEC, "--json", "--cache-dir",
                           str(tmp_path)] + (["--full"] if full else []))
            assert rc == 0
            plans[full] = json.loads(capsys.readouterr().out)
        for full, points in ((False, 54), (True, 72)):
            selected = {row["artifact"]: row["selected"]
                        for row in plans[full]["artifacts"]}
            assert selected["fig10"] == selected["fig11"] == points
            assert selected["fig02"] == 4
        assert (plans[False]["scale"], plans[True]["scale"]) == (
            "ci", "paper")
        assert plans[False]["spec_hash"] == plans[True]["spec_hash"]
        assert plans[False]["run_fingerprint"] != \
            plans[True]["run_fingerprint"]

    def test_bad_shard_exits_2(self, tiny_spec, tmp_path, capsys):
        assert cli_main(["plan", tiny_spec, "--shard", "9/2",
                         "--cache-dir", str(tmp_path / "cache")]) == 2
        assert "shard" in capsys.readouterr().err


class TestDiff:
    def test_identical_specs_exit_0(self, tiny_spec, spec_file, capsys):
        from pathlib import Path

        copy = spec_file(Path(tiny_spec).read_text(), name="copy.yaml")
        assert cli_main(["diff", tiny_spec, copy]) == 0
        assert "semantically identical" in capsys.readouterr().out

    def test_semantic_change_exits_1_with_delta(self, tiny_spec, spec_file,
                                                capsys):
        from pathlib import Path

        changed = spec_file(
            Path(tiny_spec).read_text().replace(
                "core_counts: [1]", "core_counts: [1, 2]"),
            name="changed.yaml")
        assert cli_main(["diff", tiny_spec, changed]) == 1
        out = capsys.readouterr().out
        assert "fig16: override core_counts: [1] -> [1, 2]" in out
        # Compiled point delta: two new 2-core points appeared.
        assert "fig16: +2 points" in out

    def test_unreadable_spec_exits_2(self, tiny_spec, tmp_path, capsys):
        missing = str(tmp_path / "nope.yaml")
        assert cli_main(["diff", tiny_spec, missing]) == 2
        assert "error:" in capsys.readouterr().err


class TestHash:
    def test_prints_spec_hash_and_run_fingerprint(self, tiny_spec, capsys):
        from repro.specs import load_spec, run_fingerprint, spec_hash

        assert cli_main(["hash", tiny_spec]) == 0
        out = capsys.readouterr().out
        spec = load_spec(tiny_spec)
        assert spec_hash(spec) in out
        assert run_fingerprint(spec) in out

    def test_check_update_roundtrip(self, tiny_spec, tmp_path, capsys):
        assert cli_main(["hash", "--check", tiny_spec]) == 1
        assert "no recorded hash" in capsys.readouterr().err
        assert cli_main(["hash", "--update", tiny_spec]) == 0
        assert (tmp_path / "HASHES.json").is_file()
        capsys.readouterr()
        assert cli_main(["hash", "--check", tiny_spec]) == 0
        assert "up to date" in capsys.readouterr().out

    def test_check_and_update_are_exclusive(self, tiny_spec, capsys):
        with pytest.raises(SystemExit):
            cli_main(["hash", "--check", "--update", tiny_spec])


class TestRunSpec:
    def test_shard_without_spec_exits_2(self, capsys):
        assert cli_main(["run", "--shard", "1/3"]) == 2
        assert "--shard requires --spec" in capsys.readouterr().err

    def test_shard_with_no_cache_exits_2(self, tiny_spec, capsys):
        assert cli_main(["run", "--spec", tiny_spec, "--shard", "1/3",
                         "--no-cache"]) == 2
        assert "drop" in capsys.readouterr().err

    def test_invalid_spec_exits_2(self, spec_file, capsys):
        bad = spec_file("version: 1\n", name="bad.yaml")
        assert cli_main(["run", "--spec", bad]) == 2
        assert "error:" in capsys.readouterr().err

    def test_manifest_records_the_scale(self, tiny_spec, tmp_path, capsys):
        manifests = {}
        for full in (False, True):
            out = tmp_path / str(full)
            rc = cli_main(["run", "--spec", tiny_spec, "--no-cache",
                           "--quiet", "--format", "json", "--out", str(out)]
                          + (["--full"] if full else []))
            assert rc == 0
            manifests[full] = json.loads((out / "manifest.json").read_text())
        assert (manifests[False]["scale"], manifests[True]["scale"]) == (
            "ci", "paper")
        assert manifests[False]["spec_hash"] == manifests[True]["spec_hash"]
        assert manifests[False]["run_fingerprint"] != \
            manifests[True]["run_fingerprint"]


class TestArtifactSelection:
    def test_glob_artifacts_expand(self, capsys):
        from repro.runner.cli import _select_artifacts

        assert _select_artifacts("fig1*") == [
            "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
            "fig17"]
        assert _select_artifacts("fig02,fig0*") == ["fig02", "fig08"]

    def test_unknown_artifact_suggests_and_exits_2(self, capsys):
        assert cli_main(["run", "--artifacts", "fig9"]) == 2
        err = capsys.readouterr().err
        assert "unknown artifact 'fig9'" in err
        assert "did you mean" in err

    def test_unmatched_glob_exits_2(self, capsys):
        assert cli_main(["run", "--artifacts", "zz*"]) == 2
        assert "zz*" in capsys.readouterr().err

    def test_help_epilog_lists_the_spec_verbs(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for verb in ("validate", "plan", "diff", "hash"):
            assert verb in out
