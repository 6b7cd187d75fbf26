"""The `repro submit` / `repro query` CLI verbs against a live service,
plus `repro serve` argument handling."""

from __future__ import annotations

import json

import pytest

from repro.runner.cli import main


class TestSubmitVerb:
    def test_submit_artifact_waits_and_prints_result(self, service,
                                                     capsys):
        _, url = service
        rc = main(["submit", "--url", url, "--artifact", "svc-tiny"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "job-1: done (executed, fingerprint " in out
        assert '"total": 6' in out

    def test_second_submission_reports_cache_hit(self, service, capsys):
        _, url = service
        assert main(["submit", "--url", url, "--artifact", "svc-tiny"]) == 0
        capsys.readouterr()
        assert main(["submit", "--url", url, "--artifact", "svc-tiny"]) == 0
        assert "done (store cache hit" in capsys.readouterr().out

    def test_json_output_is_machine_readable(self, service, capsys):
        _, url = service
        rc = main(["submit", "--url", url, "--artifact", "svc-tiny",
                   "--point", "p2", "--json"])
        assert rc == 0
        response = json.loads(capsys.readouterr().out)
        assert response["state"] == "done"
        assert response["result"]["values"]["p2"] == {"value": 2,
                                                      "squared": 4}

    def test_overrides_and_spec_are_exclusive_shapes(self, service,
                                                     capsys):
        _, url = service
        assert main(["submit", "--url", url]) == 2
        assert "exactly one" in capsys.readouterr().err
        rc = main(["submit", "--url", url, "--artifact", "svc-tiny",
                   "--overrides", "{not json"])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_artifact_is_a_client_error(self, service, capsys):
        _, url = service
        rc = main(["submit", "--url", url, "--artifact", "fig99"])
        assert rc == 2
        assert "fig99" in capsys.readouterr().err

    def test_unreachable_service_is_a_clear_error(self, capsys):
        rc = main(["submit", "--url", "http://127.0.0.1:9",
                   "--artifact", "svc-tiny"])
        assert rc == 2
        assert "repro serve" in capsys.readouterr().err

    def test_spec_file_submission(self, service, tmp_path, capsys):
        _, url = service
        spec = tmp_path / "tiny.yaml"
        spec.write_text(
            "version: 1\n"
            "name: cli-test\n"
            "description: CLI spec submission.\n"
            "artifacts:\n"
            "  - artifact: fig02\n"
            "    overrides:\n"
            "      accesses: 200\n"
            "      working_set: 65536\n")
        rc = main(["submit", "--url", url, "--spec", str(spec), "--json"])
        assert rc == 0
        response = json.loads(capsys.readouterr().out)
        assert response["state"] == "done"
        assert "fig02" in response["result"]["artifacts"]


class TestQueryVerb:
    @pytest.fixture(autouse=True)
    def _populate(self, service):
        _, url = service
        assert main(["submit", "--url", url, "--artifact", "svc-tiny"]) == 0

    def test_ascii_table(self, service, capsys):
        _, url = service
        capsys.readouterr()
        rc = main(["query", "--url", url,
                   "SELECT artifact, count(*) AS points FROM points"
                   " GROUP BY artifact"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].split() == ["artifact", "points"]
        assert lines[2].split() == ["svc-tiny", "3"]
        assert lines[3] == "(1 row)"

    def test_json_output(self, service, capsys):
        _, url = service
        capsys.readouterr()
        rc = main(["query", "--url", url, "--json",
                   "SELECT count(*) AS n FROM jobs"])
        assert rc == 0
        table = json.loads(capsys.readouterr().out)
        assert table["rows"] == [[1]]

    def test_write_statements_rejected(self, service, capsys):
        _, url = service
        capsys.readouterr()
        rc = main(["query", "--url", url, "DELETE FROM points"])
        assert rc == 1
        assert "read-only" in capsys.readouterr().err


class TestServeVerb:
    def test_bad_store_path_is_a_startup_error(self, tmp_path, capsys):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("x")
        rc = main(["serve", "--store",
                   str(blocker / "nested" / "results.db")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_non_sqlite_store_file_is_a_startup_error(self, tmp_path,
                                                       capsys):
        """A store file that is not SQLite (a stale store from another
        backend, anything else) is an error naming the path, not a
        traceback; the store is a cache, so the fix is to delete it."""
        path = tmp_path / "results.db"
        path.write_bytes(b"not an sqlite database\n" * 64)
        rc = main(["serve", "--store", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert str(path) in err and "delete it" in err
