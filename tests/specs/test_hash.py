"""Spec content addresses and the HASHES.json drift gate."""

from __future__ import annotations

import glob
import json
import os

from repro.specs import (
    check_hash,
    load_and_compile,
    load_spec,
    run_fingerprint,
    spec_hash,
    update_hashes,
)

REPO = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))


class TestSpecHash:
    def test_stable_under_key_reordering_and_comments(self, spec_file):
        a = spec_file("""\
            version: 1
            name: x
            description: d
            artifacts:
              - artifact: fig02
                overrides:
                  accesses: 100
                  working_set: 65536
            """, name="a.yaml")
        b = spec_file("""\
            # cosmetic differences only
            name: x
            artifacts:
              - overrides:
                  working_set: 65536
                  accesses: 100
                artifact: fig02
            description: d
            version: 1
            """, name="b.yaml")
        assert spec_hash(load_spec(a)) == spec_hash(load_spec(b))

    def test_sensitive_to_every_semantic_field(self, spec_file):
        base = """\
            version: 1
            name: x
            description: d
            artifacts:
              - artifact: fig02
                overrides:
                  accesses: 100
                points:
                  include: ["model-*"]
            """
        edits = [
            ("name: x", "name: y"),
            ("description: d", "description: e"),
            ("artifact: fig02", "artifact: fig16"),
            ("accesses: 100", "accesses: 200"),
            ('include: ["model-*"]', 'include: ["model-0"]'),
        ]
        reference = spec_hash(load_spec(spec_file(base, name="ref.yaml")))
        for index, (old, new) in enumerate(edits):
            edited = spec_file(base.replace(old, new),
                               name=f"edit{index}.yaml")
            assert spec_hash(load_spec(edited)) != reference, (old, new)

    def test_default_spec_keeps_its_checked_in_digest(self):
        # spec_hash promises stability across code changes: the hash
        # input keeps the empty "env" slot that specs had before the
        # section was removed, so recorded digests (HASHES.json, stored
        # job rows) stay valid.  The literal also catches a lockfile
        # regenerated to follow a changed hash input.
        with open(os.path.join(REPO, "specs", "HASHES.json"),
                  encoding="utf-8") as handle:
            recorded = json.load(handle)["default.yaml"]
        spec = load_spec(os.path.join(REPO, "specs", "default.yaml"))
        assert spec_hash(spec) == recorded == "cec63aae18b5de01"

    def test_run_fingerprint_tracks_the_code(self, spec_file, monkeypatch):
        from repro.specs import hashing

        path = spec_file("""\
            version: 1
            name: x
            artifacts:
              - artifact: fig02
            """)
        spec = load_spec(path)
        before = run_fingerprint(spec)
        assert before != spec_hash(spec)
        import repro.runner.cache as cache_mod

        monkeypatch.setattr(cache_mod, "code_fingerprint",
                            lambda: "feedfacefeedface")
        assert hashing.run_fingerprint(spec) != before
        # The document address must NOT move with the code.
        assert spec_hash(spec) == hashing.spec_hash(spec)


class TestLockfile:
    def spec_at(self, spec_file, body: str = "name: x"):
        return load_spec(spec_file(f"""\
            version: 1
            {body}
            artifacts:
              - artifact: fig02
            """))

    def test_check_update_cycle(self, spec_file):
        spec = self.spec_at(spec_file)
        missing = check_hash(spec)
        assert missing and "no recorded hash" in missing
        assert "repro hash --update" in missing
        update_hashes([spec])
        assert check_hash(spec) is None
        # A semantic edit makes the recorded hash stale.
        edited = self.spec_at(spec_file, body="name: renamed")
        stale = check_hash(edited)
        assert stale and "stale hash" in stale

    def test_checked_in_specs_validate_and_match_lockfile(self):
        paths = sorted(glob.glob(os.path.join(REPO, "specs", "*.yaml")))
        assert len(paths) >= 4  # default + the figure grids
        for path in paths:
            compiled = load_and_compile(path)  # registry cross-checks too
            assert compiled.total_points() > 0
            assert check_hash(compiled.spec) is None, path

    def test_default_suite_covers_the_deterministic_artifacts(self):
        compiled = load_and_compile(os.path.join(REPO, "specs",
                                                 "default.yaml"))
        names = {e.sweep.artifact for e in compiled.entries}
        # Host-wall-clock artifacts must stay out: their results are not
        # bit-identical across runs, which the sharded CI merge asserts.
        assert names.isdisjoint({"tab01", "fig14", "fig15"})
        assert {"fig02", "fig08", "fig16", "ablations"} <= names
