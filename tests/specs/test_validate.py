"""Spec schema validation: every problem reported, anchored file:line."""

from __future__ import annotations

import pytest

from repro.specs import (
    SpecLoadError,
    SpecValidationError,
    compile_spec,
    load_and_compile,
    load_spec,
)


def problems_of(path: str) -> list[str]:
    with pytest.raises(SpecValidationError) as err:
        load_and_compile(path)
    return err.value.problems


class TestDocumentSchema:
    def test_valid_spec_loads(self, tiny_spec):
        spec = load_spec(tiny_spec)
        assert spec.name == "tiny"
        assert [e.selector for e in spec.entries] == ["fig02", "fig16"]
        assert spec.entries[1].overrides["core_counts"] == [1]

    def test_yaml_syntax_error_is_line_anchored(self, spec_file):
        path = spec_file("version: 1\nname: [unclosed\n")
        with pytest.raises(SpecLoadError) as err:
            load_spec(path)
        assert f"{path}:" in str(err.value)
        assert "invalid YAML" in str(err.value)

    def test_non_mapping_document_rejected(self, spec_file):
        path = spec_file("- just\n- a\n- list\n")
        with pytest.raises(SpecValidationError) as err:
            load_spec(path)
        assert "must be a YAML mapping" in str(err.value)

    def test_unknown_top_key_anchored_to_its_line(self, spec_file):
        path = spec_file("""\
            version: 1
            name: x
            bogus: true
            artifacts:
              - artifact: fig02
            """)
        problems = problems_of(path)
        assert any(p.startswith(f"{path}:3:") and "'bogus'" in p
                   for p in problems)

    def test_wrong_version_rejected(self, spec_file):
        path = spec_file("""\
            version: 99
            name: x
            artifacts:
              - artifact: fig02
            """)
        assert any("'version' must be 1" in p for p in problems_of(path))

    def test_missing_artifacts_rejected(self, spec_file):
        path = spec_file("version: 1\nname: x\n")
        assert any("'artifacts' must be a non-empty list" in p
                   for p in problems_of(path))

    def test_env_section_is_an_unknown_key(self, spec_file):
        # Specs no longer set environment knobs: a point's result must
        # depend only on what the point states (its params).
        path = spec_file("""\
            version: 1
            name: x
            env:
              REPRO_FULL: "1"
            artifacts:
              - artifact: fig02
            """)
        with pytest.raises(SpecValidationError) as err:
            load_spec(path)
        assert any(p.startswith(f"{path}:3:") and "unknown key 'env'" in p
                   for p in err.value.problems)

    def test_entry_unknown_key_anchored(self, spec_file):
        path = spec_file("""\
            version: 1
            name: x
            artifacts:
              - artifact: fig02
                overides:
                  accesses: 100
            """)
        problems = problems_of(path)
        assert any(f"{path}:5:" in p and "'overides'" in p
                   for p in problems)

    def test_points_section_schema(self, spec_file):
        path = spec_file("""\
            version: 1
            name: x
            artifacts:
              - artifact: fig02
                points:
                  includes: ["*"]
                  exclude: "model-0"
            """)
        problems = problems_of(path)
        assert any("'includes'" in p for p in problems)
        assert any("'exclude' must be a list" in p for p in problems)

    def test_all_problems_reported_at_once(self, spec_file):
        path = spec_file("""\
            version: 2
            artifacts: []
            """)
        assert len(problems_of(path)) >= 3  # version, name, artifacts


class TestCompileCrossChecks:
    def test_unknown_artifact_gets_suggestion(self, spec_file):
        path = spec_file("""\
            version: 1
            name: x
            artifacts:
              - artifact: fig9
            """)
        problems = problems_of(path)
        assert any("unknown artifact 'fig9'" in p and "did you mean" in p
                   for p in problems)

    def test_unknown_override_names_the_accepted_ones(self, spec_file):
        path = spec_file("""\
            version: 1
            name: x
            artifacts:
              - artifact: fig02
                overrides:
                  access_count: 100
            """)
        problems = problems_of(path)
        assert any("no override 'access_count'" in p and "accesses" in p
                   for p in problems)

    def test_include_matching_nothing_is_an_error(self, spec_file):
        path = spec_file("""\
            version: 1
            name: x
            artifacts:
              - artifact: fig02
                points:
                  include: ["nope-*"]
            """)
        assert any("matches no points" in p for p in problems_of(path))

    def test_filters_that_leave_nothing_are_an_error(self, spec_file):
        path = spec_file("""\
            version: 1
            name: x
            artifacts:
              - artifact: fig02
                points:
                  exclude: ["model-*"]
            """)
        assert any("leave no points" in p for p in problems_of(path))

    def test_duplicate_artifact_across_entries_rejected(self, spec_file):
        path = spec_file("""\
            version: 1
            name: x
            artifacts:
              - artifact: fig02
              - artifact: fig0*
            """)
        assert any("already selected" in p for p in problems_of(path))

    def test_glob_selector_expands_in_registry_order(self, spec_file):
        path = spec_file("""\
            version: 1
            name: x
            artifacts:
              - artifact: fig1*
            """)
        compiled = compile_spec(load_spec(path))
        names = [e.sweep.artifact for e in compiled.entries]
        assert names == ["fig10", "fig11", "fig12", "fig13", "fig14",
                         "fig15", "fig16", "fig17"]

    def test_point_filters_select_subset(self, spec_file):
        path = spec_file("""\
            version: 1
            name: x
            artifacts:
              - artifact: fig16
                overrides:
                  core_counts: [1]
                points:
                  include: ["1core-*"]
                  exclude: ["1core-fcfs"]
            """)
        compiled = compile_spec(load_spec(path))
        entry = compiled.entries[0]
        assert entry.filtered
        assert [p.point_id for p in entry.selected] == ["1core-fr-fcfs"]

