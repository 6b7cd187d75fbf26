"""``repro plan``: point counts, cache probes, runtime estimates."""

from __future__ import annotations

import pytest

from repro.runner.cache import ResultCache
from repro.specs import load_and_compile, parse_runtime, plan_spec


@pytest.mark.parametrize("text,seconds", [
    ("~45 s", 45.0),
    ("~1 s", 1.0),
    ("2.5 sec", 2.5),
    ("~5 min", 300.0),
    ("3 m", 180.0),
    ("", None),
    ("fast-ish", None),
])
def test_parse_runtime(text, seconds):
    assert parse_runtime(text) == seconds


class TestPlan:
    def test_cold_plan_counts_every_point(self, tiny_spec, tmp_path):
        compiled = load_and_compile(tiny_spec)
        plan = plan_spec(compiled, ResultCache(tmp_path / "cache"))
        assert plan["spec"] == "tiny"
        assert plan["total_selected"] == 6
        assert plan["total_cached"] == 0
        assert plan["total_to_run"] == 6
        assert plan["est_seconds"] and plan["est_seconds"] > 0
        by_name = {r["artifact"]: r for r in plan["artifacts"]}
        assert by_name["fig02"]["point_ids"] == [
            "model-0", "model-1", "model-2", "model-3"]
        assert by_name["fig16"]["built"] == 2

    def test_warmed_cache_turns_points_into_hits(self, tiny_spec, tmp_path):
        compiled = load_and_compile(tiny_spec)
        cache = ResultCache(tmp_path / "cache")
        # Warm fig02 only — plan must probe, not recompute.
        fig02 = next(e for e in compiled.entries
                     if e.sweep.artifact == "fig02")
        for point in fig02.selected:
            cache.put(point, {"stub": point.point_id})
        plan = plan_spec(compiled, cache)
        by_name = {r["artifact"]: r for r in plan["artifacts"]}
        assert by_name["fig02"]["cached"] == 4
        assert by_name["fig02"]["to_run"] == 0
        assert by_name["fig02"]["est_seconds"] == 0
        assert by_name["fig16"]["cached"] == 0
        assert plan["total_cached"] == 4
        assert plan["total_to_run"] == 2

    def test_cache_hits_are_override_sensitive(self, tiny_spec, tmp_path,
                                               spec_file):
        # Same artifact, different overrides -> different points -> the
        # warmed cache must not claim hits for the other spec.
        compiled = load_and_compile(tiny_spec)
        cache = ResultCache(tmp_path / "cache")
        for entry in compiled.entries:
            for point in entry.selected:
                cache.put(point, {"stub": 1})
        other = spec_file("""\
            version: 1
            name: other
            artifacts:
              - artifact: fig02
                overrides:
                  accesses: 300
                  working_set: 65536
            """, name="other.yaml")
        plan = plan_spec(load_and_compile(other), cache)
        assert plan["total_cached"] == 0

    def test_shard_plan_covers_only_the_slice(self, tiny_spec, tmp_path):
        from repro.specs import shard_selection

        compiled = load_and_compile(tiny_spec)
        cache = ResultCache(tmp_path / "cache")
        plans = [plan_spec(compiled, cache,
                           shard_selection(compiled, index, 2))
                 for index in (1, 2)]
        assert sum(p["total_selected"] for p in plans) == 6
        assert all(p["total_selected"] == 3 for p in plans)

    def test_plan_carries_both_hashes(self, tiny_spec, tmp_path):
        from repro.specs import run_fingerprint, spec_hash

        compiled = load_and_compile(tiny_spec)
        plan = plan_spec(compiled, ResultCache(tmp_path / "cache"))
        assert plan["spec_hash"] == spec_hash(compiled.spec)
        assert plan["run_fingerprint"] == run_fingerprint(compiled.spec)
        assert plan["scale"] == "ci"

    def test_full_compiles_paper_overrides_under_the_spec_own(self,
                                                              tiny_spec):
        """One overrides dict per entry: fig16's paper ``scale`` lies
        under the spec's own ``core_counts``/``schedulers``."""
        compiled = load_and_compile(tiny_spec, full=True)
        fig16 = compiled.entries[1]
        assert dict(fig16.overrides) == {
            "scale": 2, "core_counts": [1], "schedulers": ["fcfs", "fr-fcfs"]}
        assert {p.params["scale"] for p in fig16.points} == {2}
        assert compiled.full
        ci = load_and_compile(tiny_spec)
        assert [dict(e.overrides) for e in ci.entries] == [
            {"accesses": 200, "working_set": 65536},
            {"core_counts": [1], "schedulers": ["fcfs", "fr-fcfs"]}]
