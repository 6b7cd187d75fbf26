"""Tests for the parallel sweep runner (specs, scheduler, cache)."""

from __future__ import annotations

import json

import pytest

from repro.runner import (
    ARTIFACT_ORDER,
    NullCache,
    ResultCache,
    SweepPoint,
    SweepSpec,
    all_specs,
    evaluate_point,
    run_sweep,
)
from repro.runner.cache import code_fingerprint


class TestRegistry:
    def test_every_artifact_exposes_a_sweep_spec(self):
        specs = all_specs()
        assert set(specs) == set(ARTIFACT_ORDER)
        for spec in specs.values():
            assert isinstance(spec, SweepSpec)
            assert spec.artifact and spec.title and spec.module

    def test_canonical_order_matches_run_all(self):
        assert list(all_specs()) == list(ARTIFACT_ORDER)

    def test_every_spec_builds_resolvable_picklable_points(self):
        for name, spec in all_specs().items():
            points = spec.build_points()
            assert points, name
            ids = [p.point_id for p in points]
            assert len(ids) == len(set(ids)), f"{name}: duplicate point ids"
            for point in points:
                assert point.artifact == name
                assert callable(point.resolve())
                json.dumps(dict(point.params))  # cache/pickle-safe params

    def test_unknown_artifact_raises_with_known_ids(self):
        from repro.runner import registry
        with pytest.raises(KeyError, match="fig10"):
            registry.get("fig99")


class TestScheduler:
    def test_parallel_and_serial_runs_identical_fig08(self):
        spec = all_specs()["fig08"]
        overrides = {"sizes_kib": (16, 64), "max_accesses": 1000}
        serial = run_sweep(spec, jobs=1, overrides=overrides)
        parallel = run_sweep(spec, jobs=2, overrides=overrides)
        assert serial.ok and parallel.ok
        assert serial.result == parallel.result
        assert serial.points == parallel.points == 6

    def test_parallel_and_serial_runs_identical_fig10(self):
        spec = all_specs()["fig10"]
        serial = run_sweep(spec, jobs=1, overrides={"sizes": (8 * 1024,)})
        parallel = run_sweep(spec, jobs=2, overrides={"sizes": (8 * 1024,)})
        assert serial.ok and parallel.ok
        assert serial.result == parallel.result

    def test_runner_matches_module_run(self):
        from repro.experiments import fig10_rowclone_noflush as fig10
        outcome = run_sweep(all_specs()["fig10"], jobs=2,
                            overrides={"sizes": (8 * 1024,)})
        from repro.runner.spec import json_normalize
        assert outcome.result == json_normalize(fig10.run(sizes=(8 * 1024,)))

    def test_failing_sweep_is_captured_not_raised(self):
        spec = SweepSpec(
            artifact="boom", title="Boom", module="repro.experiments",
            build_points=lambda: (SweepPoint(
                artifact="boom", point_id="p",
                fn="repro.runner.spec:does_not_exist"),),
            combine=dict)
        outcome = run_sweep(spec, jobs=1)
        assert not outcome.ok
        assert "does_not_exist" in outcome.error
        assert outcome.result is None

    def test_duplicate_point_ids_rejected(self):
        point = SweepPoint(artifact="dup", point_id="p",
                           fn="repro.runner.spec:json_normalize",
                           params={"value": 1})
        spec = SweepSpec(artifact="dup", title="Dup", module="repro",
                         build_points=lambda: (point, point), combine=dict)
        outcome = run_sweep(spec, jobs=1)
        assert not outcome.ok and "duplicate point" in outcome.error


class TestParallelSafety:
    @staticmethod
    def _pid_spec(parallel_safe: bool, n: int = 3) -> SweepSpec:
        return SweepSpec(
            artifact="pids", title="Pids", module="repro",
            build_points=lambda: tuple(
                SweepPoint(artifact="pids", point_id=f"p{i}", fn="os:getpid")
                for i in range(n)),
            combine=lambda r: {"pids": list(r.values())},
            parallel_safe=parallel_safe)

    def test_parallel_unsafe_sweep_stays_in_process(self):
        import os
        outcome = run_sweep(self._pid_spec(parallel_safe=False), jobs=4)
        assert outcome.ok
        assert set(outcome.result["pids"]) == {os.getpid()}

    def test_parallel_safe_sweep_uses_workers(self):
        import os
        outcome = run_sweep(self._pid_spec(parallel_safe=True), jobs=4)
        assert outcome.ok
        assert os.getpid() not in outcome.result["pids"]

    def test_failed_point_still_caches_completed_siblings(self, tmp_path):
        cache = ResultCache(tmp_path)
        good = tuple(
            SweepPoint(artifact="mix", point_id=f"g{i}", fn="os:getpid")
            for i in range(3))
        bad = SweepPoint(artifact="mix", point_id="bad",
                         fn="repro.runner.spec:does_not_exist")
        failing = SweepSpec(
            artifact="mix", title="Mix", module="repro",
            build_points=lambda: good + (bad,), combine=dict)
        outcome = run_sweep(failing, jobs=2, cache=cache)
        assert not outcome.ok and "does_not_exist" in outcome.error
        retry = SweepSpec(
            artifact="mix", title="Mix", module="repro",
            build_points=lambda: good, combine=dict)
        retried = run_sweep(retry, jobs=2, cache=cache)
        assert retried.ok
        # Points that finished before the failure were not thrown away.
        assert retried.cache_hits >= 1


class TestCache:
    def _spec(self):
        return all_specs()["fig02"]

    def test_second_run_hits_cache_with_identical_result(self, tmp_path):
        cache = ResultCache(tmp_path)
        overrides = {"accesses": 400}
        first = run_sweep(self._spec(), jobs=2, cache=cache,
                          overrides=overrides)
        second = run_sweep(self._spec(), jobs=2, cache=cache,
                           overrides=overrides)
        assert first.ok and second.ok
        assert first.cache_hits == 0
        assert second.cache_hits == second.points == first.points
        assert first.result == second.result

    def test_key_depends_on_params_and_code_version(self, tmp_path):
        cache = ResultCache(tmp_path)
        a = SweepPoint(artifact="x", point_id="p", fn="m:f",
                       params={"n": 1})
        b = SweepPoint(artifact="x", point_id="p", fn="m:f",
                       params={"n": 2})
        assert cache.key(a) != cache.key(b)
        assert cache.key(a) == cache.key(a)
        assert len(code_fingerprint()) == 16

    def test_fingerprint_sees_kernel_c_source(self, tmp_path):
        """Editing the serve kernel's C moves the fingerprint (and with it
        every cache key and serve-store row); build caches do not."""
        import shutil
        from pathlib import Path

        import repro
        from repro.runner.cache import tree_fingerprint

        tree = tmp_path / "repro"
        shutil.copytree(Path(repro.__file__).resolve().parent, tree,
                        ignore=shutil.ignore_patterns("__pycache__",
                                                      "_cache"))
        before = tree_fingerprint(tree)
        build = tree / "dram" / "kernel" / "_cache"
        build.mkdir()
        (build / "kernel-0123.c").write_text("/* rendered build copy */\n")
        assert tree_fingerprint(tree) == before
        source = tree / "dram" / "kernel" / "kernel.c"
        source.write_text(source.read_text() + "/* edited */\n")
        assert tree_fingerprint(tree) != before

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        point = SweepPoint(artifact="x", point_id="p", fn="m:f")
        cache.put(point, {"v": 1})
        assert cache.get(point) == {"v": 1}
        path = cache._path(point)
        path.write_text("{not json")
        assert not cache.is_hit(cache.get(point))

    def test_null_cache_never_stores(self, tmp_path):
        cache = NullCache()
        point = SweepPoint(artifact="x", point_id="p", fn="m:f")
        cache.put(point, {"v": 1})
        assert not cache.is_hit(cache.get(point))
        assert list(tmp_path.iterdir()) == []


class TestEvaluatePoint:
    def test_results_are_json_normalized(self):
        point = SweepPoint(
            artifact="x", point_id="p",
            fn="repro.runner.spec:json_normalize",
            params={"value": {"t": (1, 2), "f": 1.5}})
        value = evaluate_point(point)
        assert value == {"t": [1, 2], "f": 1.5}
