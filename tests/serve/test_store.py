"""Unit tests for the service result store (cache interface, SQL
surface, job payloads)."""

from __future__ import annotations

import threading

import pytest

from repro.runner import SweepPoint, run_sweep
from repro.runner.cache import ResultCache, point_key
from repro.serve.store import ResultStore, StoreError


def _point(value=7, artifact="t") -> SweepPoint:
    return SweepPoint(artifact=artifact, point_id=f"p{value}",
                      fn="repro.runner.spec:json_normalize",
                      params={"value": value})


class TestCacheInterface:
    def test_miss_then_hit_round_trip(self, store):
        point = _point()
        assert not store.has(point)
        assert not store.is_hit(store.get(point))
        store.put(point, {"a": [1, 2], "b": None})
        assert store.has(point)
        assert store.get(point) == {"a": [1, 2], "b": None}

    def test_key_scheme_matches_the_json_cache(self, store, tmp_path):
        """Store and on-disk cache share one fingerprint scheme."""
        point = _point()
        assert ResultCache(tmp_path).key(point) == point_key(point)

    def test_put_is_idempotent_replace(self, store):
        point = _point()
        store.put(point, {"v": 1})
        store.put(point, {"v": 2})
        assert store.get(point) == {"v": 2}
        assert store.counts()["points"] == 1

    def test_run_sweep_accepts_the_store_as_cache(self, store,
                                                  tiny_artifact):
        from repro.runner import registry

        spec = registry.get(tiny_artifact)
        cold = run_sweep(spec, cache=store)
        warm = run_sweep(spec, cache=store)
        assert cold.ok and warm.ok
        assert cold.cache_hits == 0
        assert warm.cache_hits == warm.points == 3
        assert warm.result == cold.result

    def test_distinct_code_fingerprints_never_collide(self, tmp_path):
        one = ResultStore(tmp_path / "s.db", code="F1")
        two = ResultStore(tmp_path / "s2.db", code="F2")
        point = _point()
        assert point_key(point, one.code()) != point_key(point, two.code())
        one.close(), two.close()


class TestJobPayloads:
    def test_record_and_fetch(self, store):
        store.record_job("fp1", "artifact", "fig12", {"artifact": "fig12"},
                         {"result": {"rows": 3}})
        assert store.get_job_payload("fp1") == {"result": {"rows": 3}}
        assert store.get_job_payload("fp-missing") is None

    def test_payload_from_other_code_fingerprint_not_served(self, tmp_path):
        old = ResultStore(tmp_path / "s.db", code="F1")
        old.record_job("fp1", "artifact", "a", {}, {"r": 1})
        now = ResultStore(tmp_path / "s.db", code="F2")
        assert old.get_job_payload("fp1") == {"r": 1}
        assert now.get_job_payload("fp1") is None
        old.close(), now.close()


class TestQuerySurface:
    def test_select_over_points(self, store):
        for value in (1, 2, 3):
            store.put(_point(value, artifact="svc-tiny"), {"ok": True})
        table = store.query(
            "SELECT artifact, count(*) FROM points GROUP BY artifact")
        assert table["rows"] == [["svc-tiny", 3]]

    def test_parameterized_query(self, store):
        store.put(_point(1), {"v": 1})
        store.put(_point(2), {"v": 2})
        table = store.query(
            "SELECT point_id FROM points WHERE point_id = ?", ["p1"])
        assert table["rows"] == [["p1"]]

    @pytest.mark.parametrize("sql", [
        "DELETE FROM points",
        "INSERT INTO points VALUES (1,2,3,4,5,6,7,8,9)",
        "UPDATE jobs SET stale = 1",
        "DROP TABLE points",
        "PRAGMA writable_schema = 1",
        "",
    ])
    def test_writes_rejected(self, store, sql):
        with pytest.raises(StoreError, match="read-only"):
            store.query(sql)

    def test_multiple_statements_rejected(self, store):
        with pytest.raises(StoreError, match="single SQL statement"):
            store.query("SELECT 1; DELETE FROM points")

    def test_sql_errors_surface_as_store_errors(self, store):
        with pytest.raises(StoreError, match="query failed"):
            store.query("SELECT nope FROM nothing_here")

    def test_concurrent_readers_and_writers(self, store):
        """The shared connection survives hammering from many threads."""
        errors = []

        def work(index):
            try:
                for value in range(10):
                    store.put(_point(index * 100 + value), {"v": value})
                    store.query("SELECT count(*) FROM points")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.counts()["points"] == 80
