"""Staleness across code-fingerprint bumps: old rows are flagged (never
silently served), re-submission repopulates fresh rows, and historical
rows stay queryable."""

from __future__ import annotations

from repro.runner import SweepPoint
from repro.serve.jobs import JobQueue
from repro.serve.store import ResultStore


def _point(value=1) -> SweepPoint:
    return SweepPoint(artifact="stale-test", point_id=f"p{value}",
                      fn="repro.runner.spec:json_normalize",
                      params={"value": value})


class TestFingerprintBump:
    def test_rows_flagged_not_served_after_bump(self, tmp_path):
        path = tmp_path / "results.db"
        old = ResultStore(path, code="F1")
        old.put(_point(1), {"era": "F1"})
        old.record_job("fp-old", "artifact", "stale-test", {}, {"era": "F1"})
        assert old.get(_point(1)) == {"era": "F1"}
        old.close()

        # The code fingerprint moves: same database, new store handle.
        new = ResultStore(path, code="F2")
        # Not served before flagging (the key embeds the fingerprint)...
        assert not new.has(_point(1))
        assert new.get_job_payload("fp-old") is None
        # ...and explicitly flagged after the staleness sweep.
        report = new.refresh_staleness()
        assert report["code_fingerprint"] == "F2"
        assert report["points_flagged"] == 1
        assert report["jobs_flagged"] == 1
        assert report["points_stale"] == 1
        table = new.query(
            "SELECT point_id, stale, code_fingerprint FROM points")
        assert table["rows"] == [["p1", 1, "F1"]]
        new.close()

    def test_flagging_is_idempotent(self, tmp_path):
        path = tmp_path / "results.db"
        old = ResultStore(path, code="F1")
        old.put(_point(1), {"era": "F1"})
        old.close()
        new = ResultStore(path, code="F2")
        assert new.refresh_staleness()["points_flagged"] == 1
        again = new.refresh_staleness()
        assert again["points_flagged"] == 0   # nothing newly flagged
        assert again["points_stale"] == 1     # still visibly stale
        new.close()

    def test_resubmission_repopulates_fresh_rows(self, tmp_path,
                                                 tiny_artifact):
        path = tmp_path / "results.db"

        # Era F1: the service runs the artifact and stores everything.
        store1 = ResultStore(path, code="F1")
        queue1 = JobQueue(store1, workers=1)
        job1 = queue1.submit({"artifact": "svc-tiny"})
        queue1.wait(job1.job_id, timeout=60)
        assert job1.state == "done" and not job1.cached
        payload1 = queue1.result(job1.job_id)
        queue1.shutdown()
        store1.close()

        # Era F2: the same submission is NOT a cache hit — it re-runs.
        store2 = ResultStore(path, code="F2")
        store2.refresh_staleness()
        queue2 = JobQueue(store2, workers=1)
        job2 = queue2.submit({"artifact": "svc-tiny"})
        queue2.wait(job2.job_id, timeout=60)
        assert job2.state == "done" and not job2.cached
        payload2 = queue2.result(job2.job_id)
        assert payload2 == payload1  # same code result; fresh rows

        # Fresh rows live alongside the flagged historical ones.
        table = store2.query(
            "SELECT code_fingerprint, stale, count(*) FROM points"
            " GROUP BY code_fingerprint, stale"
            " ORDER BY code_fingerprint")
        assert table["rows"] == [["F1", 1, 3], ["F2", 0, 3]]

        # And a repeat in era F2 is a cache hit again.
        job3 = queue2.submit({"artifact": "svc-tiny"})
        queue2.wait(job3.job_id, timeout=60)
        assert job3.cached
        queue2.shutdown()
        store2.close()

    def test_historical_rows_stay_queryable(self, tmp_path):
        path = tmp_path / "results.db"
        for era in ("F1", "F2", "F3"):
            store = ResultStore(path, code=era)
            store.refresh_staleness()
            store.put(_point(1), {"era": era})
            store.close()
        final = ResultStore(path, code="F3")
        table = final.query(
            "SELECT code_fingerprint, stale FROM points"
            " ORDER BY code_fingerprint")
        assert table["rows"] == [["F1", 1], ["F2", 1], ["F3", 0]]
        # Cross-era archaeology is plain SQL.
        eras = final.query(
            "SELECT count(DISTINCT code_fingerprint) FROM points")
        assert eras["rows"] == [[3]]
        final.close()


class TestServerStartupFlagging:
    def test_health_reports_staleness(self, tmp_path, tiny_artifact):
        from repro.serve.client import ServiceClient
        from repro.serve.server import make_server, serve_in_thread

        path = tmp_path / "results.db"
        old = ResultStore(path, code="F1")
        old.put(_point(1), {"era": "F1"})
        old.close()

        store = ResultStore(path, code="F2")
        server = make_server(port=0, store=store)
        serve_in_thread(server)
        try:
            health = ServiceClient(server.url).health()
            assert health["staleness"]["code_fingerprint"] == "F2"
            assert health["staleness"]["points_stale"] == 1
            assert health["rows"]["points_stale"] == 1
        finally:
            server.close()
