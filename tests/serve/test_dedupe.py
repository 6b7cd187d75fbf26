"""The service's headline guarantee: N concurrent identical
submissions execute the sweep exactly once, and every client reads the
identical, bit-equal payload."""

from __future__ import annotations

import json
import threading
import urllib.request

from repro.serve.jobs import JobQueue, job_fingerprint, normalize_request

CLIENTS = 32


def _post(url: str, body: dict) -> dict:
    data = json.dumps(body).encode()
    request = urllib.request.Request(
        f"{url}/submit", data=data,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


class TestConcurrentDedupe:
    def test_hammering_one_point_executes_once(self, spied_service):
        """~32 threads hit /submit with the same spec point; exactly one
        ``run_sweep`` execution happens underneath."""
        server, url, calls = spied_service
        body = {"artifact": "svc-tiny", "points": ["p2"], "wait": 60}
        responses: list[dict] = []
        errors: list[Exception] = []
        barrier = threading.Barrier(CLIENTS)

        def client():
            try:
                barrier.wait(timeout=30)
                responses.append(_post(url, body))
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [threading.Thread(target=client)
                   for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)

        assert not errors
        assert len(responses) == CLIENTS
        # The spy saw exactly one underlying execution.
        assert calls == ["svc-tiny"]
        # Every client got the same finished job's identical payload.
        assert all(r["state"] == "done" for r in responses)
        results = [json.dumps(r["result"], sort_keys=True)
                   for r in responses]
        assert len(set(results)) == 1
        assert responses[0]["result"]["values"]["p2"] \
            == {"value": 2, "squared": 4}
        # Accounting: one miss executed; everyone else coalesced onto
        # the in-flight job or read the store.
        stats = server.queue.stats
        assert stats["executed"] == 1
        assert stats["submitted"] == CLIENTS
        assert stats["coalesced"] + stats["cached"] == CLIENTS - 1

    def test_whole_artifact_submissions_also_coalesce(self, spied_service):
        server, url, calls = spied_service
        body = {"artifact": "svc-tiny", "wait": 60}
        responses = []
        threads = [threading.Thread(
            target=lambda: responses.append(_post(url, body)))
            for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert calls == ["svc-tiny"]
        assert len({json.dumps(r["result"], sort_keys=True)
                    for r in responses} ) == 1
        assert responses[0]["result"]["result"]["total"] == 6

    def test_resubmission_after_completion_is_a_store_read(
            self, spied_service):
        server, url, calls = spied_service
        first = _post(url, {"artifact": "svc-tiny", "wait": 60})
        assert first["state"] == "done" and not first["cached"]
        second = _post(url, {"artifact": "svc-tiny", "wait": 60})
        assert second["state"] == "done" and second["cached"]
        assert calls == ["svc-tiny"]
        assert second["result"] == first["result"]


class TestFingerprints:
    def test_fingerprint_ignores_transport_fields(self):
        a = normalize_request({"artifact": "fig12"})
        b = normalize_request({"artifact": "fig12", "overrides": {}})
        assert job_fingerprint(a, "C") == job_fingerprint(b, "C")

    def test_fingerprint_tracks_semantics(self):
        base = normalize_request({"artifact": "fig12"})
        assert job_fingerprint(base, "C1") != job_fingerprint(base, "C2")
        overridden = normalize_request(
            {"artifact": "fig12", "overrides": {"banks": 1}})
        assert job_fingerprint(base, "C1") \
            != job_fingerprint(overridden, "C1")
        pointed = normalize_request(
            {"artifact": "fig12", "points": ["p1"]})
        assert job_fingerprint(base, "C1") != job_fingerprint(pointed, "C1")

    def test_point_order_is_canonical(self):
        a = normalize_request({"artifact": "x", "points": ["b", "a"]})
        b = normalize_request({"artifact": "x", "points": ["a", "b"]})
        assert job_fingerprint(a, "C") == job_fingerprint(b, "C")


class TestRequestValidation:
    def test_needs_artifact_or_spec(self):
        import pytest

        with pytest.raises(ValueError, match="exactly one"):
            normalize_request({})
        with pytest.raises(ValueError, match="exactly one"):
            normalize_request({"artifact": "a", "spec": "name: x"})

    def test_bad_shapes_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="overrides"):
            normalize_request({"artifact": "a", "overrides": [1]})
        with pytest.raises(ValueError, match="point ids"):
            normalize_request({"artifact": "a", "points": [1, 2]})


class TestQueueDirect:
    def test_failed_execution_reports_not_raises(self, store,
                                                 tiny_artifact):
        queue = JobQueue(store, workers=1)
        job = queue.submit({"artifact": "svc-tiny",
                            "points": ["no-such-point"]})
        queue.wait(job.job_id, timeout=60)
        assert job.state == "failed"
        assert "no-such-point" in job.error
        assert queue.result(job.job_id) is None
        queue.shutdown()

    def test_unknown_artifact_rejected_at_submit(self, store):
        import pytest

        queue = JobQueue(store, workers=1)
        with pytest.raises(KeyError, match="fig99"):
            queue.submit({"artifact": "fig99"})
        assert queue.stats["failed"] == 0  # rejected, not a failed job
        queue.shutdown()

    def test_finished_jobs_bounded_in_flight_kept(self, store, tiny_artifact,
                                                  monkeypatch):
        """Store-answered submits beyond the cap forget the oldest
        finished jobs; a job still running is never forgotten."""
        import pytest

        from repro.serve import jobs as jobs_module
        from repro.serve.jobs import execute_request

        monkeypatch.setattr(jobs_module, "FINISHED_JOBS_KEPT", 4)
        release = threading.Event()

        def runner(request, store, jobs=1):
            if request["points"] == ["p1"]:
                release.wait(60)
            return execute_request(request, store, jobs=jobs)

        queue = JobQueue(store, workers=2, runner=runner)
        running = queue.submit({"artifact": "svc-tiny", "points": ["p1"]})
        try:
            first = queue.submit({"artifact": "svc-tiny", "points": ["p2"]})
            queue.wait(first.job_id, timeout=60)
            answered = [queue.submit({"artifact": "svc-tiny",
                                      "points": ["p2"]})
                        for _ in range(10)]
            assert all(job.cached for job in answered)
            listed = {job.job_id for job in queue.jobs()}
            assert listed == {running.job_id} | {
                job.job_id for job in answered[-4:]}
            assert queue.get(running.job_id).state == "running"
            with pytest.raises(KeyError, match="unknown job id"):
                queue.get(first.job_id)
            assert queue.payload(first) == queue.result(answered[-1].job_id)
        finally:
            release.set()
            queue.wait(running.job_id, timeout=60)
            queue.shutdown()
        assert running.state == "done"
        assert len(queue.jobs()) == 4
