"""HTTP endpoint tests plus the service's bit-identity acceptance
contract: a payload served from the store compares bit-equal (per
``tools/compare_results.py``) to a fresh run with the store disabled."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

from repro.runner import NullCache, run_sweep
from repro.runner.registry import get as get_spec
from repro.serve.client import ServiceClient, ServiceError

_REPO = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))

#: Small enough for a test, real enough to mean something: a genuine
#: paper artifact with shrunk parameters (~0.2 s).
REAL_ARTIFACT = "fig12"
REAL_OVERRIDES = {"banks": 1, "rows": 128, "emulated_sample_rows": 2}

SPEC_TEXT = """\
version: 1
name: serve-test
description: Tiny spec submitted over HTTP.
artifacts:
  - artifact: fig02
    overrides:
      accesses: 200
      working_set: 65536
"""


def _payloads_equal():
    spec = importlib.util.spec_from_file_location(
        "compare_results_for_server",
        os.path.join(_REPO, "tools", "compare_results.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.payloads_equal


payloads_equal = _payloads_equal()


class TestEndpoints:
    def test_health(self, service):
        _, url = service
        health = ServiceClient(url).health()
        assert health["ok"] is True
        assert health["backend"] == "sqlite"
        assert set(health["queue"]) == {"submitted", "coalesced",
                                        "cached", "executed", "failed"}

    def test_submit_status_result_lifecycle(self, service):
        _, url = service
        client = ServiceClient(url)
        response = client.submit(artifact="svc-tiny")
        job_id = response["job_id"]
        assert response["state"] in ("queued", "running", "done")
        result = client.result(job_id, wait=60)
        assert result["state"] == "done"
        assert result["result"]["result"]["total"] == 6
        status = client.status(job_id)
        assert status["state"] == "done"
        assert "result" not in status  # status is metadata-only

    def test_submit_wait_inlines_result(self, service):
        _, url = service
        response = ServiceClient(url).submit(artifact="svc-tiny", wait=60)
        assert response["state"] == "done"
        assert response["result"]["result"]["per_point"]["p1"]["value"] == 1

    def test_unknown_job_is_404(self, service):
        _, url = service
        client = ServiceClient(url)
        for call in (lambda: client.status("job-999"),
                     lambda: client.result("job-999")):
            with pytest.raises(ServiceError) as err:
                call()
            assert err.value.status == 404

    def test_unknown_endpoint_is_404(self, service):
        _, url = service
        with pytest.raises(ServiceError) as err:
            ServiceClient(url)._request("/nope")
        assert err.value.status == 404

    def test_bad_submission_is_400(self, service):
        _, url = service
        client = ServiceClient(url)
        with pytest.raises(ServiceError) as err:
            client._request("/submit", {})
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client._request("/submit", {"artifact": "fig99"})
        assert err.value.status == 400
        assert "fig99" in str(err.value)

    def test_query_endpoint(self, service):
        _, url = service
        client = ServiceClient(url)
        client.submit(artifact="svc-tiny", wait=60)
        table = client.query(
            "SELECT artifact, count(*) AS points FROM points"
            " GROUP BY artifact")
        assert table["columns"] == ["artifact", "points"]
        assert table["rows"] == [["svc-tiny", 3]]

    def test_query_rejects_writes_with_400(self, service):
        _, url = service
        client = ServiceClient(url)
        client.submit(artifact="svc-tiny", wait=60)
        count = "SELECT count(*) FROM points"
        assert client.query(count)["rows"] == [[3]]
        with pytest.raises(ServiceError) as err:
            client.query("DELETE FROM points")
        assert err.value.status == 400
        assert "read-only" in str(err.value)
        # A CTE passes the first-keyword check; SQLite still refuses
        # the write it fronts.
        for sql in ("WITH x AS (SELECT 1) DELETE FROM points",
                    "WITH x AS (SELECT 1) INSERT INTO points"
                    " SELECT * FROM points"):
            with pytest.raises(ServiceError) as err:
                client.query(sql)
            assert err.value.status == 400
        # Nothing was deleted, and the next write commits no hidden
        # delete either.
        assert client.query(count)["rows"] == [[3]]
        client.submit(artifact="svc-tiny", points=["p1"], wait=60)
        assert client.query(count)["rows"] == [[3]]

    def test_failed_job_reports_500_with_error(self, service):
        _, url = service
        client = ServiceClient(url)
        # A waited-on submission that fails surfaces as the 500 itself.
        with pytest.raises(ServiceError) as err:
            client._request("/submit", {"artifact": "svc-tiny",
                                        "points": ["missing"], "wait": 60})
        assert err.value.status == 500
        assert "missing" in str(err.value)
        # The failed job stays inspectable: status shows the error text,
        # and /result for it is a 500 as well.
        failed = [j for j in client.jobs() if j["state"] == "failed"]
        assert failed and "missing" in failed[0]["error"]
        with pytest.raises(ServiceError) as err:
            client.result(failed[0]["job_id"], wait=60)
        assert err.value.status == 500


class TestSpecSubmission:
    def test_spec_document_runs_and_lands_in_store(self, service):
        _, url = service
        client = ServiceClient(url)
        response = client.submit(spec_text=SPEC_TEXT, wait=120)
        assert response["state"] == "done"
        payload = response["result"]
        assert payload["spec"] == "serve-test"
        assert "fig02" in payload["artifacts"]
        # The run fingerprint deduped: a resubmission is a cache hit.
        again = client.submit(spec_text=SPEC_TEXT, wait=120)
        assert again["cached"] is True
        assert payloads_equal(again["result"], payload)
        # spec_hash landed as a store key.
        table = client.query(
            "SELECT spec_hash FROM jobs WHERE spec_hash IS NOT NULL")
        assert len(table["rows"]) == 1

    def test_invalid_spec_text_fails_the_job(self, service):
        _, url = service
        client = ServiceClient(url)
        with pytest.raises(ServiceError) as err:
            client._request(
                "/submit", {"spec": "version: 99\nname: bad\n", "wait": 60})
        assert err.value.status == 500
        assert "version" in str(err.value)


class TestBitIdentityContract:
    def test_stored_result_equals_fresh_uncached_run(self, service):
        """The acceptance criterion, end to end over HTTP: the payload
        the store serves is bit-equal to `repro run` with no store."""
        _, url = service
        client = ServiceClient(url)
        served = client.submit(artifact=REAL_ARTIFACT,
                               overrides=REAL_OVERRIDES, wait=300)
        assert served["state"] == "done"

        fresh = run_sweep(get_spec(REAL_ARTIFACT), cache=NullCache(),
                          overrides=REAL_OVERRIDES)
        assert fresh.ok
        assert payloads_equal(served["result"]["result"], fresh.result)

        # And the cached re-read serves the identical bits again.
        reread = client.submit(artifact=REAL_ARTIFACT,
                               overrides=REAL_OVERRIDES, wait=300)
        assert reread["cached"] is True
        assert payloads_equal(reread["result"]["result"], fresh.result)

    def test_point_values_equal_fresh_point_evaluation(self, service):
        from repro.runner import evaluate_point

        _, url = service
        client = ServiceClient(url)
        spec = get_spec(REAL_ARTIFACT)
        point = spec.build_points(**REAL_OVERRIDES)[0]
        served = client.submit(artifact=REAL_ARTIFACT,
                               overrides=REAL_OVERRIDES,
                               points=[point.point_id], wait=300)
        assert served["state"] == "done"
        assert payloads_equal(
            served["result"]["values"][point.point_id],
            evaluate_point(point))


class TestWireFormat:
    def test_non_finite_floats_survive_http(self, service, store):
        """NaN/Infinity tokens cross the wire bit-identically."""
        from repro.runner import SweepPoint

        point = SweepPoint(artifact="wire", point_id="w",
                           fn="repro.runner.spec:json_normalize",
                           params={"value": 0})
        store.put(point, {"nan": float("nan"), "inf": float("inf")})
        _, url = service
        table = ServiceClient(url).query(
            "SELECT value FROM points WHERE artifact = 'wire'")
        value = json.loads(table["rows"][0][0])
        assert value["inf"] == float("inf")
        assert value["nan"] != value["nan"]  # a true NaN, parsed back
