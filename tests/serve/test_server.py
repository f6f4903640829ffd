"""HTTP endpoint behavior against a live in-process server.

One module-scoped server instance keeps this suite fast; each test
uses its own client id so subscriptions do not interfere.
"""

import pytest

from repro.errors import ServeError
from repro.serve import ServeClient, ServerThread

TINY = {"kind": "sweep", "scale": 0.05, "workloads": ["sha"],
        "configs": ["SmallBOOM"]}


@pytest.fixture(scope="module")
def host(tmp_path_factory):
    cache = tmp_path_factory.mktemp("serve-cache")
    with ServerThread(cache, workers=2, max_queue=4) as server_host:
        yield server_host


def client_for(host, name):
    return ServeClient(port=host.port, client_id=name, timeout=30.0)


class TestEndpoints:
    def test_healthz(self, host):
        status, payload = client_for(host, "hz").healthz()
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["queue_capacity"] == 4
        assert "table" in payload and "quotas" not in payload

    def test_submit_then_result(self, host):
        client = client_for(host, "happy")
        status, payload = client.submit(TINY)
        assert status == 202
        assert payload["created"] or payload["deduped"]
        job_id = payload["job_id"]
        final = client.wait(job_id, timeout=120.0)
        assert final["state"] == "done"
        status, document = client.result(job_id)
        assert status == 200
        assert document["kind"] == "sweep"
        assert "sha/SmallBOOM" in document["results"]
        assert document["ok"] is True

    def test_result_before_done_conflicts(self, host):
        client = client_for(host, "eager")
        slow = dict(TINY, seed=4242)
        status, payload = client.submit(slow)
        assert status == 202
        status, body = client.result(payload["job_id"])
        # 409 while queued/running; 200 if the tiny job already won the
        # race — both are legitimate
        assert status in (200, 409)
        client.wait(payload["job_id"], timeout=120.0)

    def test_unknown_job_is_404(self, host):
        client = client_for(host, "lost")
        assert client.status("0" * 24)[0] == 404
        assert client.result("0" * 24)[0] == 404
        assert client.cancel("0" * 24)[0] == 404

    def test_malformed_submission_is_400(self, host):
        client = client_for(host, "typo")
        status, payload = client.submit({"kind": "nope"})
        assert status == 400
        assert "unknown job kind" in payload["error"]
        status, payload = client.submit({"scale": -1})
        assert status == 400

    def test_unknown_endpoint_is_404(self, host):
        status, payload = client_for(host, "explorer")._call(
            "GET", "/teapot")
        assert status == 404

    def test_jobs_listing(self, host):
        client = client_for(host, "lister")
        client.submit(TINY)
        status, payload = client.jobs()
        assert status == 200
        assert any(job["kind"] == "sweep" for job in payload["jobs"])

    def test_client_rejects_port_zero(self):
        with pytest.raises(ServeError):
            ServeClient(port=0)


class TestCancel:
    def test_cancel_releases_the_slot(self, tmp_path):
        with ServerThread(tmp_path, workers=1, max_queue=8) as host:
            client = client_for(host, "fickle")
            # occupy the single worker with a decoy so ours stays queued
            decoy = client_for(host, "decoy")
            decoy.submit(dict(TINY, seed=1))
            status, payload = client.submit(dict(TINY, seed=2))
            assert status == 202
            status, cancel = client.cancel(payload["job_id"])
            assert status == 200
            assert cancel["state"] == "cancelled"
            _, final = client.status(payload["job_id"])
            assert final["state"] == "cancelled"
            # the withdrawn job never runs; a fresh submission is admitted
            assert client.submit(dict(TINY, seed=3))[0] == 202


class TestBackpressure:
    def test_queue_full_rejects_and_rolls_back(self, tmp_path):
        with ServerThread(tmp_path, workers=1, max_queue=1) as host:
            client = client_for(host, "flood")
            codes = [client.submit(dict(TINY, seed=1000 + i))[0]
                     for i in range(6)]
            assert 429 in codes  # the bounded queue pushed back
            rejected = [code for code in codes if code == 429]
            table = host.server.table.counts()
            # rollback: every 429 left no orphan job behind
            assert table["created"] == len(codes) - len(rejected)
