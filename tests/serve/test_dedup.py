"""Exactly-once dedup under concurrency — the acceptance criterion.

Eight concurrent clients submit the identical sweep request; the server
must run exactly one underlying compute (one created job, one task set
in the manifest) and hand every client a byte-identical result body.
"""

import json

import pytest

from repro.serve import ServeClient, ServerThread, run_load

REQUEST = {"kind": "sweep", "scale": 0.05, "workloads": ["sha"],
           "configs": ["SmallBOOM"]}
CLIENTS = 8


@pytest.fixture(scope="module")
def host(tmp_path_factory):
    cache = tmp_path_factory.mktemp("dedup-cache")
    with ServerThread(cache, workers=2, max_queue=32) as server_host:
        yield server_host


@pytest.fixture(scope="module")
def report(host):
    return run_load(host.port, REQUEST, clients=CLIENTS,
                    mode="duplicate", timeout=120.0)


class TestExactlyOnce:
    def test_every_client_completed(self, report):
        assert report.failed == 0, report.errors
        assert report.completed == CLIENTS

    def test_one_compute_many_attachments(self, host, report):
        counts = host.server.table.counts()
        assert counts["created"] == 1
        assert counts["deduped"] == CLIENTS - 1

    def test_results_are_byte_identical(self, report):
        assert len(report.bodies) == 1  # one request hash
        (texts,) = report.bodies.values()
        assert len(texts) == 1  # every client read the same bytes

    def test_manifest_shows_one_task_set(self, report):
        (texts,) = report.bodies.values()
        document = json.loads(next(iter(texts)))
        manifest = document["manifest"]
        assert manifest["experiments"] == 1  # sha x SmallBOOM, once
        assert document["ok"] is True

    def test_late_subscriber_attaches_to_done_job(self, host, report):
        client = ServeClient(port=host.port, client_id="latecomer")
        status, payload = client.submit(REQUEST)
        assert status == 202
        assert payload["deduped"]
        status, text = client.result_text(payload["job_id"])
        assert status == 200
        (texts,) = report.bodies.values()
        assert text == next(iter(texts))

