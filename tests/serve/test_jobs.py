"""JobTable lifecycle: attach, finish, cancel, rollback."""

from repro.serve.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobTable,
)
from repro.serve.protocol import JobRequest, request_hash

REQUEST = JobRequest.from_dict({"scale": 0.5, "workloads": ["sha"]})
OTHER = JobRequest.from_dict({"scale": 0.25, "workloads": ["sha"]})


class TestSubmit:
    def test_first_submission_creates(self):
        table = JobTable()
        job, created = table.submit(REQUEST, "a")
        assert created
        assert job.id == request_hash(REQUEST)
        assert job.state == QUEUED
        assert table.counts()["created"] == 1

    def test_identical_submission_attaches(self):
        table = JobTable()
        first, _ = table.submit(REQUEST, "a")
        second, created = table.submit(REQUEST, "b")
        assert second is first and not created
        assert first.clients == ["a", "b"]
        counts = table.counts()
        assert counts["jobs"] == 1
        assert counts["created"] == 1
        assert counts["deduped"] == 1

    def test_distinct_requests_do_not_collide(self):
        table = JobTable()
        a, _ = table.submit(REQUEST, "a")
        b, _ = table.submit(OTHER, "a")
        assert a is not b
        assert table.counts()["created"] == 2

    def test_attach_to_done_job_reports_settled(self):
        table = JobTable()
        job, _ = table.submit(REQUEST, "a")
        table.mark_running(job)
        table.mark_done(job, "{}")
        same, created = table.submit(REQUEST, "b")
        assert same is job and not created
        assert same.state == DONE and same.clients == ["a", "b"]

    def test_failed_job_is_replaced(self):
        table = JobTable()
        job, _ = table.submit(REQUEST, "a")
        table.mark_running(job)
        table.mark_failed(job, "boom", "permanent")
        fresh, created = table.submit(REQUEST, "b")
        assert created
        assert fresh is not job
        assert fresh.state == QUEUED


class TestLifecycle:
    def test_mark_running_flips_queued_only(self):
        table = JobTable()
        job, _ = table.submit(REQUEST, "a")
        assert table.mark_running(job)
        assert job.state == RUNNING
        assert not table.mark_running(job)

    def test_mark_done_publishes_result(self):
        table = JobTable()
        job, _ = table.submit(REQUEST, "a")
        table.submit(REQUEST, "b")
        table.mark_running(job)
        assert table.mark_done(job, '{"ok": true}') is None
        assert job.clients == ["a", "b"]
        assert job.state == DONE
        assert job.done_event.is_set()
        assert job.result_text == '{"ok": true}'

    def test_mark_failed_carries_taxonomy(self):
        table = JobTable()
        job, _ = table.submit(REQUEST, "a")
        table.mark_running(job)
        table.mark_failed(job, "ValueError: nope", "permanent")
        assert job.state == FAILED
        status = job.status_dict()
        assert status["error_kind"] == "permanent"


class TestCancel:
    def test_unknown_job(self):
        table = JobTable()
        assert table.cancel("deadbeef", "a") is None

    def test_last_subscriber_cancels_queued_job(self):
        table = JobTable()
        job, _ = table.submit(REQUEST, "a")
        assert table.cancel(job.id, "a") is job
        assert job.clients == []
        assert job.state == CANCELLED
        assert job.done_event.is_set()

    def test_remaining_subscribers_keep_job_alive(self):
        table = JobTable()
        job, _ = table.submit(REQUEST, "a")
        table.submit(REQUEST, "b")
        table.cancel(job.id, "a")
        assert job.state == QUEUED
        assert job.clients == ["b"]

    def test_running_job_gets_flag_not_cancel(self):
        table = JobTable()
        job, _ = table.submit(REQUEST, "a")
        table.mark_running(job)
        table.cancel(job.id, "a")
        assert job.clients == []
        assert job.state == RUNNING
        assert job.cancel_requested

    def test_non_subscriber_cancel_is_noop(self):
        table = JobTable()
        job, _ = table.submit(REQUEST, "a")
        table.cancel(job.id, "stranger")
        assert job.clients == ["a"]
        assert job.state == QUEUED

    def test_cancel_after_done_releases_nothing(self):
        table = JobTable()
        job, _ = table.submit(REQUEST, "a")
        table.mark_running(job)
        table.mark_done(job, "{}")
        table.cancel(job.id, "a")
        assert job.clients == ["a"]  # a finished subscription stays
        assert job.state == DONE


class TestDrainHelpers:
    def test_cancel_queued_settles_subscribers(self):
        table = JobTable()
        job, _ = table.submit(REQUEST, "a")
        table.submit(REQUEST, "b")
        table.cancel_queued(job)
        assert job.state == CANCELLED
        assert job.done_event.is_set()

    def test_cancel_queued_ignores_running(self):
        table = JobTable()
        job, _ = table.submit(REQUEST, "a")
        table.mark_running(job)
        table.cancel_queued(job)
        assert job.state == RUNNING

    def test_discard_rolls_back_created_accounting(self):
        table = JobTable()
        job, _ = table.submit(REQUEST, "a")
        table.discard(job)
        assert job.state == CANCELLED
        assert table.counts()["created"] == 0
        assert table.get(job.id) is None
        # a later identical submission starts clean
        again, created = table.submit(REQUEST, "a")
        assert created and again is not job
