"""The sweep-as-a-service daemon: asyncio HTTP front, threaded workers.

``repro-cli serve`` runs one :class:`JobServer` per cache directory.
The front half is a hand-rolled HTTP/1.1 JSON endpoint on
``asyncio.start_server`` (stdlib only — no web framework); the back
half is a bounded queue drained by worker coroutines that push each
job into a thread pool running :func:`repro.flow.jobs.run_job`, so the
blocking pipeline never stalls the accept loop.

Endpoints::

    POST /submit        {"client": str, "request": {...}} -> 202
    GET  /status/<id>   job lifecycle + live progress
    GET  /result/<id>   canonical result body, verbatim
    POST /cancel/<id>   {"client": str} — withdraw a subscription
    GET  /jobs          every job's status
    GET  /healthz       liveness + accounting

Dedup is structural: the job id *is* the request hash, so identical
submissions collapse onto one compute in the :class:`JobTable`; the
artifact store's lease arbitration additionally dedupes against
concurrent sweeps outside the server.  Overload surfaces as 429
``queue-full`` when the bounded job queue pushes back.

Shutdown is a drain, not a kill: SIGTERM/SIGINT stop admissions,
queued jobs are cancelled, running
jobs finish within ``drain_timeout``, and the process exits 0 — the
interrupted-sweep settling of :mod:`repro.flow.sweep` is the fallback
for harder deaths, not the normal path.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable

from repro.errors import ServeError, classify_failure
from repro.flow.jobs import JobLimits, run_job
from repro.obs.metrics import get_metrics
from repro.serve.jobs import DONE, RUNNING, Job, JobTable
from repro.serve.protocol import JobRequest

__all__ = ["JobServer", "ServerThread", "serve_forever"]

logger = logging.getLogger(__name__)

#: largest request body the server will read (submissions are tiny)
MAX_BODY_BYTES = 1 << 20
#: per-connection read timeout — clients are local and prompt
READ_TIMEOUT = 10.0


def _json_body(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class JobServer:
    """One daemon instance: HTTP front end + deduplicating worker tier."""

    def __init__(self, cache_dir: Path | str | None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 workers: int = 2,
                 limits: JobLimits | None = None,
                 max_queue: int = 16,
                 trace_jobs: bool = False,
                 drain_timeout: float = 60.0) -> None:
        self.cache_dir = cache_dir
        self.host = host
        self.port = port  # rebound to the real port after start()
        self.workers = max(1, workers)
        self.limits = limits if limits is not None else JobLimits()
        self.max_queue = max(1, max_queue)
        self.trace_jobs = trace_jobs
        self.drain_timeout = drain_timeout

        self.table = JobTable()
        self.started_at = time.time()
        self.draining = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._queue: asyncio.Queue[Job | None] | None = None
        self._workers: list[asyncio.Task] = []
        self._executor: ThreadPoolExecutor | None = None
        self._shutdown = asyncio.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.max_queue)
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="serve-job")
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._workers = [
            asyncio.ensure_future(self._worker())
            for _ in range(self.workers)]
        logger.info("serving on %s:%d (%d workers, queue %d)",
                    self.host, self.port, self.workers, self.max_queue)

    def request_shutdown(self) -> None:
        """Begin the drain; safe to call from signal handlers and other
        threads."""
        loop = self._loop
        if loop is None:
            return
        loop.call_soon_threadsafe(self._shutdown.set)

    async def run_until_shutdown(self) -> None:
        """Block until a shutdown request, then drain and tear down."""
        await self._shutdown.wait()
        await self._drain()

    async def _drain(self) -> None:
        self.draining = True
        assert self._server is not None and self._queue is not None
        self._server.close()
        await self._server.wait_closed()
        # cancel everything still queued; nothing computes after this
        cancelled = 0
        while True:
            try:
                job = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if job is None:
                continue
            self.table.cancel_queued(job)
            cancelled += 1
        for _ in self._workers:
            self._queue.put_nowait(None)  # wake idle workers to exit
        done, pending = await asyncio.wait(
            self._workers, timeout=self.drain_timeout)
        for task in pending:
            task.cancel()
        if self._executor is not None:
            self._executor.shutdown(wait=not pending)
        running = sum(1 for job in self.table.jobs()
                      if job.state == RUNNING)
        logger.info("drained: %d queued cancelled, %d still running "
                    "after %.0fs", cancelled, running, self.drain_timeout)

    # ------------------------------------------------------------------
    # worker tier
    # ------------------------------------------------------------------

    async def _worker(self) -> None:
        assert self._queue is not None and self._loop is not None
        while True:
            job = await self._queue.get()
            if job is None:
                return
            self._set_queue_gauge()
            try:
                await self._loop.run_in_executor(
                    self._executor, self._execute, job)
            except Exception:  # never let one job kill the worker
                logger.exception("job %s: worker crash", job.id)

    def _execute(self, job: Job) -> None:
        """Runs on an executor thread: the blocking pipeline call."""
        if not self.table.mark_running(job):
            return  # cancelled while queued
        metrics = get_metrics()
        metrics.counter("serve.started").inc()

        def attach(runner) -> None:
            job.runner = runner

        try:
            document = run_job(job.request, self.cache_dir,
                               limits=self.limits, trace=self.trace_jobs,
                               runner_hook=attach)
        except Exception as exc:
            kind = classify_failure(exc)
            self.table.mark_failed(
                job, f"{type(exc).__name__}: {exc}", kind)
            metrics.counter("serve.failed").inc()
            logger.warning("job %s failed (%s): %s", job.id, kind, exc)
        else:
            self.table.mark_done(job, _json_body(document))
            metrics.counter("serve.completed").inc()
        finally:
            job.runner = None
            job.tap = None

    # ------------------------------------------------------------------
    # HTTP front end
    # ------------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        status, body = 500, _json_body({"error": "internal"})
        try:
            status, body = await self._serve_one(reader)
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionError):
            status, body = 408, _json_body({"error": "request timeout"})
        except ServeError as exc:
            status, body = exc.status, _json_body({"error": str(exc)})
        except Exception:
            logger.exception("request handler crash")
        try:
            payload = body.encode()
            writer.write(
                f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n".encode() + payload)
            await writer.drain()
        except ConnectionError:
            pass  # client went away; nothing to tell them
        finally:
            writer.close()

    async def _serve_one(self, reader: asyncio.StreamReader) \
            -> tuple[int, str]:
        request_line = await asyncio.wait_for(
            reader.readline(), timeout=READ_TIMEOUT)
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise ServeError("malformed request line", status=400)
        method, target = parts[0].upper(), parts[1]
        length = 0
        while True:
            line = await asyncio.wait_for(
                reader.readline(), timeout=READ_TIMEOUT)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise ServeError("bad content-length", status=400)
        if length > MAX_BODY_BYTES:
            raise ServeError("request body too large", status=413)
        raw = b""
        if length:
            raw = await asyncio.wait_for(
                reader.readexactly(length), timeout=READ_TIMEOUT)
        return self._route(method, target, raw)

    def _route(self, method: str, target: str, raw: bytes) \
            -> tuple[int, str]:
        target = target.split("?", 1)[0]
        if method == "POST" and target == "/submit":
            return self._post_submit(self._parse_json(raw))
        if method == "GET" and target.startswith("/status/"):
            return self._get_status(target[len("/status/"):])
        if method == "GET" and target.startswith("/result/"):
            return self._get_result(target[len("/result/"):])
        if method == "POST" and target.startswith("/cancel/"):
            return self._post_cancel(target[len("/cancel/"):],
                                     self._parse_json(raw))
        if method == "GET" and target == "/jobs":
            return 200, _json_body(
                {"jobs": [job.status_dict() for job in self.table.jobs()]})
        if method == "GET" and target == "/healthz":
            return self._get_healthz()
        raise ServeError(f"no such endpoint: {method} {target}",
                         status=404)

    @staticmethod
    def _parse_json(raw: bytes) -> dict:
        if not raw:
            return {}
        try:
            body = json.loads(raw)
        except ValueError:
            raise ServeError("body is not valid JSON", status=400)
        if not isinstance(body, dict):
            raise ServeError("body must be a JSON object", status=400)
        return body

    # -- endpoints ------------------------------------------------------

    def _post_submit(self, body: dict) -> tuple[int, str]:
        metrics = get_metrics()
        metrics.counter("serve.submitted").inc()
        if self.draining:
            raise ServeError("server is draining", status=503)
        client = str(body.get("client") or "anon")
        request = JobRequest.from_dict(body.get("request") or {})
        job, created = self.table.submit(request, client)
        if created:
            assert self._queue is not None
            try:
                self._queue.put_nowait(job)
            except asyncio.QueueFull:
                self.table.discard(job)
                metrics.counter("serve.rejected").inc()
                return 429, _json_body(
                    {"error": "queue-full", "client": client,
                     "retry_after": 5.0})
            self._set_queue_gauge()
        else:
            metrics.counter("serve.deduped").inc()
        return 202, _json_body(
            {"job_id": job.id, "state": job.state, "created": created,
             "deduped": not created})

    def _get_status(self, job_id: str) -> tuple[int, str]:
        job = self._job_or_404(job_id)
        self._attach_tap(job)
        return 200, _json_body(job.status_dict())

    def _get_result(self, job_id: str) -> tuple[int, str]:
        job = self._job_or_404(job_id)
        if job.state == DONE:
            assert job.result_text is not None
            return 200, job.result_text  # canonical bytes, verbatim
        if job.terminal:
            return 410, _json_body(
                {"error": f"job {job.state}", "id": job.id,
                 "detail": job.error, "error_kind": job.error_kind})
        return 409, _json_body(
            {"error": "not finished", "id": job.id, "state": job.state})

    def _post_cancel(self, job_id: str, body: dict) -> tuple[int, str]:
        client = str(body.get("client") or "anon")
        job = self.table.cancel(job_id, client)
        if job is None:
            raise ServeError(f"unknown job: {job_id}", status=404)
        return 200, _json_body(
            {"job_id": job.id, "state": job.state,
             "cancel_requested": job.cancel_requested})

    def _get_healthz(self) -> tuple[int, str]:
        queue = self._queue
        return 200, _json_body({
            "status": "draining" if self.draining else "ok",
            "uptime_s": round(time.time() - self.started_at, 3),
            "workers": self.workers,
            "queue_depth": queue.qsize() if queue is not None else 0,
            "queue_capacity": self.max_queue,
            "table": self.table.counts(),
        })

    # -- helpers --------------------------------------------------------

    def _job_or_404(self, job_id: str) -> Job:
        job = self.table.get(job_id)
        if job is None:
            raise ServeError(f"unknown job: {job_id}", status=404)
        return job

    def _attach_tap(self, job: Job) -> None:
        """Lazily wire the obs heartbeat tap once the runner is live."""
        if job.state != RUNNING or job.tap is not None:
            return
        run_dir = getattr(job.runner, "obs_run_dir", None)
        if run_dir is None:
            return
        try:
            from repro.obs.progress import HeartbeatTap
            job.tap = HeartbeatTap(run_dir)
        except Exception:  # progress is best-effort, never fatal
            pass

    def _set_queue_gauge(self) -> None:
        if self._queue is not None:
            get_metrics().gauge("serve.queue_depth").set(
                float(self._queue.qsize()))


_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    408: "Request Timeout", 409: "Conflict", 410: "Gone",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class ServerThread:
    """Host a :class:`JobServer` on a background thread (tests, bench).

    Use as a context manager::

        with ServerThread(cache_dir, workers=2) as host:
            client = ServeClient(port=host.port)
            ...
    """

    def __init__(self, cache_dir: Path | str | None, **kwargs) -> None:
        self._kwargs = dict(kwargs, cache_dir=cache_dir)
        self.server: JobServer | None = None
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="serve-host", daemon=True)

    @property
    def port(self) -> int:
        assert self.server is not None
        return self.server.port

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("job server failed to start in time")
        if self._failure is not None:
            raise RuntimeError(
                f"job server failed to start: {self._failure!r}")
        return self

    def __exit__(self, *exc_info) -> None:
        if self.server is not None:
            self.server.request_shutdown()
        self._thread.join(timeout=60.0)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface startup crashes to enter
            self._failure = exc
            self._ready.set()

    async def _main(self) -> None:
        self.server = JobServer(**self._kwargs)
        await self.server.start()
        self._ready.set()
        await self.server.run_until_shutdown()


def serve_forever(cache_dir: Path | str | None, *,
                  host: str = "127.0.0.1", port: int = 0,
                  workers: int = 2,
                  limits: JobLimits | None = None,
                  max_queue: int = 16,
                  trace_jobs: bool = False,
                  drain_timeout: float = 60.0,
                  port_file: Path | str | None = None,
                  announce: Callable[[str], None] | None = None) -> int:
    """Blocking entry point for ``repro-cli serve``.

    Installs SIGINT/SIGTERM handlers that trigger a graceful drain;
    returns 0 after the drain completes.  ``port_file``, when given,
    receives the bound port as text — how scripts discover a server
    started with ``--port 0``.  ``announce`` receives the user-facing
    lifecycle lines (the CLI passes ``print``); by default they go to
    the log only.
    """
    import signal

    def tell(message: str) -> None:
        logger.info("%s", message)
        if announce is not None:
            announce(message)

    async def _main() -> None:
        server = JobServer(
            cache_dir, host=host, port=port, workers=workers,
            limits=limits, max_queue=max_queue,
            trace_jobs=trace_jobs, drain_timeout=drain_timeout)
        await server.start()
        if port_file is not None:
            Path(port_file).write_text(f"{server.port}\n")
        tell(f"repro-serve: listening on http://{server.host}:"
             f"{server.port} (cache: {cache_dir})")
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, server.request_shutdown)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or exotic platform
        await server.run_until_shutdown()
        tell("repro-serve: drained, exiting")

    asyncio.run(_main())
    return 0
