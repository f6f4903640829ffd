"""Blocking stdlib client for the job server.

``http.client`` keeps the dependency budget at zero and matches the
server's connection-per-request model.  Every call returns
``(status, payload)`` where ``payload`` is the decoded JSON body (or
``{"raw": text}`` when the body is not JSON — never raises on an error
status, so callers can assert on 429s as easily as on 202s).
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Any

from repro.errors import ServeError
from repro.pipeline.locking import DecorrelatedJitter

__all__ = ["ServeClient"]


class ServeClient:
    """One logical client (one subscriber identity) talking to one server."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 client_id: str = "anon",
                 timeout: float = 30.0) -> None:
        if port <= 0:
            raise ServeError(f"client needs a real port, got {port}")
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------

    def _call(self, method: str, path: str,
              body: dict | None = None) -> tuple[int, Any]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode()
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            text = response.read().decode()
        finally:
            conn.close()
        try:
            return response.status, json.loads(text)
        except ValueError:
            return response.status, {"raw": text}

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------

    def submit(self, request: dict) -> tuple[int, Any]:
        return self._call("POST", "/submit",
                          {"client": self.client_id, "request": request})

    def status(self, job_id: str) -> tuple[int, Any]:
        return self._call("GET", f"/status/{job_id}")

    def result(self, job_id: str) -> tuple[int, Any]:
        return self._call("GET", f"/result/{job_id}")

    def result_text(self, job_id: str) -> tuple[int, str]:
        """The raw result body — byte-identical across subscribers."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            conn.request("GET", f"/result/{job_id}")
            response = conn.getresponse()
            return response.status, response.read().decode()
        finally:
            conn.close()

    def cancel(self, job_id: str) -> tuple[int, Any]:
        return self._call("POST", f"/cancel/{job_id}",
                          {"client": self.client_id})

    def healthz(self) -> tuple[int, Any]:
        return self._call("GET", "/healthz")

    def jobs(self) -> tuple[int, Any]:
        return self._call("GET", "/jobs")

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------

    def wait(self, job_id: str, *, timeout: float = 300.0,
             poll: float = 0.2,
             rng: random.Random | None = None) -> dict:
        """Poll until the job is terminal; returns its final status.

        Uses the same decorrelated jitter as the lease layer so many
        waiting clients do not stampede the status endpoint in
        lock-step.
        """
        deadline = time.monotonic() + timeout
        jitter = DecorrelatedJitter(poll, rng=rng)
        while True:
            status, payload = self.status(job_id)
            if status != 200:
                raise ServeError(
                    f"status({job_id}) -> {status}: {payload}",
                    status=status)
            if payload.get("state") in ("done", "failed", "cancelled"):
                return payload
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                raise ServeError(
                    f"job {job_id} not finished after {timeout:g}s",
                    status=408)
            time.sleep(min(jitter.next_delay(), remaining))

    def run(self, request: dict, *, timeout: float = 300.0) -> dict:
        """Submit, wait, fetch: the whole client lifecycle in one call.

        Returns the decoded result document; raises :class:`ServeError`
        on rejection or failure.
        """
        status, payload = self.submit(request)
        if status != 202:
            raise ServeError(f"submit -> {status}: {payload}",
                             status=status)
        job_id = payload["job_id"]
        final = self.wait(job_id, timeout=timeout)
        if final.get("state") != "done":
            raise ServeError(
                f"job {job_id} ended {final.get('state')}: "
                f"{final.get('error')}")
        status, document = self.result(job_id)
        if status != 200:
            raise ServeError(f"result -> {status}: {document}",
                             status=status)
        return document
