"""Sweep-as-a-service: a job server over the content-addressed pipeline.

``repro-cli serve`` runs a long-lived asyncio daemon that accepts
sweep/DSE job submissions from many concurrent clients over a local
HTTP/JSON endpoint.  Identical requests collapse to one compute — a
canonical request hash keys the in-process job table, and the
underlying stage artifacts deduplicate further through the
``ArtifactStore`` + ``WorkClaims`` lease arbitration — so N clients
asking for the same study cost one sweep and N byte-identical result
bodies.  See DESIGN.md §14 and docs/serve.md.
"""

from repro.serve.client import ServeClient
from repro.serve.jobs import Job, JobTable
from repro.serve.loadgen import LoadReport, run_load
from repro.serve.protocol import JobRequest, request_hash
from repro.serve.server import JobServer, ServerThread, serve_forever

__all__ = [
    "Job",
    "JobRequest",
    "JobServer",
    "JobTable",
    "LoadReport",
    "ServeClient",
    "ServerThread",
    "request_hash",
    "run_load",
    "serve_forever",
]
