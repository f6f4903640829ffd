#!/usr/bin/env python3
"""Job-server end-to-end smoke test (CI gate for `repro-cli serve`).

Starts the daemon as a real subprocess, then drives it with the load
generator and asserts the service guarantees:

* concurrent duplicate submissions collapse to exactly one compute
  (one created job, N-1 deduplicated attaches) and every client reads
  a byte-identical result body;
* distinct submissions compute independently and all complete;
* SIGTERM with a backlog queued drains gracefully — the server stops
  accepting, finishes running work, and exits 0.

Usage::

    PYTHONPATH=src python scripts/smoke_serve.py [--clients 8]
        [--scale 0.05]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.serve import ServeClient, run_load

REPO_ROOT = Path(__file__).resolve().parents[1]


def start_server(cache: Path, port_file: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "--cache-dir", str(cache),
         "serve", "--port-file", str(port_file), "--workers", "2",
         "--max-queue", "32"],
        env=env, cwd=REPO_ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    deadline = time.monotonic() + 30.0
    while not port_file.exists():
        assert proc.poll() is None, \
            f"server died at startup:\n{proc.communicate()[0]}"
        assert time.monotonic() < deadline, "server never wrote its port"
        time.sleep(0.05)
    return proc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--scale", type=float, default=0.05)
    args = parser.parse_args(argv)

    request = {"kind": "sweep", "scale": args.scale,
               "workloads": ["sha"], "configs": ["SmallBOOM"]}

    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp) / "cache"
        port_file = Path(tmp) / "port"
        proc = start_server(cache, port_file)
        try:
            port = int(port_file.read_text())
            probe = ServeClient(port=port, client_id="smoke-probe")

            status, health = probe.healthz()
            assert status == 200 and health["status"] == "ok", health

            # --- duplicate wave: the dedup acceptance criterion -------
            dup = run_load(port, request, clients=args.clients,
                           mode="duplicate", timeout=300.0)
            print(f"duplicate wave: {json.dumps(dup.to_dict())}")
            assert dup.failed == 0, dup.errors
            assert dup.completed == args.clients
            assert len(dup.bodies) == 1, "expected one request hash"
            assert dup.byte_identical, \
                "clients saw differing result bytes"
            _, health = probe.healthz()
            table = health["table"]
            assert table["created"] == 1, table
            assert table["deduped"] == args.clients - 1, table
            document = json.loads(
                probe.result_text(next(iter(dup.bodies)))[1])
            assert document["manifest"]["experiments"] == 1, \
                "manifest must show exactly one task set"

            # --- distinct wave: independent computes ------------------
            distinct = run_load(port, request, clients=4,
                                mode="distinct", timeout=300.0)
            print(f"distinct wave: {json.dumps(distinct.to_dict())}")
            assert distinct.failed == 0, distinct.errors
            assert distinct.completed == 4
            assert len(distinct.bodies) == 4, \
                "distinct seeds must not collide"

            # --- graceful SIGTERM drain with work in flight ------------
            backlog = ServeClient(port=port, client_id="smoke-backlog")
            codes = [backlog.submit(dict(request, seed=9000 + i))[0]
                     for i in range(6)]
            assert codes == [202] * 6, codes
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=120.0)
            assert proc.returncode == 0, \
                f"drain exited {proc.returncode}:\n{out}"
            assert "drained" in out, out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10.0)

    print(f"\nsmoke OK: {args.clients} duplicate clients -> 1 compute, "
          f"{dup.sweeps_per_s:.1f} sweeps/s; distinct wave OK; "
          f"SIGTERM drained clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
