"""Deterministic, seeded fault injection for the sweep's recovery paths.

Long campaigns die from rare events — an OOM-killed worker, a torn
artifact, a hung stage — and recovery code for those events is exactly
the code that never runs in a clean environment.  This module makes the
events reproducible: a :class:`FaultInjector` is threaded through the
sweep (parent process *and* pool workers) and fires configured faults at
named **sites**, deterministically derived from a seed, so every
recovery path in :mod:`repro.flow.scheduler` can be exercised by tests
and CI.

Sites (``site`` → where it fires, and the ``key`` it draws on):

======================  ====================================================
``worker.prepare``      entry of a per-workload pool worker (key: workload)
``worker.batch``        entry of a batched-simulation pool worker (key:
                        workload); also fired in-process by the serial
                        sweep's batch priming
``worker.experiment``   entry of a per-experiment pool worker
                        (key: ``workload/config``)
``artifact.read``       before an artifact JSON is read
                        (key: ``stage/fingerprint``)
``artifact.write``      around an artifact JSON write
                        (key: ``stage/fingerprint``)
``stage.<stage>``       before a stage's compute runs (key: fingerprint)
======================  ====================================================

Fault kinds:

``crash``    ``os._exit`` the current process — from a pool worker this
             surfaces as ``BrokenProcessPool`` in the parent, the same
             signature as an OOM kill.
``hang``     sleep for ``s=<seconds>`` — exercises per-task timeouts.
``io``       raise ``OSError`` (classified *transient* → retried).
``fail``     raise :class:`InjectedFailure` (*permanent* → recorded).
``corrupt``  after a write, replace the artifact file with garbage —
             exercises the corrupt-discard-recompute path.
``skew``     after a write, keep the artifact as valid JSON but flip a
             numeric leaf to a semantically impossible value (a negative
             power) — exercises the :mod:`repro.check` validators, which
             must catch what JSON decoding alone cannot.
``bend``     after a write, keep the artifact valid JSON *and*
             semantically plausible, but scale every ``cycles`` leaf by
             ~10% (re-deriving sibling ``ipc`` values so cross-field
             checks hold) — the model-drift simulacrum that passes
             decoding and validators and can only be caught by the
             accuracy envelopes (:mod:`repro.analysis.accuracy`).
``lock-steal``
             at a ``lease.claim`` site, plant a lease owned by a
             provably dead process before the real claim runs —
             exercises the stale-lease reclamation path in
             :mod:`repro.pipeline.locking`.
``torn-commit``
             at an ``artifact.write`` site, leave exactly the on-disk
             state a ``kill -9`` between rename and journal-commit
             would: a garbage file at the final path, a journaled claim
             with no commit, and a raised transient ``OSError`` —
             exercises both the corrupt-discard retry and the
             ``repro-cli recover`` quarantine pass.

Specs are compact strings so they can ride inside the frozen
:class:`~repro.flow.experiment.FlowSettings` and the ``REPRO_FAULTS``
environment variable::

    worker.experiment:crash:n=1
    artifact.write:corrupt:n=1,artifact.read:io:p=0.5:n=3
    worker.experiment:hang:s=3:n=1

``p=`` is the fire probability (default 1.0), ``n=`` caps the total
number of fires for that spec (default 1; ``n=0`` means unlimited),
``s=`` sets the hang duration, and ``k=<substring>`` restricts the
spec to keys containing the substring (e.g.
``artifact.write:corrupt:k=experiment_result`` corrupts only result
artifacts).  The probability draw is a pure function
of ``(seed, site, kind, key)``, so a given spec fires for the same tasks
in every run regardless of scheduling order; the fire *cap* is claimed
through marker files under ``<state_dir>/fault_state`` so it holds
across retries and across pool-worker processes (falling back to
in-process counting when no state directory is available).
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from repro.errors import ReproError

__all__ = ["FaultSpec", "FaultInjector", "InjectedFailure",
           "parse_fault_spec", "FAULT_KINDS", "FAULTS_ENV", "FAULT_SEED_ENV"]

FAULT_KINDS = ("crash", "hang", "io", "fail", "corrupt", "skew", "bend",
               "lock-steal", "torn-commit")

FAULTS_ENV = "REPRO_FAULTS"
FAULT_SEED_ENV = "REPRO_FAULT_SEED"

STATE_DIR_NAME = "fault_state"


class InjectedFailure(ReproError):
    """Deterministic injected failure (classified *permanent*)."""


@dataclass(frozen=True)
class FaultSpec:
    """One configured fault: where, what, how often."""

    site: str
    kind: str
    probability: float = 1.0
    max_fires: int = 1            # 0 = unlimited
    seconds: float = 5.0          # hang duration
    key_filter: str | None = None  # only fire for keys containing this

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"one of: {', '.join(FAULT_KINDS)}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"fault probability {self.probability!r} "
                             f"not in [0, 1]")

    @property
    def slug(self) -> str:
        """Filesystem-safe identity used for fire-cap marker files."""
        parts = [self.site, self.kind]
        if self.key_filter:
            parts.append(self.key_filter)
        return "__".join("".join(ch if ch.isalnum() else "_" for ch in part)
                         for part in parts)


def parse_fault_spec(text: str) -> tuple[FaultSpec, ...]:
    """Parse a compact spec string into :class:`FaultSpec` entries."""
    specs: list[FaultSpec] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        fields = chunk.split(":")
        if len(fields) < 2:
            raise ValueError(f"fault spec {chunk!r}: want site:kind[:opts]")
        site, kind = fields[0], fields[1]
        options: dict[str, str] = {}
        for option in fields[2:]:
            name, _, value = option.partition("=")
            if name not in ("p", "n", "s", "k"):
                raise ValueError(f"fault spec {chunk!r}: bad option "
                                 f"{option!r} (want p=, n=, s= or k=)")
            if not value:
                raise ValueError(f"fault spec {chunk!r}: option {name}= "
                                 f"has an empty value")
            options[name] = value
        specs.append(FaultSpec(
            site=site, kind=kind,
            probability=float(options.get("p", 1.0)),
            max_fires=int(options.get("n", 1)),
            seconds=float(options.get("s", 5.0)),
            key_filter=options.get("k")))
    return tuple(specs)


class FaultInjector:
    """Fires configured faults at named sites, deterministically."""

    def __init__(self, specs: Iterable[FaultSpec], seed: int = 0,
                 state_dir: Path | str | None = None) -> None:
        self.specs = tuple(specs)
        self.seed = seed
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self._memory_fires: dict[FaultSpec, int] = {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_settings(cls, settings,
                      root: Path | str | None) -> "FaultInjector | None":
        """Build the injector a :class:`FlowSettings` asks for (or None).

        ``root`` is the artifact-cache directory; when present, fire-cap
        state lives under ``<root>/fault_state`` so it is shared by
        every pool worker and every retry attempt.
        """
        spec_text = getattr(settings, "faults", None)
        if not spec_text:
            return None
        state = Path(root) / STATE_DIR_NAME if root is not None else None
        return cls(parse_fault_spec(spec_text),
                   seed=getattr(settings, "fault_seed", 0), state_dir=state)

    @classmethod
    def env_spec(cls, environ: Mapping[str, str] | None = None) \
            -> tuple[str | None, int]:
        """(spec string, seed) from ``REPRO_FAULTS``/``REPRO_FAULT_SEED``."""
        environ = os.environ if environ is None else environ
        spec = environ.get(FAULTS_ENV) or None
        if spec is not None:
            parse_fault_spec(spec)  # fail fast on a malformed env var
        return spec, int(environ.get(FAULT_SEED_ENV, "0"))

    # ------------------------------------------------------------------
    # decision
    # ------------------------------------------------------------------

    def _draw(self, spec: FaultSpec, key: str) -> bool:
        """Deterministic probability draw for (seed, site, kind, key)."""
        if spec.probability >= 1.0:
            return True
        token = f"{self.seed}|{spec.site}|{spec.kind}|{key}"
        digest = hashlib.sha256(token.encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / 2 ** 64
        return unit < spec.probability

    def _claim(self, spec: FaultSpec) -> bool:
        """Claim one fire slot, respecting ``max_fires`` across processes."""
        if spec.max_fires <= 0:
            return True
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
            for slot in range(spec.max_fires):
                marker = self.state_dir / f"{spec.slug}.{slot}"
                try:
                    with open(marker, "x"):
                        return True
                except FileExistsError:
                    continue
            return False
        fired = self._memory_fires.get(spec, 0)
        if fired >= spec.max_fires:
            return False
        self._memory_fires[spec] = fired + 1
        return True

    def decide(self, site: str, key: str,
               kinds: tuple[str, ...] | None = None) -> FaultSpec | None:
        """The spec that fires at ``site`` for ``key``, if any."""
        for spec in self.specs:
            if spec.site != site:
                continue
            if kinds is not None and spec.kind not in kinds:
                continue
            if spec.key_filter is not None and spec.key_filter not in key:
                continue
            if self._draw(spec, key) and self._claim(spec):
                return spec
        return None

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------

    def inject(self, site: str, key: str) -> None:
        """Fire any crash/hang/io/fail fault configured for ``site``.

        ``corrupt`` faults are write-site post-conditions; they are
        applied by :meth:`corrupt_file` instead.
        """
        spec = self.decide(site, key, kinds=("crash", "hang", "io", "fail"))
        if spec is None:
            return
        if spec.kind == "crash":
            # simulate an OOM kill: no cleanup, no exception propagation
            os._exit(23)
        if spec.kind == "hang":
            time.sleep(spec.seconds)
            return
        if spec.kind == "io":
            raise OSError(f"injected transient I/O fault at {site} ({key})")
        raise InjectedFailure(
            f"injected permanent failure at {site} ({key})")

    def plant_stale_lease(self, site: str, key: str, path: Path) -> bool:
        """Forge a dead-owner lease at ``path`` if ``lock-steal`` fires.

        The planted owner carries an impossible boot id, so the
        liveness probe in :mod:`repro.pipeline.locking` classifies it
        dead and the claimant must exercise its reclamation path.
        Returns whether a fault fired.
        """
        spec = self.decide(site, key, kinds=("lock-steal",))
        if spec is None:
            return False
        import json

        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"pid": os.getpid(), "boot_id": "injected-dead-boot",
             "acquired": 0.0}), encoding="utf-8")
        return True

    def tear_commit(self, site: str, key: str, path: Path) -> bool:
        """Leave kill-9-between-rename-and-commit state if the fault fires.

        The caller (the artifact store's write path) has already
        journaled the claim; this writes garbage to the *final* path
        and reports ``True`` so the caller skips the atomic write and
        the commit record, then raises a transient ``OSError``.
        """
        spec = self.decide(site, key, kinds=("torn-commit",))
        if spec is None:
            return False
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"injected": "torn commit', encoding="utf-8")
        return True

    def corrupt_file(self, site: str, key: str, path: Path) -> bool:
        """Damage ``path`` if a ``corrupt``/``skew``/``bend`` fault fires.

        ``corrupt`` leaves undecodable bytes (the JSON layer must catch
        it); ``skew`` leaves *valid* JSON with a semantically impossible
        value, which only the :mod:`repro.check` validators can catch;
        ``bend`` leaves valid *and plausible* JSON with every ``cycles``
        leaf scaled and sibling ``ipc`` values re-derived — the drift
        that only the accuracy envelopes catch.
        Returns whether a fault fired.
        """
        spec = self.decide(site, key, kinds=("corrupt", "skew", "bend"))
        if spec is None:
            return False
        if spec.kind == "corrupt":
            path.write_text('{"injected": "corrupt artifact',
                            encoding="utf-8")
            return True
        import json

        payload = json.loads(path.read_text(encoding="utf-8"))
        if spec.kind == "bend":
            damaged = _bend_payload(payload) > 0
        else:
            damaged = bool(_skew_payload(payload)
                           or _negate_first_positive(payload))
        if not damaged:
            return False
        path.write_text(json.dumps(payload, sort_keys=True),
                        encoding="utf-8")
        return True


def _negate_first_positive(node) -> bool:
    """Flip the first positive numeric leaf negative; returns whether."""
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, value in items:
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)) and value > 0:
            node[key] = -abs(float(value)) - 1.0
            return True
        if isinstance(value, (dict, list)) and _negate_first_positive(value):
            return True
    return False


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _bend_payload(node, factor: float = 1.1) -> int:
    """Scale every ``cycles`` leaf by *factor*; returns leaves touched.

    A bent artifact models a ~10% slower machine *consistently*: where a
    ``cycles`` leaf has ``ipc``/``measured_instructions`` siblings, the
    stored ``ipc`` is re-derived as instructions over the new cycle
    count, so the cross-field checks in :mod:`repro.check.validators`
    (``ipc*cycles == measured_instructions``) still hold.  The result is
    valid, finite, plausible JSON that passes decoding and every
    structural validator — the silent-drift failure mode only the
    accuracy envelopes catch.
    """
    bent = 0
    if isinstance(node, dict):
        cycles = node.get("cycles")
        if _number(cycles) and cycles > 0:
            scaled = cycles * factor
            new_cycles = (int(scaled) or cycles) if isinstance(cycles, int) \
                else scaled
            if new_cycles != cycles:
                node["cycles"] = new_cycles
                bent += 1
                if _number(node.get("ipc")):
                    measured = node.get("measured_instructions")
                    if _number(measured):
                        node["ipc"] = measured / new_cycles
                    else:
                        node["ipc"] = node["ipc"] * cycles / new_cycles
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for _key, value in items:
        if isinstance(value, (dict, list)):
            bent += _bend_payload(value, factor)
    return bent


def _skew_payload(payload) -> bool:
    """Make one value semantically impossible while keeping valid JSON.

    Prefers a power-component entry (a negative component power is the
    canonical "valid JSON, invalid physics" damage) and falls back to
    the first positive numeric leaf anywhere in the document.
    """
    if isinstance(payload, dict):
        for key, value in payload.items():
            if key == "components" and _negate_first_positive(value):
                return True
            if isinstance(value, (dict, list)) and _skew_payload(value):
                return True
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)) and _skew_payload(value):
                return True
    return False
