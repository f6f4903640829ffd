"""Canonical job requests and their content-addressed hashes.

A job request is the service-level analogue of a stage fingerprint: it
names *what to compute* (kind, scale, seed, workload set, config set —
everything that changes the result) and deliberately excludes *how to
compute it* (``jobs`` worker fan-out — an execution strategy whose
artifacts are byte-identical either way, by the same rule that keeps
it out of :class:`~repro.flow.experiment.FlowSettings` fingerprints).
Two clients disagreeing only on fan-out therefore share one compute
and one result body.

Hashing reuses :func:`repro.pipeline.artifacts.canonical_fingerprint`
— the exact canonical-JSON/sha256 recipe behind every artifact key —
with ``MODEL_VERSION`` folded in so a model bump retires every cached
job result at once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import ServeError
from repro.pipeline.artifacts import MODEL_VERSION, canonical_fingerprint
from repro.uarch.config import ALL_CONFIGS, config_by_name
from repro.workloads.suite import workload_names

__all__ = ["JobRequest", "REQUEST_FORMAT", "request_hash"]

#: bump when the request schema itself changes incompatibly
REQUEST_FORMAT = 1

_KINDS = ("sweep", "dse")
_DSE_MODES = ("neighborhood", "random", "grid")


@dataclass(frozen=True)
class JobRequest:
    """One validated, normalized job submission."""

    kind: str = "sweep"
    scale: float = 1.0
    seed: int = 17
    #: workload subset (sorted; ``None`` = the full suite)
    workloads: tuple[str, ...] | None = None
    #: preset-config subset for sweeps (sorted; ``None`` = all presets)
    configs: tuple[str, ...] | None = None
    #: execution strategy — worker processes inside the job
    #: (hash-excluded; the server clamps it to its own cap)
    jobs: int = 1
    # DSE lattice recipe (kind == "dse" only)
    points: int = 8
    base: str = "LargeBOOM"
    mode: str = "neighborhood"
    radius: int = 2
    max_changed: int = 2
    space_seed: int = 17

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ServeError(f"unknown job kind {self.kind!r}; "
                             f"one of: {', '.join(_KINDS)}")
        if not (0.0 < float(self.scale) <= 4.0):
            raise ServeError(f"scale must be in (0, 4], got {self.scale!r}")
        if self.jobs < 1:
            raise ServeError(f"jobs must be >= 1, got {self.jobs}")
        if self.workloads is not None:
            unknown = sorted(set(self.workloads) - set(workload_names()))
            if unknown:
                raise ServeError(
                    f"unknown workload(s): {', '.join(unknown)}")
        if self.configs is not None:
            if self.kind == "dse":
                raise ServeError("configs is a sweep field; a dse job "
                                 "generates its own lattice")
            for name in self.configs:
                try:
                    config_by_name(name)
                except Exception:
                    raise ServeError(
                        f"unknown config {name!r}; one of: "
                        f"{', '.join(c.name for c in ALL_CONFIGS)}") \
                        from None
        if self.kind == "dse":
            if self.mode not in _DSE_MODES:
                raise ServeError(f"unknown dse mode {self.mode!r}; "
                                 f"one of: {', '.join(_DSE_MODES)}")
            if not (1 <= self.points <= 256):
                raise ServeError(
                    f"dse points must be in [1, 256], got {self.points}")

    # ------------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "JobRequest":
        """Parse an untrusted submission body; normalizes as it goes.

        Workload/config lists are deduplicated and *sorted* — request
        order cannot change what a sweep computes, so it must not
        change the request hash either.
        """
        if not isinstance(data, dict):
            raise ServeError("request body must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ServeError(f"unknown request field(s): "
                             f"{', '.join(unknown)}")
        kwargs = dict(data)
        for key in ("workloads", "configs"):
            value = kwargs.get(key)
            if value is None:
                continue
            if not isinstance(value, (list, tuple)) or \
                    not all(isinstance(item, str) for item in value):
                raise ServeError(f"{key} must be a list of names")
            kwargs[key] = tuple(sorted(set(value)))
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ServeError(f"malformed request: {exc}") from None

    def to_dict(self) -> dict:
        """Canonical JSON form (round-trips through :meth:`from_dict`)."""
        out: dict = {"kind": self.kind, "scale": self.scale,
                     "seed": self.seed, "jobs": self.jobs}
        if self.workloads is not None:
            out["workloads"] = list(self.workloads)
        if self.configs is not None:
            out["configs"] = list(self.configs)
        if self.kind == "dse":
            out.update(points=self.points, base=self.base, mode=self.mode,
                       radius=self.radius, max_changed=self.max_changed,
                       space_seed=self.space_seed)
        return out

    # ------------------------------------------------------------------

    def hash_params(self) -> dict:
        """The result-relevant fields (execution strategy excluded)."""
        params: dict = {
            "format": REQUEST_FORMAT,
            "model": MODEL_VERSION,
            "kind": self.kind,
            "scale": self.scale,
            "seed": self.seed,
            "workloads": sorted(self.workloads)
            if self.workloads is not None else None,
        }
        if self.kind == "sweep":
            params["configs"] = sorted(self.configs) \
                if self.configs is not None else None
        else:
            params.update(points=self.points, base=self.base,
                          mode=self.mode, radius=self.radius,
                          max_changed=self.max_changed,
                          space_seed=self.space_seed)
        return params


def request_hash(request: JobRequest) -> str:
    """Stable content address of what a request computes.

    Same recipe as every artifact fingerprint; ``jobs`` does not
    participate, so requests differing only in worker fan-out
    deduplicate to one job.
    """
    return canonical_fingerprint("serve.request", request.hash_params())
