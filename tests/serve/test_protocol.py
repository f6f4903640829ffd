"""Request normalization + hash semantics."""

import pytest

from repro.errors import ServeError
from repro.serve.protocol import JobRequest, request_hash


class TestValidation:
    def test_defaults_are_a_valid_sweep(self):
        request = JobRequest()
        assert request.kind == "sweep"
        assert request_hash(request)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServeError, match="unknown job kind"):
            JobRequest(kind="mine-bitcoin")

    @pytest.mark.parametrize("scale", [0.0, -1.0, 5.0])
    def test_scale_bounds(self, scale):
        with pytest.raises(ServeError, match="scale"):
            JobRequest(scale=scale)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ServeError, match="unknown workload"):
            JobRequest(workloads=("sha", "no-such-workload"))

    def test_unknown_config_rejected(self):
        with pytest.raises(ServeError, match="unknown config"):
            JobRequest(configs=("NoSuchBOOM",))

    def test_configs_rejected_for_dse(self):
        with pytest.raises(ServeError, match="sweep field"):
            JobRequest(kind="dse", configs=("MediumBOOM",))

    def test_dse_mode_and_points_validated(self):
        with pytest.raises(ServeError, match="dse mode"):
            JobRequest(kind="dse", mode="exhaustive")
        with pytest.raises(ServeError, match="points"):
            JobRequest(kind="dse", points=0)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ServeError, match="unknown request field"):
            JobRequest.from_dict({"kind": "sweep", "color": "red"})

    def test_batch_field_rejected_as_unknown(self):
        # detailed simulation is always batched; there is no engine to pick
        with pytest.raises(ServeError, match="unknown request field.*batch"):
            JobRequest.from_dict({"kind": "sweep", "batch": True})

    def test_from_dict_rejects_non_string_lists(self):
        with pytest.raises(ServeError, match="list of names"):
            JobRequest.from_dict({"workloads": [1, 2]})

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(ServeError):
            JobRequest.from_dict(["not", "an", "object"])


class TestNormalization:
    def test_workload_order_does_not_matter(self):
        a = JobRequest.from_dict({"workloads": ["sha", "dijkstra"]})
        b = JobRequest.from_dict({"workloads": ["dijkstra", "sha"]})
        assert a == b
        assert request_hash(a) == request_hash(b)

    def test_duplicates_collapse(self):
        a = JobRequest.from_dict({"workloads": ["sha", "sha"]})
        b = JobRequest.from_dict({"workloads": ["sha"]})
        assert request_hash(a) == request_hash(b)

    def test_round_trip(self):
        request = JobRequest.from_dict(
            {"kind": "dse", "points": 4, "workloads": ["sha"],
             "scale": 0.25})
        again = JobRequest.from_dict(request.to_dict())
        assert again == request
        assert request_hash(again) == request_hash(request)


class TestHash:
    def test_execution_strategy_excluded(self):
        base = JobRequest.from_dict({"scale": 0.5})
        fanout = JobRequest.from_dict({"scale": 0.5, "jobs": 8})
        assert request_hash(base) == request_hash(fanout)

    def test_result_relevant_fields_included(self):
        base = JobRequest.from_dict({"scale": 0.5})
        assert request_hash(base) != request_hash(
            JobRequest.from_dict({"scale": 0.25}))
        assert request_hash(base) != request_hash(
            JobRequest.from_dict({"scale": 0.5, "seed": 18}))
        assert request_hash(base) != request_hash(
            JobRequest.from_dict({"scale": 0.5, "workloads": ["sha"]}))

    def test_dse_recipe_participates(self):
        a = JobRequest.from_dict({"kind": "dse", "points": 4})
        b = JobRequest.from_dict({"kind": "dse", "points": 8})
        assert request_hash(a) != request_hash(b)

    def test_kinds_never_collide(self):
        sweep = JobRequest.from_dict({"scale": 0.5})
        dse = JobRequest.from_dict({"kind": "dse", "scale": 0.5})
        assert request_hash(sweep) != request_hash(dse)

    def test_hash_is_artifact_shaped(self):
        digest = request_hash(JobRequest())
        assert len(digest) == 24
        int(digest, 16)  # hex
