"""PipelineSpec: eager validation, serialization round trip, hashing."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import (
    BackendSpec,
    ComponentSpec,
    DataSpec,
    MatchingSpec,
    PipelineSpec,
    SpecError,
)


def full_spec() -> PipelineSpec:
    """A spec exercising every node with non-default values."""
    return PipelineSpec.from_dict(
        {
            "blocking": {
                "blocker": {"name": "qgrams", "params": {"q": 2}},
                "purging": {"name": "purging", "params": {"smoothing": 1.2}},
                "filtering": {"name": "filtering", "params": {"ratio": 0.7}},
            },
            "weighting": "ECBS",
            "pruning": {"name": "ReciprocalWNP"},
            "matching": {
                "matcher": {"name": "threshold", "params": {"threshold": 0.35}},
                "budget": 400,
                "benefit": "entity-coverage",
                "update_phase": False,
            },
            "evaluation": {"blocks": False},
            "backend": {
                "kind": "stream",
                "scenario": {"name": "bursty", "params": {"burst_size": 10}},
                "processed_view": True,
                "reconcile_every": 8,
                "seed": 3,
            },
            "data": {"sample": "movies"},
        }
    )


class TestRoundTrip:
    def test_dict_round_trip_exact(self):
        spec = full_spec()
        assert PipelineSpec.from_dict(spec.to_dict()) == spec
        assert PipelineSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_json_round_trip_same_hash(self):
        spec = full_spec()
        rebuilt = PipelineSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.cache_key() == spec.cache_key()

    def test_default_spec_round_trips(self):
        spec = PipelineSpec()
        assert PipelineSpec.from_json(spec.to_json()) == spec

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "spec.json")
        spec = full_spec()
        spec.save(path)
        assert PipelineSpec.load(path) == spec
        # The file is plain JSON, editable by hand.
        with open(path) as handle:
            assert json.load(handle)["weighting"] == {"name": "ECBS"}

    def test_case_normalization_gives_same_hash(self):
        lower = PipelineSpec.from_dict({"weighting": "arcs", "pruning": "cnp"})
        upper = PipelineSpec.from_dict({"weighting": "ARCS", "pruning": "CNP"})
        assert lower == upper
        assert lower.cache_key() == upper.cache_key()

    def test_hash_sensitive_to_params(self):
        base = PipelineSpec()
        changed = base.with_matching(budget=10)
        assert base.cache_key() != changed.cache_key()

    def test_shorthand_strings_accepted(self):
        spec = PipelineSpec.from_dict(
            {"weighting": "JS", "backend": "mapreduce", "data": "movies"}
        )
        assert spec.weighting == ComponentSpec("JS")
        assert spec.backend.kind == "mapreduce"
        assert spec.data == DataSpec(sample="movies")


class TestValidation:
    def test_unknown_weighting_listed(self):
        with pytest.raises(SpecError) as err:
            PipelineSpec.from_dict({"weighting": "SUPERSCHEME"})
        assert "ARCS" in str(err.value)

    def test_unknown_pruner(self):
        with pytest.raises(SpecError):
            PipelineSpec.from_dict({"pruning": "YOLO"})

    def test_unknown_blocker(self):
        with pytest.raises(SpecError):
            PipelineSpec.from_dict({"blocking": {"blocker": "hashing"}})

    def test_invalid_component_param(self):
        with pytest.raises(SpecError) as err:
            PipelineSpec.from_dict(
                {"blocking": {"blocker": {"name": "qgrams", "params": {"n": 4}}}}
            )
        assert "'n'" in str(err.value)

    def test_runtime_param_rejected_in_spec(self):
        with pytest.raises(SpecError):
            PipelineSpec.from_dict(
                {
                    "matching": {
                        "matcher": {"name": "threshold", "params": {"index": 1}}
                    }
                }
            )

    def test_unknown_backend_kind(self):
        with pytest.raises(SpecError) as err:
            PipelineSpec.from_dict({"backend": {"kind": "quantum"}})
        assert "sequential" in str(err.value)

    def test_bad_worker_count(self):
        with pytest.raises(SpecError):
            PipelineSpec.from_dict({"backend": {"kind": "mapreduce", "workers": 0}})

    def test_bad_executor(self):
        with pytest.raises(SpecError):
            PipelineSpec.from_dict({"backend": {"executor": "gpu"}})

    def test_legacy_formulation_int_is_dropped(self):
        plain = PipelineSpec.from_dict({"backend": {"kind": "mapreduce"}})
        legacy = PipelineSpec.from_dict(
            {"backend": {"kind": "mapreduce", "formulation": "int"}}
        )
        assert legacy == plain
        assert legacy.cache_key() == plain.cache_key()
        assert "formulation" not in legacy.to_dict()["backend"]
        assert PipelineSpec.from_dict(legacy.to_dict()) == legacy

    @pytest.mark.parametrize("value", ["string", "both", 3, None])
    def test_removed_formulation_values_rejected(self, value):
        with pytest.raises(SpecError, match="removed: the int-ID jobs"):
            PipelineSpec.from_dict(
                {"backend": {"kind": "mapreduce", "formulation": value}}
            )
        assert not hasattr(BackendSpec(), "formulation")

    def test_bad_reconcile_interval(self):
        with pytest.raises(SpecError):
            PipelineSpec.from_dict(
                {"backend": {"kind": "stream", "reconcile_every": 0}}
            )

    def test_snapshot_cadence_needs_a_durability_dir(self):
        with pytest.raises(SpecError, match="durability_dir"):
            PipelineSpec.from_dict(
                {"backend": {"kind": "stream", "snapshot_every": 15}}
            )
        spec = PipelineSpec.from_dict(
            {"backend": {"kind": "stream", "snapshot_every": 15,
                         "durability_dir": "state"}}
        )
        assert spec.backend.snapshot_every == 15

    def test_bad_query_pruner(self):
        with pytest.raises(SpecError):
            PipelineSpec.from_dict(
                {"backend": {"kind": "stream", "query_pruner": "chaotic"}}
            )
        # "none" is a valid query-time pruner.
        spec = PipelineSpec.from_dict(
            {"backend": {"kind": "stream", "query_pruner": "none"}}
        )
        assert spec.backend.query_pruner == "none"

    def test_unknown_scenario(self):
        with pytest.raises(SpecError) as err:
            PipelineSpec.from_dict({"backend": {"scenario": "tsunami"}})
        assert "uniform" in str(err.value)

    def test_unknown_top_level_key(self):
        with pytest.raises(SpecError) as err:
            PipelineSpec.from_dict({"wieghting": "ARCS"})
        assert "wieghting" in str(err.value)

    def test_unknown_node_key(self):
        with pytest.raises(SpecError):
            PipelineSpec.from_dict({"matching": {"treshold": 0.4}})

    def test_negative_budget(self):
        with pytest.raises(SpecError):
            PipelineSpec.from_dict({"matching": {"budget": -1}})

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("update_phase", "false"),
            ("update_phase", 0),
            ("evidence_weight", -1.0),
            ("evidence_weight", float("nan")),
            ("evidence_weight", "0.3"),
            ("boost_factor", -1),
            ("boost_factor", float("inf")),
            ("discovery_weight", -0.5),
            ("discovery_weight", True),
            ("budget", 2.5),
            ("budget", True),
            ("checkpoint_every", "10"),
            ("checkpoint_every", 2.0),
            ("checkpoint_every", True),
        ],
    )
    def test_malformed_matching_knob_rejected(self, knob, value):
        with pytest.raises(SpecError) as err:
            PipelineSpec.from_dict({"matching": {knob: value}})
        assert f"matching.{knob}" in str(err.value)

    def test_unknown_sample_corpus(self):
        with pytest.raises(SpecError) as err:
            PipelineSpec.from_dict({"data": {"sample": "enron"}})
        assert "movies" in str(err.value)

    def test_data_sample_and_paths_exclusive(self):
        with pytest.raises(SpecError):
            PipelineSpec.from_dict({"data": {"sample": "movies", "kb1": "x.nt"}})

    def test_component_dict_needs_name(self):
        with pytest.raises(SpecError):
            PipelineSpec.from_dict({"weighting": {"params": {}}})

    def test_validation_is_eager_at_construction(self):
        with pytest.raises(SpecError):
            PipelineSpec(weighting=ComponentSpec("NOPE"))
        with pytest.raises(SpecError):
            PipelineSpec(matching=MatchingSpec(checkpoint_every=0))
        with pytest.raises(SpecError):
            PipelineSpec(backend=BackendSpec(kind="cluster"))


class TestWithHelpers:
    def test_with_backend_revalidates(self):
        spec = PipelineSpec()
        mr = spec.with_backend(kind="mapreduce", workers=4)
        assert mr.backend.workers == 4
        with pytest.raises(SpecError):
            spec.with_backend(kind="warp")

    def test_with_components(self):
        spec = PipelineSpec().with_components(
            weighting="EJS", pruning="WEP", blocker="qgrams"
        )
        assert spec.weighting.name == "EJS"
        assert spec.pruning.name == "WEP"
        assert spec.blocking.blocker.name == "qgrams"

    def test_specs_are_frozen(self):
        spec = PipelineSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.weighting = ComponentSpec("CBS")

    def test_disabled_postprocessing_round_trips(self):
        spec = PipelineSpec.from_dict(
            {"blocking": {"purging": None, "filtering": None}}
        )
        assert spec.blocking.purging is None
        assert spec.blocking.filtering is None
        assert PipelineSpec.from_json(spec.to_json()) == spec
