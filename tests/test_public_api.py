"""Guard rails on the public API surface.

Everything advertised in ``repro.__all__`` must exist, be importable from
the top level, and carry a docstring — the contract a downstream user
relies on.
"""

from __future__ import annotations

import inspect

import pytest

import repro


class TestAllExports:
    def test_every_name_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"

    @pytest.mark.parametrize("name", sorted(repro.__all__))
    def test_documented(self, name):
        obj = getattr(repro, name)
        if inspect.ismodule(obj) or isinstance(obj, (dict, frozenset, str)):
            return
        doc = inspect.getdoc(obj)
        assert doc, f"repro.{name} has no docstring"
        assert len(doc) > 15, f"repro.{name} docstring is a stub"

    def test_no_duplicate_exports(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_version_present(self):
        assert repro.__version__.count(".") == 2


class TestSubpackageAll:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.model",
            "repro.rdf",
            "repro.blocking",
            "repro.metablocking",
            "repro.matching",
            "repro.mapreduce",
            "repro.core",
            "repro.baselines",
            "repro.datasets",
            "repro.evaluation",
            "repro.stream",
            "repro.utils",
            "repro.api",
        ],
    )
    def test_subpackage_all_resolves(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a package docstring"
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists {name!r}"


class TestFacadeSignatureStability:
    """The documented keyword surface of the main entry points."""

    def test_matching_spec_fields(self):
        from repro.api.spec import MatchingSpec

        fields = set(MatchingSpec.__dataclass_fields__)
        expected = {
            "matcher",
            "budget",
            "benefit",
            "update_phase",
            "boost_factor",
            "discovery_weight",
            "evidence_weight",
            "checkpoint_every",
        }
        assert expected <= fields

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.core.pipeline",
            "repro.workflows",
            "repro.analysis",
            "repro.mapreduce.parallel_postprocessing",
            "repro.blocking.composite",
        ],
    )
    def test_legacy_construction_modules_are_gone(self, module_name):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module_name)

    @pytest.mark.parametrize(
        "module_name, name",
        [
            ("repro.blocking", "CompositeBlocking"),
            ("repro.mapreduce", "parallel_block_purging"),
            ("repro.mapreduce", "parallel_block_filtering"),
            ("repro.matching.clustering", "center_clustering"),
            ("repro.matching.clustering", "merge_center_clustering"),
            ("repro.matching.clustering", "unique_mapping_clustering"),
            ("repro.matching.matcher", "EnsembleMatcher"),
            ("repro.matching.similarity", "dice"),
            ("repro.matching.similarity", "overlap_coefficient"),
            ("repro.matching.similarity", "levenshtein"),
            ("repro.matching.similarity", "levenshtein_similarity"),
            ("repro.matching.similarity", "jaro"),
            ("repro.matching.similarity", "jaro_winkler"),
            ("repro.core.strategies", "hybrid_strategy"),
            ("repro.model.tokenizer", "infer_stop_tokens"),
            ("repro.evaluation.clusters", "closest_cluster_f1"),
            ("repro.evaluation.reporting", "format_sparkline"),
            ("repro.obs.sinks", "RingBufferSink"),
            ("repro.datasets.synthetic", "center_config"),
            ("repro.datasets.synthetic", "periphery_config"),
        ],
    )
    def test_removed_names_are_not_exported(self, module_name, name):
        """Names no spec, workload or paper experiment reaches are gone
        from their module, their subpackage and the top level."""
        import importlib

        module = importlib.import_module(module_name)
        package = importlib.import_module(".".join(module_name.split(".")[:2]))
        assert not hasattr(module, name)
        assert name not in getattr(package, "__all__", [])
        assert not hasattr(package, name)
        assert name not in repro.__all__

    @pytest.mark.parametrize(
        "owner, attribute",
        [
            ("repro.model.Tokenizer", "with_stop_tokens"),
            ("repro.evaluation.ProgressiveCurve", "downsample"),
            ("repro.model.collection.CollectionStatistics", "as_rows"),
            ("repro.model.EntityCollection", "relationship_edges"),
            ("repro.model.EntityDescription", "merged_with"),
        ],
    )
    def test_removed_methods_are_gone(self, owner, attribute):
        import importlib

        module_name, _, class_name = owner.rpartition(".")
        cls = getattr(importlib.import_module(module_name), class_name)
        assert not hasattr(cls, attribute)

    def test_tokenizer_options(self):
        from repro.model import Tokenizer

        params = inspect.signature(Tokenizer).parameters
        assert list(params) == [
            "min_token_length", "include_uri_infix", "include_reference_infixes",
        ]

    def test_synthetic_config_fields(self):
        from repro import SyntheticConfig

        fields = set(SyntheticConfig.__dataclass_fields__)
        assert {"entities", "overlap", "profile", "seed", "group_size"} <= fields

    def test_session_advance_signature(self):
        from repro.core import ProgressiveSession

        params = inspect.signature(ProgressiveSession.advance).parameters
        assert "instalment" in params

    def test_execute_signature(self):
        from repro.api import Pipeline

        params = inspect.signature(Pipeline.execute).parameters
        assert list(params) == ["self", "kb1", "kb2", "gold", "label", "match"]


class TestCommandLineSurface:
    def test_subcommand_set(self):
        import argparse

        from repro.cli import build_parser

        (subcommands,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert set(subcommands.choices) == {
            "run", "sql", "components", "synthesize", "obs", "serve", "verify",
        }
