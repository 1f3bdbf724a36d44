"""The component registry: names, introspection, validation, plugins."""

from __future__ import annotations

import pytest

from repro.api import (
    InvalidParamsError,
    Registry,
    UnknownComponentError,
    registry,
)

#: every (kind, name) the registry bootstraps from the SCHEMES / PRUNERS /
#: BENEFITS tables
TABLE_NAMES = [
    (kind, name)
    for kind in ("weighting", "pruner", "benefit")
    for name in registry.names(kind)
]


class TestBuiltinRegistrations:
    """Every component kind the facade promises is populated."""

    def test_kinds_present(self):
        assert {
            "blocker",
            "postprocess",
            "weighting",
            "pruner",
            "matcher",
            "benefit",
            "scenario",
            "corpus",
        } <= set(registry.kinds())

    def test_weighting_names_match_legacy_table(self):
        from repro.metablocking.weighting import SCHEMES

        assert registry.names("weighting") == sorted(SCHEMES)

    def test_pruner_names_match_legacy_table(self):
        from repro.metablocking.pruning import PRUNERS

        assert registry.names("pruner") == sorted(PRUNERS)

    def test_benefit_names_match_legacy_table(self):
        from repro.core.benefit import BENEFITS

        assert registry.names("benefit") == sorted(BENEFITS)

    def test_blockers(self):
        assert registry.names("blocker") == [
            "attribute-clustering",
            "prefix-infix-suffix",
            "qgrams",
            "token",
        ]

    def test_scenarios_and_corpora(self):
        assert registry.names("scenario") == [
            "bursty", "churn", "erasure", "skewed", "uniform",
        ]
        assert registry.names("corpus") == ["movies", "people", "restaurants"]

    def test_every_component_documented(self):
        """Registry-exported components must carry real docstrings."""
        for kind in registry.kinds():
            for name in registry.names(kind):
                info = registry.get(kind, name)
                doc = (info.factory.__doc__ or "").strip()
                assert len(doc) > 15, f"{kind}/{name} lacks a docstring"
                assert info.summary, f"{kind}/{name} has no summary line"


class TestLookup:
    def test_case_insensitive(self):
        assert registry.get("weighting", "arcs").name == "ARCS"
        assert registry.get("pruner", "reciprocalcnp").name == "ReciprocalCNP"

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(UnknownComponentError) as err:
            registry.get("weighting", "bogus")
        message = str(err.value)
        for name in registry.names("weighting"):
            assert name in message

    @pytest.mark.parametrize("kind, name", TABLE_NAMES)
    def test_every_table_name_creates_case_insensitively(self, kind, name):
        for spelling in (name, name.lower(), name.upper(), name.swapcase()):
            assert registry.create(kind, spelling).name == name

    @pytest.mark.parametrize("kind", ["weighting", "pruner", "benefit"])
    def test_unknown_table_name_is_a_key_error(self, kind):
        with pytest.raises(KeyError):
            registry.create(kind, "bogus")

    def test_create_instantiates(self):
        scheme = registry.create("weighting", "ARCS")
        assert scheme.name == "ARCS"
        blocker = registry.create("blocker", "qgrams", {"q": 2})
        assert blocker.q == 2

    def test_create_rejects_unknown_params(self):
        with pytest.raises(InvalidParamsError) as err:
            registry.create("blocker", "qgrams", {"qq": 2})
        assert "qq" in str(err.value)
        assert "q" in str(err.value)

    def test_describe_rows(self):
        rows = registry.describe("pruner")
        assert {row["name"] for row in rows} == set(registry.names("pruner"))
        assert all(row["kind"] == "pruner" for row in rows)
        everything = registry.describe()
        assert len(everything) > len(rows)


class TestPluginRegistration:
    def test_decorator_and_duplicate_rejection(self):
        fresh = Registry()

        @fresh.register("widget", "frob")
        class Frob:
            """A frobnicating widget for the registry test."""

            def __init__(self, level: int = 3) -> None:
                self.level = level

        assert fresh.names("widget") == ["frob"]
        assert fresh.create("widget", "FROB", {"level": 5}).level == 5
        with pytest.raises(ValueError):
            fresh.register("widget", "frob", Frob)

    def test_introspected_params(self):
        info = registry.get("postprocess", "filtering")
        ratio = info.param("ratio")
        assert ratio is not None and ratio.default == 0.8

    def test_runtime_params_hidden_from_specs(self):
        info = registry.get("matcher", "threshold")
        assert "index" in {p.name for p in info.params}
        assert "index" not in {p.name for p in info.spec_params()}
