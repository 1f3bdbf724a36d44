"""Tests for EntityDescription."""

from __future__ import annotations

import pytest

from repro.model.description import EntityDescription


def make_description() -> EntityDescription:
    return EntityDescription(
        "http://ex.org/resource/Berlin",
        {
            "http://ex.org/name": ["Berlin"],
            "http://ex.org/country": ["http://ex.org/resource/Germany"],
            "http://ex.org/population": ["3645000"],
        },
        source="ex",
    )


class TestConstruction:
    def test_requires_uri(self):
        with pytest.raises(ValueError):
            EntityDescription("")

    def test_attributes_stored(self):
        description = make_description()
        assert description.get("http://ex.org/name") == ["Berlin"]
        assert len(description) == 3

    def test_add_deduplicates_values(self):
        description = EntityDescription("u")
        description.add("p", "v")
        description.add("p", "v")
        assert description.get("p") == ["v"]

    def test_add_rejects_empty_property(self):
        description = EntityDescription("u")
        with pytest.raises(ValueError):
            description.add("", "v")

    def test_multi_valued_properties(self):
        description = EntityDescription("u")
        description.add("p", "v1")
        description.add("p", "v2")
        assert description.get("p") == ["v1", "v2"]
        assert len(description) == 2


class TestAccessors:
    def test_properties_order(self):
        description = make_description()
        assert description.properties() == [
            "http://ex.org/name",
            "http://ex.org/country",
            "http://ex.org/population",
        ]

    def test_first_with_default(self):
        description = make_description()
        assert description.first("http://ex.org/name") == "Berlin"
        assert description.first("missing", "fallback") == "fallback"

    def test_get_missing_is_empty(self):
        assert make_description().get("missing") == []

    def test_values_flattened(self):
        values = make_description().values()
        assert "Berlin" in values
        assert "3645000" in values
        assert len(values) == 3

    def test_pairs(self):
        pairs = list(make_description().pairs())
        assert ("http://ex.org/name", "Berlin") in pairs
        assert len(pairs) == 3

    def test_object_references_vs_literals(self):
        description = make_description()
        assert description.object_references() == ["http://ex.org/resource/Germany"]
        assert sorted(description.literal_values()) == ["3645000", "Berlin"]

    def test_urn_counts_as_reference(self):
        description = EntityDescription("u", {"p": ["urn:isbn:12345"]})
        assert description.object_references() == ["urn:isbn:12345"]


class TestEqualityAndCopy:
    def test_equality_by_uri_and_attributes(self):
        assert make_description() == make_description()

    def test_inequality_on_attribute_change(self):
        a = make_description()
        b = make_description()
        b.add("http://ex.org/name", "Berlin, Germany")
        assert a != b

    def test_hash_by_uri(self):
        assert hash(make_description()) == hash(make_description())

    def test_copy_is_deep(self):
        original = make_description()
        clone = original.copy()
        clone.add("http://ex.org/name", "Extra")
        assert original.get("http://ex.org/name") == ["Berlin"]
        assert clone.source == "ex"

    def test_repr_mentions_uri(self):
        assert "Berlin" in repr(make_description())
