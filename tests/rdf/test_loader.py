"""Tests for RDF → entity-collection loading."""

from __future__ import annotations

import pytest

from repro.rdf.loader import collection_from_triples, load_collection
from repro.rdf.ntriples import Triple

_RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


def triples() -> list[Triple]:
    return [
        Triple("http://e/a", "http://p/name", "Alpha", True),
        Triple("http://e/a", "http://p/knows", "http://e/b"),
        Triple("http://e/a", _RDF_TYPE, "http://t/Person"),
        Triple("http://e/b", "http://p/name", "Beta", True),
        Triple("_:blank", "http://p/name", "Anonymous", True),
    ]


class TestGrouping:
    def test_one_description_per_subject(self):
        collection = collection_from_triples(triples(), name="t")
        assert len(collection) == 2
        assert collection["http://e/a"].first("http://p/name") == "Alpha"

    def test_blank_nodes_skipped_by_default(self):
        collection = collection_from_triples(triples())
        assert "_:blank" not in collection

    def test_blank_nodes_kept_on_request(self):
        collection = collection_from_triples(triples(), skip_blank_nodes=False)
        assert "_:blank" in collection

    def test_rdf_type_kept_by_default(self):
        collection = collection_from_triples(triples())
        assert collection["http://e/a"].get(_RDF_TYPE) == ["http://t/Person"]

    def test_rdf_type_skippable(self):
        collection = collection_from_triples(triples(), skip_rdf_type=True)
        assert collection["http://e/a"].get(_RDF_TYPE) == []

    def test_source_defaults_to_name(self):
        collection = collection_from_triples(triples(), name="mykb")
        assert collection["http://e/a"].source == "mykb"

    def test_relationships_resolved(self):
        collection = collection_from_triples(triples())
        assert collection.neighbors("http://e/a") == ["http://e/b"]

    def test_interleaved_subjects_merge_in_first_seen_order(self):
        interleaved = [
            Triple("http://e/a", "http://p/name", "Alpha", True),
            Triple("http://e/b", "http://p/name", "Beta", True),
            Triple("_:blank", "http://p/name", "Anonymous", True),
            Triple("http://e/a", "http://p/name", "Alpha", True),
            Triple("http://e/a", "http://p/name", "Alfa", True),
            Triple("http://e/b", _RDF_TYPE, "http://t/Person"),
        ]
        collection = collection_from_triples(interleaved, skip_rdf_type=True)
        assert collection.uris() == ["http://e/a", "http://e/b"]
        assert collection["http://e/a"].get("http://p/name") == ["Alpha", "Alfa"]
        assert collection["http://e/b"].properties() == ["http://p/name"]

    def test_subject_with_only_skipped_statements_is_absent(self):
        only_type = [Triple("http://e/a", _RDF_TYPE, "http://t/Person")]
        assert len(collection_from_triples(only_type, skip_rdf_type=True)) == 0


class TestFileLoading:
    def test_load_nt(self, tmp_path):
        path = tmp_path / "data.nt"
        path.write_text('<http://e/a> <http://p/name> "Alpha" .\n')
        collection = load_collection(str(path))
        assert len(collection) == 1
        assert collection.name == "data"

    def test_load_ttl(self, tmp_path):
        path = tmp_path / "data.ttl"
        path.write_text('@prefix p: <http://p/> .\n<http://e/a> p:name "Alpha" .\n')
        collection = load_collection(str(path))
        assert collection["http://e/a"].first("http://p/name") == "Alpha"

    @pytest.mark.parametrize(
        "filename, text",
        [
            ("data.nt", '<http://e/a> <http://p/name> "Alpha" .\n'),
            ("data.ttl", '@prefix p: <http://p/> .\n<http://e/a> p:name "Alpha" .\n'),
        ],
    )
    def test_byte_order_mark_is_not_part_of_the_first_statement(
        self, tmp_path, filename, text
    ):
        path = tmp_path / filename
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        collection = load_collection(str(path))
        assert collection["http://e/a"].first("http://p/name") == "Alpha"

    def test_extension_compares_case_insensitively(self, tmp_path):
        path = tmp_path / "DATA.NT"
        path.write_text('<http://e/a> <http://p/name> "Alpha" .\n')
        assert load_collection(str(path)).name == "DATA"

    def test_crlf_lines_and_line_separators_inside_literals(self, tmp_path):
        path = tmp_path / "data.nt"
        path.write_bytes(
            '<http://e/a> <http://p/name> "Al\u2028pha\x85" .\r\n'
            '# comment\r\n'
            '<http://e/b> <http://p/name> "Beta" . # trailing\r\n'.encode("utf-8")
        )
        collection = load_collection(str(path))
        assert collection["http://e/a"].first("http://p/name") == "Al\u2028pha\x85"
        assert collection["http://e/b"].first("http://p/name") == "Beta"

    def test_unknown_extension_rejected(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_collection(str(path))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_collection(str(tmp_path / "nope.nt"))

    def test_explicit_name_and_source(self, tmp_path):
        path = tmp_path / "data.nt"
        path.write_text('<http://e/a> <http://p/name> "Alpha" .\n')
        collection = load_collection(str(path), name="custom", source="src")
        assert collection.name == "custom"
        assert collection["http://e/a"].source == "src"
