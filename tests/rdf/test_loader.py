"""Tests for RDF → entity-collection loading."""

from __future__ import annotations

import pytest

from repro.rdf.loader import collection_from_triples, load_collection
from repro.rdf.ntriples import NTriplesParseError, Triple

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

    def test_blank_nodes_skipped(self):
        collection = collection_from_triples(triples())
        assert "_:blank" not in collection

    def test_rdf_type_kept(self):
        collection = collection_from_triples(triples())
        assert collection["http://e/a"].get(_RDF_TYPE) == ["http://t/Person"]

    def test_source_is_the_name(self):
        collection = collection_from_triples(triples(), name="mykb")
        assert collection["http://e/a"].source == "mykb"

    def test_relationships_resolved(self):
        collection = collection_from_triples(triples())
        assert collection.graph()[0].get("http://e/a") == ["http://e/b"]

    def test_interleaved_subjects_merge_in_first_seen_order(self):
        interleaved = [
            Triple("http://e/a", "http://p/name", "Alpha", True),
            Triple("http://e/b", "http://p/name", "Beta", True),
            Triple("_:blank", "http://p/name", "Anonymous", True),
            Triple("http://e/a", "http://p/name", "Alpha", True),
            Triple("http://e/a", "http://p/name", "Alfa", True),
            Triple("http://e/b", _RDF_TYPE, "http://t/Person"),
        ]
        collection = collection_from_triples(interleaved)
        assert collection.uris() == ["http://e/a", "http://e/b"]
        assert collection["http://e/a"].get("http://p/name") == ["Alpha", "Alfa"]
        assert collection["http://e/b"].properties() == ["http://p/name", _RDF_TYPE]


class TestFileLoading:
    def test_load_nt(self, tmp_path):
        path = tmp_path / "data.nt"
        path.write_text('<http://e/a> <http://p/name> "Alpha" .\n')
        collection = load_collection(str(path))
        assert len(collection) == 1
        assert collection.name == "data"

    def test_byte_order_mark_is_not_part_of_the_first_statement(self, tmp_path):
        path = tmp_path / "data.nt"
        path.write_bytes(b"\xef\xbb\xbf" + b'<http://e/a> <http://p/name> "Alpha" .\n')
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

    @pytest.mark.parametrize("filename", ["data.nt", "data.NT", "data.ntriples", "data.NTriples"])
    def test_n_triples_extensions_accepted(self, tmp_path, filename):
        path = tmp_path / filename
        path.write_text('<http://e/a> <http://p/name> "Alpha" .\n')
        collection = load_collection(str(path))
        assert (collection.name, collection.uris()) == ("data", ["http://e/a"])

    @pytest.mark.parametrize(
        "filename",
        [
            "data.json", "data.ttl", "data.n3", "data.nq",
            "data.rdf", "data.jsonld", "data.nt.gz", "data",
        ],
    )
    def test_unknown_extension_rejected(self, tmp_path, filename):
        path = tmp_path / filename
        path.write_text('<http://e/a> <http://p/name> "Alpha" .\n')
        with pytest.raises(ValueError, match=r"unsupported RDF extension .* \(use \.nt\)"):
            load_collection(str(path))

    @pytest.mark.parametrize(
        "text", ["", "# a comment\n\n", '_:b <http://p/name> "Anonymous" .\n']
    )
    def test_file_without_named_subjects_loads_empty(self, tmp_path, text):
        path = tmp_path / "data.nt"
        path.write_text(text)
        collection = load_collection(str(path))
        assert (collection.name, len(collection)) == ("data", 0)

    def test_values_are_lexical_forms_without_duplicates(self, tmp_path):
        path = tmp_path / "data.nt"
        path.write_text(
            '<http://e/a> <http://p/name> "Alpha" .\n'
            '<http://e/a> <http://p/name> "Alpha"@en .\n'
            '<http://e/a> <http://p/name> "Alpha"^^<http://t/s> .\n'
            '<http://e/a> <http://p/name> "Alfa" .\n'
        )
        assert load_collection(str(path))["http://e/a"].get("http://p/name") == ["Alpha", "Alfa"]

    def test_malformed_line_names_its_line(self, tmp_path):
        path = tmp_path / "data.nt"
        path.write_text('<http://e/a> <http://p/name> "Alpha" .\n# c\n<http://e/b> oops .\n')
        with pytest.raises(NTriplesParseError, match="^line 3: malformed predicate") as excinfo:
            load_collection(str(path))
        assert excinfo.value.line_number == 3

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_collection(str(tmp_path / "nope.nt"))

    def test_explicit_name_is_the_source(self, tmp_path):
        path = tmp_path / "data.nt"
        path.write_text('<http://e/a> <http://p/name> "Alpha" .\n')
        collection = load_collection(str(path), name="custom")
        assert collection.name == "custom"
        assert collection["http://e/a"].source == "custom"
