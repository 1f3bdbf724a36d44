"""Tests for the N-Triples parser and serializer."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.rdf.loader import load_collection
from repro.rdf.ntriples import (
    NTriplesParseError,
    Triple,
    parse_ntriples,
    parse_ntriples_line,
    serialize_ntriples,
    serialize_triple,
)


class TestParseLine:
    def test_simple_iri_triple(self):
        triple = parse_ntriples_line("<http://a> <http://p> <http://b> .")
        assert triple == Triple("http://a", "http://p", "http://b")
        assert not triple.is_literal

    def test_plain_literal(self):
        triple = parse_ntriples_line('<http://a> <http://p> "hello world" .')
        assert triple.object == "hello world"
        assert triple.is_literal

    def test_language_tagged_literal(self):
        triple = parse_ntriples_line('<http://a> <http://p> "bonjour"@fr .')
        assert triple.language == "fr"
        assert triple.datatype == ""

    def test_datatyped_literal(self):
        triple = parse_ntriples_line(
            '<http://a> <http://p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .'
        )
        assert triple.datatype.endswith("integer")
        assert triple.object == "42"

    def test_blank_nodes(self):
        triple = parse_ntriples_line("_:b1 <http://p> _:b2 .")
        assert triple.subject == "_:b1"
        assert triple.object == "_:b2"

    def test_escapes_in_literal(self):
        triple = parse_ntriples_line(r'<http://a> <http://p> "line\nbreak \"q\" \\ tab\t" .')
        assert triple.object == 'line\nbreak "q" \\ tab\t'

    def test_unicode_escapes(self):
        triple = parse_ntriples_line(r'<http://a> <http://p> "café" .')
        assert triple.object == "café"
        triple = parse_ntriples_line(r'<http://a> <http://p> "\U0001F600" .')
        assert triple.object == "😀"

    def test_unicode_escape_in_iri(self):
        triple = parse_ntriples_line(r"<http://a/café> <http://p> <http://b> .")
        assert triple.subject == "http://a/café"

    def test_extra_whitespace_tolerated(self):
        triple = parse_ntriples_line("<http://a>   <http://p>\t<http://b>   .")
        assert triple.predicate == "http://p"

    def test_blank_node_label_does_not_swallow_the_terminator(self):
        triple = parse_ntriples_line("_:b1 <http://p> _:b2.")
        assert triple == Triple("_:b1", "http://p", "_:b2")
        # ... but a '.' inside the label belongs to it
        assert parse_ntriples_line("_:b.1 <http://p> _:b.2.").object == "_:b.2"

    def test_trailing_comment_after_statement(self):
        triple = parse_ntriples_line('<http://a> <http://p> "v" . # a "comment" <x> .')
        assert triple == Triple("http://a", "http://p", "v", True)
        assert parse_ntriples_line("<http://a> <http://p> <http://b> .#c").object == "http://b"

    def test_hash_inside_terms_is_not_a_comment(self):
        triple = parse_ntriples_line('<http://a#x> <http://p#y> "#z" .')
        assert triple == Triple("http://a#x", "http://p#y", "#z", True)

    def test_escaped_datatype_iri(self):
        triple = parse_ntriples_line(r'<http://a> <http://p> "1"^^<http://t/a\u0020b> .')
        assert triple.datatype == "http://t/a b"

    @pytest.mark.parametrize("tag", ["en-US", "de-AT", "zh-Hant-TW", "EN", "x-1"])
    def test_language_tag_kept_as_written(self, tag):
        triple = parse_ntriples_line(f'<http://a> <http://p> "v"@{tag} .')
        assert (triple.object, triple.language, triple.datatype) == ("v", tag, "")

    @pytest.mark.parametrize("text", ["", "a . b # c", "Ἀθῆναι", "\u2028\x85"])
    def test_literal_text_is_taken_verbatim(self, text):
        triple = parse_ntriples_line(f'<http://a> <http://p> "{text}" .')
        assert triple == Triple("http://a", "http://p", text, True)

    def test_long_literal(self):
        text = "Ω lorem ipsum " * 2000
        assert parse_ntriples_line(f'<http://a> <http://p> "{text}" .').object == text


class TestParseErrors:
    @pytest.mark.parametrize(
        "line",
        [
            "<http://a> <http://p> <http://b>",  # missing dot
            "<http://a> <http://p> .",  # missing object
            '<http://a> "lit" <http://b> .',  # literal predicate
            "<http://a> <http://p> <http://b> . extra",  # trailing garbage
            '<http://a> <http://p> "unterminated .',
            "<http://a <http://p> <http://b> .",  # unterminated IRI
            r'<http://a> <http://p> "bad\q" .',  # invalid escape
            '<http://a> <http://p> "x"@ .',  # empty language
            "<> <http://p> <http://b> .",  # empty IRI
            "_: <http://p> <http://b> .",  # empty bnode label
            "_:b1. <http://p> <http://b> .",  # label may not end with '.'
            "<http://a b> <http://p> <http://b> .",  # raw space in IRI
            "<http://a<b> <http://p> <http://b> .",  # raw '<' in IRI
            "<http://a\tb> <http://p> <http://b> .",  # raw control character in IRI
            r"<http://a\n> <http://p> <http://b> .",  # only \u escapes in IRIs
            r'<http://a> <http://p> "\uD800" .',  # lone surrogate
            r'<http://a> <http://p> "\U0000DFFF" .',  # lone surrogate, long form
            r"<http://a/\uDC00> <http://p> <http://b> .",  # surrogate in IRI
            r'<http://a> <http://p> "\U00110000" .',  # beyond U+10FFFF
            r'<http://a> <http://p> "\UA0000000" .',  # beyond a C int (was OverflowError)
            r'<http://a> <http://p> "\u12G4" .',  # non-hex digits
            r'<http://a> <http://p> "\u1_23" .',  # int() would take the underscore
            r'<http://a> <http://p> "\u+123" .',  # ... and the sign
            "<http://a> <http://p> <http://b> . # c\n<x>",  # comment ends the line
            " <http://a> <http://p> <http://b> .",  # a statement starts its line
        ],
    )
    def test_malformed_rejected(self, line):
        with pytest.raises(NTriplesParseError):
            parse_ntriples_line(line)

    def test_error_carries_line_number(self):
        with pytest.raises(NTriplesParseError) as excinfo:
            list(parse_ntriples("<http://a> <http://p> <http://b> .\nbroken line ."))
        assert excinfo.value.line_number == 2

    def test_bad_code_point_carries_line_number(self):
        text = '<http://a> <http://p> "ok" .\n\n<http://a> <http://p> "\\uDABC" .'
        with pytest.raises(NTriplesParseError, match="line 3: .*scalar value") as excinfo:
            list(parse_ntriples(text))
        assert excinfo.value.line_number == 3

    @pytest.mark.parametrize(
        "line, term",
        [
            ('"lit" <http://p> <http://b> .', "subject"),
            ("<http://a><http://p> <http://b> .", "subject"),
            ('<http://a> "lit" <http://b> .', "predicate"),
            ("<http://a> <http://p> http://b .", "object"),
            ("<http://a> <http://p> <http://b>", "'.'"),
        ],
    )
    def test_error_names_the_malformed_term(self, line, term):
        with pytest.raises(NTriplesParseError, match=term):
            parse_ntriples_line(line)

    @pytest.mark.parametrize(
        "line, column",
        [
            ("    <http://a> <http://p> oops .", 27),  # the object, after the indent
            ("\t<http://a> <http://p> <http://b> x .", 34),  # after a tab indent
            ("<http://a> <http://p> oops .  \r", 23),  # trailing blanks change nothing
        ],
    )
    def test_error_columns_are_columns_of_the_line_as_read(self, tmp_path, line, column):
        # The column and the echo are the file's, not those of the
        # stripped line; the echo drops only the line terminator.
        text = "<http://a> <http://p> <http://b> .\n" + line + "\n"
        path = tmp_path / "kb.nt"
        path.write_bytes(text.encode())
        for parse in (lambda: list(parse_ntriples(text)), lambda: load_collection(str(path))):
            with pytest.raises(NTriplesParseError) as excinfo:
                parse()
            assert excinfo.value.line_number == 2
            assert f"at column {column}: " in str(excinfo.value)
            assert str(excinfo.value).endswith(": " + repr(line.rstrip("\r")))


class TestParseDocument:
    def test_comments_and_blanks_skipped(self):
        text = "# a comment\n\n<http://a> <http://p> <http://b> .\n  \n"
        triples = list(parse_ntriples(text))
        assert len(triples) == 1

    def test_iterable_of_lines(self):
        lines = ["<http://a> <http://p> <http://b> ."] * 3
        assert len(list(parse_ntriples(lines))) == 3

    @pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n", "  \t\n\t# c\n   "])
    def test_document_without_statements(self, text):
        assert list(parse_ntriples(text)) == []

    def test_statements_keep_document_order(self):
        text = "<http://b> <http://p> <http://c> .\n<http://a> <http://p> <http://b> .\n"
        assert [t.subject for t in parse_ntriples(text)] == ["http://b", "http://a"]


class TestParseError:
    def test_is_a_value_error(self):
        assert issubclass(NTriplesParseError, ValueError)

    def test_message_alone(self):
        error = NTriplesParseError("bad term")
        assert (str(error), error.line_number) == ("bad term", 0)

    def test_line_number_prefixes_the_message(self):
        error = NTriplesParseError("bad term", 7)
        assert (str(error), error.line_number) == ("line 7: bad term", 7)

    def test_line_is_echoed_without_its_terminator(self):
        error = NTriplesParseError("bad term", 2, "<x> oops .\r\n")
        assert str(error) == "line 2: bad term: '<x> oops .'"


class TestRoundTrip:
    CASES = [
        Triple("http://a", "http://p", "http://b"),
        Triple("_:b1", "http://p", "_:b2"),
        Triple("http://a", "http://p", "plain text", True),
        Triple("http://a", "http://p", "hola", True, "es"),
        Triple("http://a", "http://p", "42", True, "", "http://www.w3.org/2001/XMLSchema#integer"),
        Triple("http://a", "http://p", 'tricky "quotes"\nand\tlines\\', True),
        Triple("http://a", "http://p", "", True),
        Triple("http://a", "http://p", "Ἀθῆναι\u2028\x85", True, "el"),
        Triple("_:b.1", "http://p", "_:b.2"),
        Triple("http://a/café", "http://p#x", "http://b?q=1&r=2"),
        Triple("http://a", "http://p", "1", True, "", "http://t#x y"),
    ]

    @pytest.mark.parametrize("triple", CASES)
    def test_round_trip(self, triple):
        line = serialize_triple(triple)
        assert parse_ntriples_line(line) == triple

    def test_document_round_trip(self):
        text = serialize_ntriples(self.CASES)
        assert list(parse_ntriples(text)) == self.CASES

    def test_empty_input(self):
        assert serialize_ntriples([]) == ""

    def test_blank_nodes_are_written_raw(self):
        line = serialize_triple(Triple("_:s", "http://p", "_:o"))
        assert line == "_:s <http://p> _:o ."

    def test_language_tag_wins_over_a_datatype(self):
        line = serialize_triple(Triple("http://a", "http://p", "v", True, "en", "http://t"))
        assert line == '<http://a> <http://p> "v"@en .'

    @pytest.mark.parametrize("char", list(' <>\\"{}|^`\n\r\t\x00\x1f'))
    def test_unsafe_iri_characters_are_escaped(self, char):
        iri = f"http://a/b{char}c"
        triple = Triple(iri, iri, "v", True, "", iri)
        line = serialize_triple(triple)
        assert "\n" not in line and f"\\u{ord(char):04X}" in line
        assert parse_ntriples_line(line) == triple
        assert parse_ntriples_line(serialize_triple(Triple(iri, iri, iri))).object == iri

    def test_safe_iri_characters_are_written_verbatim(self):
        iri = "http://a/b?c=d&e=%20#f~g'h(i)*j,k;l:m@n!o$p+q=r[s]té"
        assert serialize_triple(Triple(iri, iri, iri)) == f"<{iri}> <{iri}> <{iri}> ."

    literal_text = st.text(
        alphabet=st.characters(blacklist_categories=("Cs",), min_codepoint=1),
        max_size=60,
    )

    @given(literal_text)
    def test_any_literal_round_trips(self, value):
        triple = Triple("http://a", "http://p", value, True)
        # \r is normalized away by splitlines; serialize escapes it instead.
        assert parse_ntriples_line(serialize_triple(triple)) == triple
