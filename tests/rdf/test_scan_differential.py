"""Differential test: ``load_collection`` on ``.nt`` text against the parser.

``load_collection`` scans an N-Triples file straight into descriptions;
``collection_from_triples(parse_ntriples(text))`` is the same grammar
one :class:`Triple` at a time.  On generated documents — subjects that
come back after others, blank-node subjects, ``rdf:type`` statements,
escapes, indents, comments, blank lines, CRLF and a byte-order mark — the
two must give the same descriptions in the same order, with the same
attribute order, de-duplicated values and ``source``, and the same
:class:`NTriplesParseError` (line and message) on a malformed line.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.rdf.loader import collection_from_triples, load_collection
from repro.rdf.ntriples import NTriplesParseError, parse_ntriples

from .test_scanner_differential import bnode, gap, iri, literal, slack, statements

RDF_TYPE = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"

# A small pool, so subjects and values repeat; \u0041 spells "A".
subject = st.sampled_from(
    ["<http://e/A>", r"<http://e/\u0041>", "<http://e/b>", "<urn:c>", "_:x", "_:y.1"]
)
predicate = st.one_of(st.sampled_from(["<http://p/name>", "<http://p/rel>", RDF_TYPE]), iri)
obj = st.one_of(
    st.sampled_from(['"v"', '"v"@en', "<http://e/A>", "<http://e/b>", "_:x"]), iri, bnode, literal
)


@st.composite
def statement(draw) -> str:
    line = draw(subject) + draw(gap) + draw(predicate) + draw(gap)
    term = draw(obj)
    return line + term + draw(gap if term.startswith("_:") else slack) + "." + draw(slack)


line = st.one_of(
    statement(),
    statement(),
    statements(),
    statement().map(lambda text: "  \t" + text),  # indented
    statement().map(lambda text: text + " # a comment"),
    st.sampled_from(["", "   ", "\t", "# a comment line", "  # indented comment"]),
)
# A raw CR inside a statement is a line break to a file read as text.
document = st.lists(line.filter(lambda text: "\r" not in text), max_size=25)


def malformed(lines: list[str], data) -> list[str]:
    """*lines* with one of them cut short, so that it fails to parse."""
    at = data.draw(st.integers(0, len(lines)))
    bad = data.draw(st.sampled_from(["<http://e/A> <http://p/name>", "oops .", '"x" <p> <o> .']))
    return lines[:at] + [bad] + lines[at:]


def shape(collection) -> list:
    return [(d.uri, d.source, list(d.attributes().items())) for d in collection]


def outcome(load):
    try:
        return shape(load())
    except NTriplesParseError as error:
        return ("error", error.line_number, str(error))


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(document, st.booleans(), st.booleans(), st.data())
def test_scan_equals_parse_then_group(tmp_path, lines, crlf, bom, data):
    if data.draw(st.booleans()):
        lines = malformed(lines, data)
    text = ("\r\n" if crlf else "\n").join(lines)
    path = tmp_path / "kb.nt"
    path.write_bytes((("\ufeff" if bom else "") + text).encode("utf-8"))
    scanned = outcome(lambda: load_collection(str(path)))
    parsed = outcome(lambda: collection_from_triples(parse_ntriples(text), "kb"))
    assert scanned == parsed


def test_subject_coming_back_merges_into_its_first_description(tmp_path):
    path = tmp_path / "kb.nt"
    path.write_text(
        '<http://e/a> <http://p/n> "1" .\n'
        '<http://e/b> <http://p/n> "2" .\n'
        '<http://e/\\u0061> <http://p/n> "1" .\n'  # <http://e/a> again, escaped
        '<http://e/a> <http://p/m> "3" .\n'
    )
    kb = load_collection(str(path))
    assert [d.uri for d in kb] == ["http://e/a", "http://e/b"]
    assert kb["http://e/a"].attributes() == {"http://p/n": ["1"], "http://p/m": ["3"]}


@pytest.mark.parametrize(
    "text",
    [
        '<http://e/\\u0061> <http://p/n> "x\\ty" .\n',  # escapes take the per-line parser
        '  \t<http://e/a> <http://p/n> "1" .\n<http://e/a> <http://p/n> "2" .\n',  # indent
        '<http://e/a> <http://p/n> "1" . # note\n',  # trailing comment
        '<http://e/a> <http://p/n> "1" .\n_:b <http://p/n> "2" .\n'
        '<http://e/a> <http://p/m> "3" .\n',  # a blank-node subject between runs
        f'<http://e/a> {RDF_TYPE} <http://t/T> .\n<http://e/a> <http://p/n> <http://e/a> .\n',
        '<http://e/a> <http://p/n> "1" .\r\n\r\n<http://e/b>\t<http://p/n>\t"1"@en\t.\r\n',
        '\ufeff<http://e/a> <http://p/n> "1" .\n',  # byte-order mark
        '<http://e/a> <http://p/n> "1" .\n<http://e/a> <http://p/n> "1" .\n',  # duplicate
    ],
)
def test_named_documents_scan_as_parsed(tmp_path, text):
    path = tmp_path / "kb.nt"
    path.write_bytes(text.encode("utf-8"))
    parsed = collection_from_triples(parse_ntriples(text.lstrip("\ufeff")), "kb")
    assert shape(load_collection(str(path))) == shape(parsed) != []
