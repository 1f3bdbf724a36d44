"""Fuzzed round-trip tests across the RDF stack."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.rdf.graph import TripleStore
from repro.rdf.ntriples import Triple, parse_ntriples, serialize_ntriples
from repro.rdf.turtle import parse_turtle, serialize_turtle

# IRIs: scheme + authority + safe path characters (the profile real LOD
# identifiers live in).
iri_body = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789/_-.~%"),
    min_size=1,
    max_size=30,
)
iris = iri_body.map(lambda body: f"http://ex.org/{body}")
# Web-of-data dumps also carry IRIs no grammar allows raw (a space, a quote,
# a line break ...); N-Triples must \u-escape them and read them back.
# Turtle writes IRIs verbatim, so its fuzz keeps the safe profile above.
wild_iris = st.text(
    alphabet=st.one_of(
        st.sampled_from("abc/_-.~%#?=&é日"),
        st.sampled_from(' <>\\"{}|^`\n\r\t\x00\x0b\x1f\x7f\x85\u2028'),
    ),
    min_size=1,
    max_size=20,
).map(lambda body: f"http://ex.org/{body}")
bnodes = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789"),
    min_size=1,
    max_size=10,
).map(lambda label: f"_:{label}")
literals = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), min_codepoint=1),
    max_size=50,
)
languages = st.sampled_from(["", "en", "fr", "de-AT", "el"])


@st.composite
def triple_values(draw, iris=iris):
    subject = draw(st.one_of(iris, bnodes))
    predicate = draw(iris)
    if draw(st.booleans()):
        value = draw(literals)
        language = draw(languages)
        datatype = "" if language else draw(
            st.one_of(st.sampled_from(["", "http://www.w3.org/2001/XMLSchema#string"]), iris)
        )
        return Triple(subject, predicate, value, True, language, datatype)
    return Triple(subject, predicate, draw(st.one_of(iris, bnodes)))


class TestNTriplesFuzz:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(triple_values(wild_iris), max_size=15))
    def test_serialize_parse_round_trip(self, data):
        text = serialize_ntriples(data)
        assert list(parse_ntriples(text)) == data
        assert text.count("\n") == len(data)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(triple_values(wild_iris), max_size=15))
    def test_store_round_trip(self, data):
        store = TripleStore(data)
        reparsed = TripleStore(parse_ntriples(store.to_ntriples()))
        assert set(reparsed) == set(store)


class TestTurtleFuzz:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(triple_values(), max_size=15))
    def test_serialize_parse_round_trip(self, data):
        text = serialize_turtle(data)
        assert set(parse_turtle(text)) == set(data)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(triple_values(), max_size=15))
    def test_turtle_and_ntriples_agree(self, data):
        from_turtle = set(parse_turtle(serialize_turtle(data)))
        from_ntriples = set(parse_ntriples(serialize_ntriples(data)))
        assert from_turtle == from_ntriples
