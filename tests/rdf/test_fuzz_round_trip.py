"""Fuzzed N-Triples round trips."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.rdf.ntriples import Triple, parse_ntriples, serialize_ntriples

# Web-of-data dumps carry IRIs no grammar allows raw (a space, a quote, a
# line break ...); N-Triples must \u-escape them and read them back.
iris = st.text(
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
def triple_values(draw):
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
    @given(st.lists(triple_values(), max_size=15))
    def test_serialize_parse_round_trip(self, data):
        text = serialize_ntriples(data)
        assert list(parse_ntriples(text)) == data
        assert text.count("\n") == len(data)
