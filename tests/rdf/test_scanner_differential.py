"""Differential test: the regex scanner against the cursor it replaced.

Valid statements — generated as *text*, so escapes, blank nodes,
qualifiers and every whitespace variant occur — must parse to the same
:class:`Triple`.  Mutated statements must get the same accept/reject
verdict, except where the new grammar is deliberately different; those
classes are listed in ``DOCUMENTED_FIX`` and each has its own case in
``test_ntriples.py``.
"""

from __future__ import annotations

import re

from hypothesis import assume, given, settings, strategies as st

from repro.rdf.ntriples import NTriplesParseError, parse_ntriples_line

from .cursor_oracle import cursor_parse_line

# Lines on which old and new verdicts may legitimately differ:
DOCUMENTED_FIX = re.compile(
    r"""
    \.[ \t]*\#                         # a comment may follow the final '.'
  | _:[\w.-]*\.(?![\w.-])               # a blank-node label cannot end with '.'
  | <[^>]*[\x00-\x20<]                  # raw '<' / control characters in an IRI
  | \\u[dD][89a-fA-F] | \\U0000[dD][89a-fA-F]   # surrogate escapes
  | \\u(?![0-9A-Fa-f]{4}) | \\U(?![0-9A-Fa-f]{8})  # int()-only hex spellings ('1_0', '+1a')
    """,
    re.VERBOSE,
)

_scalar = st.integers(1, 0x10FFFF).filter(lambda code: not 0xD800 <= code <= 0xDFFF)
uchar = st.one_of(
    _scalar.filter(lambda code: code <= 0xFFFF).map(lambda code: f"\\u{code:04X}"),
    _scalar.filter(lambda code: code <= 0xFFFF).map(lambda code: f"\\u{code:04x}"),
    _scalar.map(lambda code: f"\\U{code:08X}"),
)
iri_chunk = st.one_of(
    st.text(alphabet="abcXYZ019/:._-~%?=&#'()*+,;@!$[]éλ日", min_size=1, max_size=8),
    uchar,
)
iri = st.lists(iri_chunk, min_size=1, max_size=4).map(lambda parts: f"<{''.join(parts)}>")
bnode = st.from_regex(r"_:[A-Za-z0-9_]([A-Za-z0-9_.-]{0,6}[A-Za-z0-9_-])?", fullmatch=True)
literal_chunk = st.one_of(
    st.text(
        alphabet=st.characters(
            blacklist_categories=("Cs",), blacklist_characters='"\\\n'
        ),
        max_size=8,
    ),
    st.sampled_from(["\\t", "\\b", "\\n", "\\r", "\\f", '\\"', "\\'", "\\\\"]),
    uchar,
)
qualifier = st.one_of(
    st.just(""),
    st.sampled_from(["@en", "@de-AT", "@x-1", "@EL"]),
    iri.map(lambda term: f"^^{term}"),
)
literal = st.tuples(st.lists(literal_chunk, max_size=4), qualifier).map(
    lambda parts: f'"{"".join(parts[0])}"{parts[1]}'
)
gap = st.text(alphabet=" \t", min_size=1, max_size=3)
slack = st.text(alphabet=" \t", max_size=2)


@st.composite
def statements(draw) -> str:
    subject = draw(st.one_of(iri, bnode))
    obj = draw(st.one_of(iri, bnode, literal))
    # the cursor's blank-node label swallows a directly following '.'
    before_dot = draw(gap if obj.startswith("_:") else slack)
    return (
        subject + draw(gap) + draw(iri) + draw(gap) + obj + before_dot + "." + draw(slack)
    )


def verdict(parse, line):
    try:
        return parse(line)
    except NTriplesParseError:
        return None
    except OverflowError:
        # the cursor's chr() on \UA0000000 and up: an untyped rejection
        assert parse is cursor_parse_line
        return None


@settings(max_examples=400, deadline=None)
@given(statements())
def test_valid_statements_parse_identically(line):
    expected = cursor_parse_line(line)
    assert parse_ntriples_line(line) == expected


mutation_alphabet = st.sampled_from('<>"\\ \t._:@^-+uUnx0aéG{|`\'')


@settings(max_examples=600, deadline=None)
@given(statements(), st.data())
def test_mutated_statements_get_the_same_verdict(line, data):
    position = data.draw(st.integers(0, len(line) - 1))
    kind = data.draw(st.sampled_from(["delete", "insert", "replace", "truncate"]))
    if kind == "delete":
        mutated = line[:position] + line[position + 1 :]
    elif kind == "truncate":
        mutated = line[:position]
    else:
        char = data.draw(mutation_alphabet)
        mutated = line[:position] + char + line[position + (kind == "replace") :]
    assume(not DOCUMENTED_FIX.search(mutated))
    assert verdict(parse_ntriples_line, mutated) == verdict(cursor_parse_line, mutated)


def test_errors_keep_the_line_number():
    for parse in (parse_ntriples_line, cursor_parse_line):
        try:
            parse("<http://a> <http://p> oops .", line_number=7)
        except NTriplesParseError as error:
            assert error.line_number == 7
            assert str(error).startswith("line 7: ")
        else:  # pragma: no cover
            raise AssertionError("malformed statement accepted")
