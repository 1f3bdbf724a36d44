"""N-Triples parsing and serialization.

N-Triples (https://www.w3.org/TR/n-triples/) is the line-oriented RDF
syntax that Web-of-data dumps (BTC, DBpedia exports) ship in.  The parser
here supports the full core grammar needed for entity resolution corpora:

* IRIs in angle brackets with ``\\u``/``\\U`` escapes (a raw space, control
  character or any of ``<>"{}|^`\\`` inside one is an error, as in the spec),
* blank nodes (``_:label``; a label may contain but not end with ``.``),
* literals with escapes, language tags and datatype IRIs,
* comment lines, blank lines and a ``# comment`` after a statement's ``.``.

Escapes must decode to Unicode scalar values: surrogates and code points
beyond U+10FFFF are parse errors, not strings that fail later on write.
One statement is one regex match (the scanning runs in C); the serializer
escapes exactly the characters the scanner refuses to read raw, so
``parse(serialize(triples)) == triples`` for any IRI or literal text.

Datatypes and language tags are preserved on the :class:`Triple`; its
``object`` is the plain lexical form, which is what blocking tokenizes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator


class NTriplesParseError(ValueError):
    """Raised on malformed N-Triples input, with line diagnostics."""

    def __init__(self, message: str, line_number: int = 0, line: str = "") -> None:
        detail = message
        if line_number:
            detail = f"line {line_number}: {message}"
        if line:
            line = line.rstrip("\r\n")  # the line as read, without its terminator
            detail = f"{detail}: {line!r}"
        super().__init__(detail)
        self.line_number = line_number


@dataclass(frozen=True)
class Triple:
    """One RDF statement.

    ``subject`` is an IRI or blank-node label, ``predicate`` an IRI,
    ``object`` an IRI, blank-node label or literal lexical form.  For
    literal objects, ``is_literal`` is True and ``language``/``datatype``
    carry the qualifiers (empty string when absent).
    """

    subject: str
    predicate: str
    object: str
    is_literal: bool = False
    language: str = ""
    datatype: str = ""


# One statement, one match: every term is a character-class run with the
# escape sequences unrolled out of it, so the regex engine scans at C speed
# and never backtracks into a term.
_UCHAR = r"\\u[0-9A-Fa-f]{4}|\\U[0-9A-Fa-f]{8}"
#: what an IRI may only carry as a \u escape: U+0000–U+0020 and <>"{}|^`\
_IRI_UNSAFE = "".join(map(chr, range(0x21))) + '<>"{}|^`\\'
_IRI_SAFE = f"[^{re.escape(_IRI_UNSAFE)}]*"
_IRI = rf"<((?!>){_IRI_SAFE}(?:(?:{_UCHAR}){_IRI_SAFE})*)>"
# A blank-node label may contain '.', but not end with one (the final '.'
# belongs to the statement).
_BNODE = r"(_:[\w.-]*[\w-])"
_LITERAL = rf'"([^"\\]*(?:(?:\\[tbnrf"\'\\]|{_UCHAR})[^"\\]*)*)"'
_QUALIFIER = rf"(?:@((?:[^\W_]|-)+)|\^\^{_IRI})?"
_SUBJECT = rf"(?:{_IRI}|{_BNODE})[ \t]+"
_PREDICATE = rf"{_IRI}[ \t]+"
_OBJECT = rf"(?:{_IRI}|{_BNODE}|{_LITERAL}{_QUALIFIER})"
_END = r"[ \t]*\.[ \t]*(?:#.*)?"
_STATEMENT = re.compile(_SUBJECT + _PREDICATE + _OBJECT + _END)

_ESCAPE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))")
_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}


def parse_ntriples(text: str | Iterable[str]) -> Iterator[Triple]:
    """Parse N-Triples *text* (a string or iterable of lines) lazily.

    Raises:
        NTriplesParseError: on the first malformed statement.
    """
    # Split on '\n' only: str.splitlines() also breaks on U+0085/U+2028/…,
    # which are legal *inside* literals and must not terminate statements.
    lines = text.split("\n") if isinstance(text, str) else text
    for number, line in enumerate(lines, start=1):
        triple = _read_line(line, number)
        if triple is not None:
            yield triple


def _read_line(line: str, line_number: int) -> Triple | None:
    """One line of a document as read: None for a blank or comment line,
    else its statement."""
    rest = line.lstrip()
    if not rest or rest[0] == "#":
        return None
    # The indent and the line terminator are skipped in place, so an
    # error names a column of the line as read.
    return _parse_statement(line, line_number, len(line) - len(rest), len(line.rstrip()))


def parse_ntriples_line(line: str, line_number: int = 0) -> Triple:
    """Parse a single N-Triples statement: the statement must start the
    line; blanks may follow its final ``.``.

    Raises:
        NTriplesParseError: if the statement is malformed.
    """
    return _parse_statement(line, line_number, 0, len(line))


def _parse_statement(line: str, line_number: int, start: int, end: int) -> Triple:
    """The statement that is exactly ``line[start:end]``."""
    match = _STATEMENT.fullmatch(line, start, end)
    if match is None:
        raise NTriplesParseError(_diagnose(line, start, end), line_number, line)
    s_iri, s_bnode, predicate, o_iri, o_bnode, literal, language, datatype = match.groups()
    subject = s_iri or s_bnode
    obj = o_iri or o_bnode
    if "\\" in line:
        try:
            subject = _unescape(subject)
            predicate = _unescape(predicate)
            if literal is not None:
                literal = _unescape(literal)
                datatype = datatype and _unescape(datatype)
            else:
                obj = _unescape(obj)
        except ValueError as error:
            raise NTriplesParseError(str(error), line_number, line) from None
    if literal is not None:
        return Triple(subject, predicate, literal, True, language or "", datatype or "")
    return Triple(subject, predicate, obj)


def _unescape(term: str) -> str:
    return _ESCAPE.sub(_decode_escape, term) if "\\" in term else term


def _decode_escape(match: re.Match) -> str:
    digits = match.group(1) or match.group(2)
    if digits is None:
        return _ESCAPES[match.group(3)]
    code = int(digits, 16)
    if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
        raise ValueError(f"escape {match.group()} is not a Unicode scalar value")
    return chr(code)


def _diagnose(line: str, start: int, end: int) -> str:
    """Say which term of the statement in ``line[start:end]`` the pattern
    rejected, at its 1-based column in *line*."""
    position = start
    for name, pattern in (
        ("subject (an IRI or blank node, then whitespace)", _SUBJECT),
        ("predicate (an IRI, then whitespace)", _PREDICATE),
        ("object (an IRI, blank node or literal)", _OBJECT),
    ):
        match = re.compile(pattern).match(line, position, end)
        if match is None:
            return f"malformed {name} at column {position + 1}"
        position = match.end()
    return f"expected '.' and at most a comment after it at column {position + 1}"


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    """Serialize *triples* back to canonical N-Triples text."""
    return "".join(serialize_triple(t) + "\n" for t in triples)


def serialize_triple(triple: Triple) -> str:
    """One statement, terminated by `` .`` (no newline)."""
    subject = _term(triple.subject)
    predicate = _iri(triple.predicate)
    if triple.is_literal:
        obj = '"' + triple.object.translate(_LITERAL_ESCAPES) + '"'
        if triple.language:
            obj += f"@{triple.language}"
        elif triple.datatype:
            obj += f"^^{_iri(triple.datatype)}"
    else:
        obj = _term(triple.object)
    return f"{subject} {predicate} {obj} ."


def _term(value: str) -> str:
    return value if value.startswith("_:") else _iri(value)


def _iri(value: str) -> str:
    return f"<{value.translate(_IRI_ESCAPES)}>"


# What the serializer escapes is exactly what the scanner refuses to read
# raw: inside an IRI the _IRI_UNSAFE characters, inside a literal the quote,
# the backslash and the line breaks.
_IRI_ESCAPES = {ord(ch): f"\\u{ord(ch):04X}" for ch in _IRI_UNSAFE}
_LITERAL_ESCAPES = str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
)
