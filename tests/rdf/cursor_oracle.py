"""The character-at-a-time N-Triples scanner the regex scanner replaced.

Kept verbatim as a test-local oracle: ``tests/rdf/test_scanner_differential.py``
checks that :func:`repro.rdf.ntriples.parse_ntriples_line` reads every
statement exactly as this cursor did, and reaches the same accept/reject
verdict outside the documented grammar fixes.
"""

from __future__ import annotations

from repro.rdf.ntriples import NTriplesParseError, Triple

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


def cursor_parse_line(line: str, line_number: int = 0) -> Triple:
    """Parse one statement with the old cursor."""
    cursor = _Cursor(line, line_number)
    subject = cursor.read_subject()
    cursor.skip_ws(required=True)
    predicate = cursor.read_iri()
    cursor.skip_ws(required=True)
    obj, is_literal, language, datatype = cursor.read_object()
    cursor.skip_ws()
    cursor.expect(".")
    cursor.skip_ws()
    if not cursor.at_end():
        cursor.fail("trailing content after '.'")
    return Triple(subject, predicate, obj, is_literal, language, datatype)


class _Cursor:
    """Character-level scanner over one statement line."""

    def __init__(self, line: str, line_number: int) -> None:
        self.line = line
        self.line_number = line_number
        self.pos = 0

    def fail(self, message: str) -> None:
        raise NTriplesParseError(message, self.line_number, self.line)

    def at_end(self) -> bool:
        return self.pos >= len(self.line)

    def peek(self) -> str:
        return self.line[self.pos] if self.pos < len(self.line) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def skip_ws(self, required: bool = False) -> None:
        start = self.pos
        while self.peek() in (" ", "\t"):
            self.pos += 1
        if required and self.pos == start:
            self.fail("expected whitespace")

    def read_subject(self) -> str:
        if self.peek() == "<":
            return self.read_iri()
        if self.line.startswith("_:", self.pos):
            return self.read_bnode()
        self.fail("subject must be an IRI or blank node")
        raise AssertionError("unreachable")

    def read_bnode(self) -> str:
        start = self.pos
        self.pos += 2  # consume '_:'
        while not self.at_end() and (self.peek().isalnum() or self.peek() in "._-"):
            self.pos += 1
        label = self.line[start : self.pos]
        if label == "_:":
            self.fail("empty blank node label")
        return label

    def read_iri(self) -> str:
        self.expect("<")
        out: list[str] = []
        while True:
            if self.at_end():
                self.fail("unterminated IRI")
            ch = self.line[self.pos]
            self.pos += 1
            if ch == ">":
                break
            if ch == "\\":
                out.append(self._read_escape(unicode_only=True))
            elif ch in ' "{}|^`':
                self.fail(f"character {ch!r} must be escaped inside an IRI")
            else:
                out.append(ch)
        iri = "".join(out)
        if not iri:
            self.fail("empty IRI")
        return iri

    def read_object(self) -> tuple[str, bool, str, str]:
        ch = self.peek()
        if ch == "<":
            return self.read_iri(), False, "", ""
        if self.line.startswith("_:", self.pos):
            return self.read_bnode(), False, "", ""
        if ch == '"':
            return self.read_literal()
        self.fail("object must be an IRI, blank node or literal")
        raise AssertionError("unreachable")

    def read_literal(self) -> tuple[str, bool, str, str]:
        self.expect('"')
        out: list[str] = []
        while True:
            if self.at_end():
                self.fail("unterminated literal")
            ch = self.line[self.pos]
            self.pos += 1
            if ch == '"':
                break
            if ch == "\\":
                out.append(self._read_escape(unicode_only=False))
            else:
                out.append(ch)
        value = "".join(out)
        language = ""
        datatype = ""
        if self.peek() == "@":
            self.pos += 1
            start = self.pos
            while not self.at_end() and (self.peek().isalnum() or self.peek() == "-"):
                self.pos += 1
            language = self.line[start : self.pos]
            if not language:
                self.fail("empty language tag")
        elif self.line.startswith("^^", self.pos):
            self.pos += 2
            datatype = self.read_iri()
        return value, True, language, datatype

    def _read_escape(self, unicode_only: bool) -> str:
        if self.at_end():
            self.fail("dangling escape")
        ch = self.line[self.pos]
        self.pos += 1
        if ch == "u":
            return self._read_hex(4)
        if ch == "U":
            return self._read_hex(8)
        if not unicode_only and ch in _ESCAPES:
            return _ESCAPES[ch]
        self.fail(f"invalid escape \\{ch}")
        raise AssertionError("unreachable")

    def _read_hex(self, width: int) -> str:
        digits = self.line[self.pos : self.pos + width]
        if len(digits) != width:
            self.fail("truncated unicode escape")
        try:
            code = int(digits, 16)
        except ValueError:
            self.fail(f"invalid unicode escape digits {digits!r}")
            raise AssertionError("unreachable")
        self.pos += width
        try:
            return chr(code)
        except ValueError:
            self.fail(f"code point out of range: {digits}")
            raise AssertionError("unreachable")
