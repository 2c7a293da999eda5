"""Shared tokenizer for the graph, rule and strategy-script text formats."""
from __future__ import annotations

import re
from dataclasses import dataclass

NAME = "name"
INT = "int"
STRING = "string"
PUNCT = "punct"
EOF = "eof"

# One group per token kind, tried in order: an int before a name, since \w
# also matches digits; '->' and the two-character comparisons before their
# first character.  "open" is a string that does not close: its valid body,
# which ends at a bad escape, a newline or the end of the text.
_TOKEN = re.compile(r"""
    (?P<newline>\n) | (?P<space>[^\S\n]+) | (?P<comment>\#[^\n]*)
  | (?P<int>[0-9]+) | (?P<name>\w+)
  | (?P<punct>->|[=!<>]=|[{}\[\]();,=<>])
  | (?P<string>"(?:[^"\\\n]|\\["\\])*")
  | (?P<open>"(?:[^"\\\n]|\\["\\])*)
""", re.VERBOSE)
_ESCAPE = re.compile(r"\\(.)")


def locate(message: str, line: int, column: int, file: str = "") -> str:
    """message, led by where it applies: ``file:line:column``, or
    ``line:column`` when file is empty."""
    return f"{file}{':' if file else ''}{line}:{column}: {message}"


class ParseError(ValueError):
    """Syntax or semantic error in a text input, with source location."""

    def __init__(self, message: str, line: int, column: int, file: str = ""):
        super().__init__(locate(message, line, column, file))
        self.message = message
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    line: int
    column: int
    file: str = ""  # as ``tokenize`` was given it

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.column, self.file)


def tokenize(text: str, file: str = "") -> list[Token]:
    """The tokens of text; file, if given, leads every location in it."""
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        kind = m.lastgroup if m else None
        c = text[pos]
        # \w also matches numerals such as '²' that may not start a name.
        if kind is None or kind == NAME and not (c.isalpha() or c == "_"):
            raise ParseError(f"unexpected character {c!r}", line, col, file)
        if kind == "open":
            if text.startswith("\\", m.end()):
                raise ParseError("bad escape in string", line, col + m.end() - pos, file)
            raise ParseError("unterminated string", line, col, file)
        if kind == STRING:
            tokens.append(Token(STRING, _ESCAPE.sub(r"\1", m.group()[1:-1]), line, col, file))
        elif kind in (INT, NAME, PUNCT):
            tokens.append(Token(kind, m.group(), line, col, file))
        if kind == "newline":
            line, col = line + 1, 1
        elif kind != "comment":  # so an EOF after a comment is at its '#'
            col += m.end() - pos
        pos = m.end()
    tokens.append(Token(EOF, "", line, col, file))
    return tokens


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != EOF:
            self._pos += 1
        return tok

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        if self.at(kind, value):
            return self.next()
        return None

    def expect(self, kind: str, value: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            got = tok.value if tok.kind != EOF else "end of input"
            raise tok.error(f"expected {want!r}, got {got!r}")
        return self.next()

    def expect_int(self) -> int:
        return int(self.expect(INT).value)

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != EOF:
            raise tok.error(f"unexpected trailing input {tok.value!r}")


def quote(label: str) -> str:
    """Render a label as a double-quoted string literal."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'
