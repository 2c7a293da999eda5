"""Shared tokenizer for the graph, rule and strategy-script text formats."""
from __future__ import annotations

from dataclasses import dataclass

NAME = "name"
INT = "int"
STRING = "string"
PUNCT = "punct"
EOF = "eof"

# Longest first so '->' wins over '-', '==' over '='.
_PUNCTUATION = (
    "->", "==", "!=", "<=", ">=",
    "{", "}", "[", "]", "(", ")", ";", ",", "=", "<", ">",
)


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


def _is_digit(c: str) -> bool:
    # ASCII only: str.isdigit() also accepts digits such as '²' that int()
    # rejects.
    return "0" <= c <= "9"


def _is_name_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_name_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def tokenize(text: str, file: str = "") -> list[Token]:
    """The tokens of text; file, if given, leads every location in it."""
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            parts: list[str] = []
            while True:
                if i >= n or text[i] == "\n":
                    raise ParseError("unterminated string", start_line, start_col, file)
                c = text[i]
                if c == '"':
                    i += 1
                    col += 1
                    break
                if c == "\\":
                    if i + 1 >= n or text[i + 1] not in ('"', "\\"):
                        raise ParseError("bad escape in string", line, col, file)
                    parts.append(text[i + 1])
                    i += 2
                    col += 2
                    continue
                parts.append(c)
                i += 1
                col += 1
            tokens.append(Token(STRING, "".join(parts), start_line, start_col, file))
            continue
        if _is_digit(c):
            start_col = col
            j = i
            while j < n and _is_digit(text[j]):
                j += 1
            tokens.append(Token(INT, text[i:j], line, start_col, file))
            col += j - i
            i = j
            continue
        if _is_name_start(c):
            start_col = col
            j = i
            while j < n and _is_name_char(text[j]):
                j += 1
            tokens.append(Token(NAME, text[i:j], line, start_col, file))
            col += j - i
            i = j
            continue
        for punct in _PUNCTUATION:
            if text.startswith(punct, i):
                tokens.append(Token(PUNCT, punct, line, col, file))
                i += len(punct)
                col += len(punct)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col, file)
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
