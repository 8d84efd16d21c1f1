"""Tokenizer for the binary template language."""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, auto

from ..errors import TemplateSyntaxError


class TokenKind(Enum):
    IDENT = auto()
    INT = auto()
    FLOAT = auto()
    STRING = auto()  # value is bytes
    CHAR = auto()  # value is int
    KEYWORD = auto()
    OP = auto()
    EOF = auto()


KEYWORDS = {
    "typedef", "struct", "enum", "local", "if", "else", "while", "for",
    "switch", "case", "default", "break", "return", "void", "true", "false",
}

# One token, or a run of what lies between tokens, at the scan position.
# The groups are tried in order, and each operator before its prefixes.
_TOKEN = re.compile(r"""
    [ \t\r\n]+ | //[^\n]* | /\*.*?\*/
  | (/\*)                                                   # 1: a comment left open
  | (0[xX][0-9a-fA-F]*)                                     # 2
  | ([0-9]+\.[0-9]+)                                        # 3
  | ([0-9]+)                                                # 4
  | ([A-Za-z_][A-Za-z0-9_]*)                                # 5
  | (["'])                                                  # 6: a literal's opening quote
  | (<< | >> | <= | >= | == | != | && | \|\| | \+= | -= | \+\+ | --
     | [-+*/%!~<>=?:.,;(){}[\]^|&])                         # 7
""", re.DOTALL | re.VERBOSE)

# One character or escape inside a literal.
_PIECE = re.compile(r"""\\(?:x([0-9a-fA-F]{2})|([nrt0\\"']))|([^\\])""", re.DOTALL)

_ESCAPES = {
    "n": 0x0A, "r": 0x0D, "t": 0x09, "0": 0x00,
    "\\": 0x5C, '"': 0x22, "'": 0x27,
}

# quote -> (the literal's name in errors, the error for a character above 0xFF)
_LITERALS = {
    '"': ("string", "string literals are byte strings; character out of range"),
    "'": ("char", "char literal out of byte range"),
}


@dataclass
class Token:
    kind: TokenKind
    value: object
    line: int
    col: int

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.value!r}, {self.line}:{self.col})"


def _fail(source: str, at: int, message: str):
    raise TemplateSyntaxError(message, source.count("\n", 0, at) + 1,
                              at - source.rfind("\n", 0, at))


def _piece(source: str, at: int, quote: str) -> tuple[int, int]:
    """The byte value of the character or escape at `at` inside a literal
    opened by quote, and where the next one starts."""
    m = _PIECE.match(source, at)
    if m is None:  # a backslash that starts no escape
        esc = source[at + 1:at + 2]
        if not esc:
            _fail(source, at + 1, f"unterminated {_LITERALS[quote][0]} escape")
        if esc == "x":
            _fail(source, at + 2, "malformed \\x escape")
        _fail(source, at + 1, f"unknown escape \\{esc}")
    hexpart, esc, char = m.groups()
    if char is None:
        return (int(hexpart, 16) if hexpart else _ESCAPES[esc]), m.end()
    if ord(char) > 0xFF:
        _fail(source, at, _LITERALS[quote][1])
    return ord(char), m.end()


def _literal(source: str, at: int, quote: str) -> tuple[object, int]:
    """The value of the literal whose body starts at `at`, and the index
    after its closing quote: bytes for a string, an int for a char."""
    n = len(source)
    if quote == "'":
        if at >= n:
            _fail(source, at, "unterminated char literal")
        value, at = _piece(source, at, quote)
        if not source.startswith("'", at):
            _fail(source, at, "unterminated char literal")
        return value, at + 1
    values = []
    while not source.startswith('"', at):
        if at >= n or source[at] == "\n":
            _fail(source, at, "unterminated string literal")
        value, at = _piece(source, at, quote)
        values.append(value)
    return bytes(values), at + 1


def tokenize(source: str) -> list[Token]:
    """Turn template source into a token list ending with an EOF token."""
    tokens: list[Token] = []
    match, keywords = _TOKEN.match, KEYWORDS
    at, line, line_start, n = 0, 1, 0, len(source)
    while at < n:
        m = match(source, at)
        if m is None:
            _fail(source, at, f"unexpected character {source[at]!r}")
        group, end, col = m.lastindex, m.end(), at - line_start + 1
        if group is None or group == 6:
            if group == 6:
                value, end = _literal(source, end, m.group(6))
                kind = TokenKind.STRING if m.group(6) == '"' else TokenKind.CHAR
                tokens.append(Token(kind, value, line, col))
            newlines = source.count("\n", at, end)
            if newlines:
                line, line_start = line + newlines, source.rindex("\n", at, end) + 1
        elif group == 5:
            word = m.group(5)
            tokens.append(Token(TokenKind.KEYWORD if word in keywords else TokenKind.IDENT,
                                word, line, col))
        elif group == 7:
            tokens.append(Token(TokenKind.OP, m.group(7), line, col))
        elif group == 4:
            try:
                tokens.append(Token(TokenKind.INT, int(m.group(4)), line, col))
            except ValueError:  # more digits than int() reads
                _fail(source, at, "integer literal too long")
        elif group == 3:
            tokens.append(Token(TokenKind.FLOAT, float(m.group(3)), line, col))
        elif group == 2:
            if end - at == 2:
                _fail(source, at, "malformed hex literal")
            tokens.append(Token(TokenKind.INT, int(m.group(2), 16), line, col))
        else:  # a comment that never closes
            _fail(source, n, "unterminated block comment")
        at = end
    tokens.append(Token(TokenKind.EOF, None, line, n - line_start + 1))
    return tokens
