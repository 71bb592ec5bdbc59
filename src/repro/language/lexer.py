"""Tokenizer for Hydrogen.

Hand-written single-pass scanner.  Keywords are recognized case-
insensitively; identifiers are normalized to lower case unless quoted with
double quotes.  String literals use single quotes with ``''`` escaping.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import List, NamedTuple, Tuple

from repro.errors import LexerError


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    PARAM = "param"       # ? or :name host-variable placeholders
    EOF = "eof"


#: Reserved words.  Kept deliberately small ("a relatively small number of
#: built-in constructs keeps the grammar compact") — unreserved words parse
#: as identifiers.
KEYWORDS = frozenset("""
    select from where group by having order asc desc distinct all any some
    and or not in exists between like is null true false case when then else
    end union intersect except as on inner join left right outer full with
    recursive insert into values update set delete create table view index
    unique drop primary key using at site check references explain limit
    cast foreign
""".split())

OPERATORS = ("<>", "!=", "<=", ">=", "||", "=", "<", ">", "+", "-", "*", "/",
             "%")
PUNCT = ("(", ")", ",", ".", ";")


class Token(NamedTuple):
    type: TokenType
    text: str
    value: object
    line: int
    column: int

    def is_keyword(self, *words: str) -> bool:
        return self.type is TokenType.KEYWORD and self.text in words

    def is_op(self, *ops: str) -> bool:
        return self.type is TokenType.OPERATOR and self.text in ops

    def is_punct(self, *marks: str) -> bool:
        return self.type is TokenType.PUNCT and self.text in marks


class Lexer:
    """Scanner producing a token list (EOF-terminated)."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def _error(self, message: str) -> LexerError:
        return LexerError("%s at line %d" % (message, self.line),
                          position=self.pos, line=self.line)

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < len(self.text) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.text) and self.text[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def _skip_noise(self) -> None:
        while self.pos < len(self.text):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "-" and self._peek(1) == "-":
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self.pos < len(self.text) and not (
                        self._peek() == "*" and self._peek(1) == "/"):
                    self._advance()
                if self.pos >= len(self.text):
                    raise self._error("unterminated block comment")
                self._advance(2)
            else:
                return

    def tokens(self) -> List[Token]:
        result: List[Token] = []
        while True:
            token = self.next_token()
            result.append(token)
            if token.type is TokenType.EOF:
                return result

    def next_token(self) -> Token:
        self._skip_noise()
        line, column = self.line, self.column
        if self.pos >= len(self.text):
            return Token(TokenType.EOF, "", None, line, column)
        ch = self._peek()

        if ch.isalpha() or ch == "_":
            return self._word(line, column)
        if ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
            return self._number(line, column)
        if ch == "'":
            return self._string(line, column)
        if ch == '"':
            return self._quoted_ident(line, column)
        if ch == "?":
            self._advance()
            return Token(TokenType.PARAM, "?", None, line, column)
        if ch == ":" and (self._peek(1).isalpha() or self._peek(1) == "_"):
            self._advance()
            name = self._ident_text()
            return Token(TokenType.PARAM, ":" + name, name, line, column)
        for op in OPERATORS:
            if self.text.startswith(op, self.pos):
                self._advance(len(op))
                return Token(TokenType.OPERATOR, op, None, line, column)
        if ch in PUNCT:
            self._advance()
            return Token(TokenType.PUNCT, ch, None, line, column)
        raise self._error("unexpected character %r" % ch)

    def _ident_text(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (self._peek().isalnum()
                                             or self._peek() == "_"):
            self._advance()
        return self.text[start: self.pos]

    def _word(self, line: int, column: int) -> Token:
        text = self._ident_text().lower()
        if text in KEYWORDS:
            return Token(TokenType.KEYWORD, text, None, line, column)
        return Token(TokenType.IDENT, text, text, line, column)

    def _quoted_ident(self, line: int, column: int) -> Token:
        self._advance()  # opening quote
        start = self.pos
        while self.pos < len(self.text) and self._peek() != '"':
            self._advance()
        if self.pos >= len(self.text):
            raise self._error("unterminated quoted identifier")
        text = self.text[start: self.pos]
        self._advance()  # closing quote
        return Token(TokenType.IDENT, text, text, line, column)

    def _number(self, line: int, column: int) -> Token:
        start = self.pos
        is_float = False
        while self.pos < len(self.text) and self._peek().isdigit():
            self._advance()
        if self._peek() == "." and self._peek(1).isdigit():
            is_float = True
            self._advance()
            while self.pos < len(self.text) and self._peek().isdigit():
                self._advance()
        if self._peek() in "eE" and (self._peek(1).isdigit()
                                     or (self._peek(1) in "+-"
                                         and self._peek(2).isdigit())):
            is_float = True
            self._advance()
            if self._peek() in "+-":
                self._advance()
            while self.pos < len(self.text) and self._peek().isdigit():
                self._advance()
        text = self.text[start: self.pos]
        value = float(text) if is_float else int(text)
        return Token(TokenType.NUMBER, text, value, line, column)

    def _string(self, line: int, column: int) -> Token:
        self._advance()  # opening quote
        parts: List[str] = []
        while True:
            if self.pos >= len(self.text):
                raise self._error("unterminated string literal")
            ch = self._peek()
            if ch == "'":
                if self._peek(1) == "'":     # '' escape
                    parts.append("'")
                    self._advance(2)
                    continue
                self._advance()
                break
            parts.append(ch)
            self._advance()
        text = "".join(parts)
        return Token(TokenType.STRING, text, text, line, column)


@lru_cache(maxsize=256)
def tokenize(text: str) -> Tuple[Token, ...]:
    """Tokenize a complete statement, returning an EOF-terminated tuple.

    Memoized per text: routing, fingerprinting, parsing and statement
    stats each scan a new statement, and now share one scan.  Tokens
    are immutable, and a :class:`LexerError` propagates uncached."""
    return tuple(Lexer(text).tokens())
