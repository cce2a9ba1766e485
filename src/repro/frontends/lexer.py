"""The one lexer and token cursor of the SDK's language frontends.

EKL, ConDRust and CFDlang differ only in their token pattern, their
keywords and their grammar.  Each parser subclasses :class:`Cursor`,
sets :attr:`Cursor.pattern` and :attr:`Cursor.keywords`, and keeps only
its grammar; every token, and so every :class:`FrontendError` a parser
raises at one, carries the ``line:column`` it starts at.

A pattern is a regular expression of named groups, tried in order.
``ws`` and ``comment`` matches are skipped (counting the newlines they
hold), a ``bad`` match is an "unexpected character" error, and an
``ident`` whose text is a keyword becomes a ``kw`` token.  A pattern
with a ``newline`` group (EKL's) makes newlines statement terminators:
one ``newline`` token per run of them, none inside ``()`` or ``[]``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import FrozenSet, List, Optional

from repro.errors import FrontendError


@dataclass(frozen=True)
class Token:
    kind: str  # a pattern group name, 'kw', or 'eof'
    text: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


def tokenize(source: str, pattern: re.Pattern,
             keywords: FrozenSet[str]) -> List[Token]:
    """Tokenize ``source``; raises :class:`FrontendError` on a bad character."""
    tokens: List[Token] = []
    depth = 0
    line = 1
    line_start = 0
    for match in pattern.finditer(source):
        kind = match.lastgroup
        text = match.group(0)
        column = match.start() - line_start + 1
        if kind == "ws" or kind == "comment":
            if "\n" in text:
                line += text.count("\n")
                line_start = match.start() + text.rfind("\n") + 1
        elif kind == "newline":
            if depth == 0:
                if tokens and tokens[-1].kind != "newline":
                    tokens.append(Token("newline", "\n", line, column))
            line += 1
            line_start = match.end()
        elif kind == "bad":
            raise FrontendError(f"unexpected character {text!r}", line, column)
        else:
            # Only () and [] suppress newlines; EKL's {} delimits the
            # kernel body, where newlines must keep terminating statements.
            if text in "([":
                depth += 1
            elif text in ")]":
                depth = max(0, depth - 1)
            if kind == "ident" and text in keywords:
                kind = "kw"
            tokens.append(Token(kind, text, line, column))
    tokens.append(Token("eof", "", line, 1))
    return tokens


class Cursor:
    """A position in one source's tokens, for a recursive-descent parser."""

    pattern: re.Pattern
    keywords: FrozenSet[str]

    def __init__(self, source: str):
        self.tokens = tokenize(source, self.pattern, self.keywords)
        self.pos = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def error(self, message: str) -> FrontendError:
        tok = self.current
        return FrontendError(message, tok.line, tok.column)

    def advance(self) -> Token:
        tok = self.current
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.current
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self.current
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.accept(kind, text)
        if tok is None:
            raise self.error(
                f"expected {text or kind!r}, found {self.current.text!r}")
        return tok
