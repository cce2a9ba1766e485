"""Lexer for the EVEREST Kernel Language.

Statements are newline-terminated (like the paper's Fig. 3 listing);
newlines inside parentheses or brackets are insignificant, so multi-line
parenthesized expressions work naturally.  Semicolons are accepted as
explicit statement terminators as well.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from repro.errors import FrontendError

KEYWORDS = frozenset(
    {"kernel", "const", "index", "input", "output", "select", "sum", "f64",
     "f32", "i64", "i32"}
)

_TOKEN_RE = re.compile(
    r"""
    (?P<comment>//[^\n]*|\#[^\n]*)
  | (?P<float>\d+\.\d*(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|==|!=|->|[-+*/%<>=(){}\[\],:;])
  | (?P<newline>\n)
  | (?P<ws>[ \t\r]+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'int' | 'float' | 'ident' | 'kw' | 'op' | 'newline' | 'eof'
    text: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


def tokenize(source: str) -> List[Token]:
    """Tokenize EKL source; raises :class:`FrontendError` on bad characters."""
    tokens: List[Token] = []
    depth = 0
    line = 1
    line_start = 0
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        text = match.group(0)
        column = match.start() - line_start + 1
        if kind == "ws" or kind == "comment":
            pass
        elif kind == "newline":
            if depth == 0:
                if tokens and tokens[-1].kind != "newline":
                    tokens.append(Token("newline", "\n", line, column))
            line += 1
            line_start = match.end()
        elif kind == "bad":
            raise FrontendError(f"unexpected character {text!r}", line, column)
        else:
            # Only () and [] suppress newlines; {} delimits the kernel body,
            # where newlines must keep terminating statements.
            if text in "([":
                depth += 1
            elif text in ")]":
                depth = max(0, depth - 1)
            if kind == "ident" and text in KEYWORDS:
                kind = "kw"
            tokens.append(Token(kind, text, line, column))
    tokens.append(Token("eof", "", line, 1))
    return tokens
