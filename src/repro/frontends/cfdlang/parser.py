"""Parser for the CFDlang subset."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import FrontendError
from repro.frontends.lexer import Cursor


@dataclass
class Decl:
    name: str
    io: str  # 'input' | 'output' | 'var'
    shape: Tuple[int, ...]
    line: int = 0


@dataclass
class Expr:
    """Expression tree node.

    ``kind`` is one of ``name``, ``num``, ``add``, ``sub``, ``mul``, ``div``,
    ``product`` (outer product ``#``) or ``contract`` with 1-based dimension
    ``pairs``.
    """

    kind: str
    name: str = ""
    value: float = 0.0
    children: List["Expr"] = field(default_factory=list)
    pairs: List[Tuple[int, int]] = field(default_factory=list)


@dataclass
class Assign:
    target: str
    value: Expr
    line: int = 0


@dataclass
class Program:
    decls: List[Decl] = field(default_factory=list)
    assigns: List[Assign] = field(default_factory=list)

    def decl(self, name: str) -> Decl:
        for d in self.decls:
            if d.name == name:
                return d
        raise FrontendError(f"undeclared tensor {name!r}")


class _Parser(Cursor):
    pattern = re.compile(
        r"(?P<comment>//[^\n]*)|(?P<float>\d+\.\d*)|(?P<int>\d+)"
        r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
        r"|(?P<op>[-+*/#.:=\[\]()])|(?P<ws>\s+)|(?P<bad>.)"
    )
    keywords = frozenset({"var", "input", "output"})

    def parse(self) -> Program:
        program = Program()
        while not self.at("eof"):
            if self.at("kw", "var"):
                program.decls.append(self._parse_decl())
            else:
                program.assigns.append(self._parse_assign())
        return program

    def _parse_decl(self) -> Decl:
        line = self.expect("kw", "var").line
        io = "var"
        if self.at("kw", "input") or self.at("kw", "output"):
            io = self.advance().text
        name = self.expect("ident").text
        self.expect("op", ":")
        self.expect("op", "[")
        shape: List[int] = []
        while not self.accept("op", "]"):
            shape.append(int(self.expect("int").text))
        return Decl(name, io, tuple(shape), line)

    def _parse_assign(self) -> Assign:
        if not self.at("ident"):
            raise self.error(
                f"expected assignment target, got {self.current.text!r}")
        target = self.advance()
        self.expect("op", "=")
        value = self._parse_expr()
        return Assign(target.text, value, target.line)

    # precedence: contraction (postfix) > '#' > '*' '/' > '+' '-'
    def _parse_expr(self) -> Expr:
        lhs = self._parse_term()
        while self.at("op", "+") or self.at("op", "-"):
            op = self.advance().text
            rhs = self._parse_term()
            lhs = Expr("add" if op == "+" else "sub", children=[lhs, rhs])
        return lhs

    def _parse_term(self) -> Expr:
        lhs = self._parse_product()
        while self.at("op", "*") or self.at("op", "/"):
            op = self.advance().text
            rhs = self._parse_product()
            lhs = Expr("mul" if op == "*" else "div", children=[lhs, rhs])
        return lhs

    def _parse_product(self) -> Expr:
        lhs = self._parse_postfix()
        while self.accept("op", "#"):
            rhs = self._parse_postfix()
            lhs = Expr("product", children=[lhs, rhs])
        return lhs

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        while self.accept("op", "."):
            self.expect("op", "[")
            pairs: List[Tuple[int, int]] = []
            while self.accept("op", "["):
                a = int(self.expect("int").text)
                b = int(self.expect("int").text)
                self.expect("op", "]")
                pairs.append((a, b))
            self.expect("op", "]")
            expr = Expr("contract", children=[expr], pairs=pairs)
        return expr

    def _parse_primary(self) -> Expr:
        tok = self.current
        if self.accept("op", "("):
            inner = self._parse_expr()
            self.expect("op", ")")
            return inner
        if tok.kind in ("int", "float"):
            self.advance()
            return Expr("num", value=float(tok.text))
        if self.accept("ident"):
            return Expr("name", name=tok.text)
        raise self.error(f"unexpected token {tok.text!r}")


def parse_program(source: str) -> Program:
    """Parse CFDlang source text."""
    return _Parser(source).parse()
