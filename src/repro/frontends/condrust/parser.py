"""Parser for the ConDRust subset (Rust-like syntax)."""

from __future__ import annotations

import re
from typing import List, Optional

from repro.frontends.condrust import ast
from repro.frontends.lexer import Cursor


class CondrustParser(Cursor):
    pattern = re.compile(
        r"""
        (?P<comment>//[^\n]*)
      | (?P<float>\d+\.\d*(?:[eE][+-]?\d+)?)
      | (?P<int>\d+)
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>->|\#\[|[(){}\[\],;:=.&])
      | (?P<ws>[\s]+)
      | (?P<bad>.)
        """,
        re.VERBOSE,
    )
    keywords = frozenset({"fn", "let", "mut", "true", "false"})

    # -- grammar ---------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        program = ast.Program()
        while not self.at("eof"):
            program.functions.append(self.parse_function())
        if not program.functions:
            raise self.error("no functions found")
        return program

    def parse_function(self) -> ast.Function:
        start = self.expect("kw", "fn")
        name = self.expect("ident").text
        self.expect("op", "(")
        params: List[ast.Param] = []
        if not self.at("op", ")"):
            while True:
                pname = self.expect("ident").text
                self.expect("op", ":")
                self.accept("op", "&")  # reference types read identically
                ptype = self.expect("ident").text
                params.append(ast.Param(pname, ptype))
                if not self.accept("op", ","):
                    break
        self.expect("op", ")")
        return_type = None
        if self.accept("op", "->"):
            return_type = self.expect("ident").text
        self.expect("op", "{")
        body: List[ast.LetStmt] = []
        tail: Optional[ast.Expr] = None
        while not self.at("op", "}"):
            attr = None
            if self.at("op", "#["):
                attr = self._parse_attr()
            if self.at("kw", "let"):
                stmt = self._parse_let()
                stmt.attr = attr
                body.append(stmt)
            else:
                if attr is not None:
                    raise self.error("attribute must precede a let binding")
                tail = self._parse_expr()
                self.accept("op", ";")
                break
        self.expect("op", "}")
        return ast.Function(name, params, return_type, body, tail,
                            line=start.line, column=start.column)

    def _parse_attr(self) -> ast.KernelAttr:
        start = self.expect("op", "#[")
        kind = self.expect("ident").text
        if kind != "kernel":
            raise self.error(f"unknown attribute {kind!r}")
        params: dict = {}
        if self.accept("op", "("):
            while True:
                key = self.expect("ident").text
                self.expect("op", "=")
                params[key] = self._parse_attr_value()
                if not self.accept("op", ","):
                    break
            self.expect("op", ")")
        self.expect("op", "]")
        return ast.KernelAttr(params, line=start.line, column=start.column)

    def _parse_attr_value(self):
        tok = self.current
        if tok.kind == "kw" and tok.text in ("true", "false"):
            self.advance()
            return tok.text == "true"
        if tok.kind == "int":
            self.advance()
            return int(tok.text)
        if tok.kind == "float":
            self.advance()
            return float(tok.text)
        if tok.kind == "string":
            self.advance()
            return tok.text[1:-1]
        if tok.kind == "op" and tok.text == "[":
            self.advance()
            values = []
            if not self.at("op", "]"):
                while True:
                    values.append(self._parse_attr_value())
                    if not self.accept("op", ","):
                        break
            self.expect("op", "]")
            return values
        raise self.error(f"bad attribute value {tok.text!r}")

    def _parse_let(self) -> ast.LetStmt:
        start = self.expect("kw", "let")
        mutable = self.accept("kw", "mut") is not None
        name = self.expect("ident").text
        type_name = None
        if self.accept("op", ":"):
            self.accept("op", "&")
            type_name = self.expect("ident").text
        self.expect("op", "=")
        value = self._parse_expr()
        self.expect("op", ";")
        return ast.LetStmt(name, type_name, value, mutable,
                           line=start.line, column=start.column)

    def _parse_expr(self) -> ast.Expr:
        tok = self.current
        if tok.kind == "int":
            self.advance()
            return ast.IntLit(int(tok.text), line=tok.line, column=tok.column)
        if tok.kind == "float":
            self.advance()
            return ast.FloatLit(float(tok.text), line=tok.line,
                                column=tok.column)
        if tok.kind == "string":
            self.advance()
            return ast.StrLit(tok.text[1:-1], line=tok.line, column=tok.column)
        if tok.kind == "kw" and tok.text in ("true", "false"):
            self.advance()
            return ast.BoolLit(tok.text == "true", line=tok.line,
                               column=tok.column)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            elements = [self._parse_expr()]
            while self.accept("op", ","):
                elements.append(self._parse_expr())
            self.expect("op", ")")
            if len(elements) == 1:
                return elements[0]
            return ast.TupleExpr(elements, line=tok.line, column=tok.column)
        if tok.kind == "ident":
            self.advance()
            if self.accept("op", "("):
                args: List[ast.Expr] = []
                if not self.at("op", ")"):
                    while True:
                        self.accept("op", "&")
                        args.append(self._parse_expr())
                        if not self.accept("op", ","):
                            break
                self.expect("op", ")")
                return ast.Call(tok.text, args, line=tok.line,
                                column=tok.column)
            return ast.VarRef(tok.text, line=tok.line, column=tok.column)
        raise self.error(f"unexpected token {tok.text!r} in expression")


def parse_program(source: str) -> ast.Program:
    """Parse ConDRust source into a :class:`~ast.Program`."""
    return CondrustParser(source).parse_program()
