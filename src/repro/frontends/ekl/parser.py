"""Recursive-descent parser for the EVEREST Kernel Language.

Statements are newline-terminated (like the paper's Fig. 3 listing);
newlines inside parentheses or brackets are insignificant, so multi-line
parenthesized expressions work naturally.  Semicolons are accepted as
explicit statement terminators as well.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.frontends.ekl import ast
from repro.frontends.lexer import Cursor

# Binary operator precedence (higher binds tighter).
_PRECEDENCE = {
    "==": 10, "!=": 10, "<=": 10, "<": 10, ">=": 10, ">": 10,
    "+": 20, "-": 20,
    "*": 30, "/": 30, "%": 30,
}

_INTRINSICS = frozenset({"exp", "log", "sqrt", "sin", "cos", "tanh", "abs",
                         "min", "max", "pow"})


class EKLParser(Cursor):
    """Parses one ``kernel name { ... }`` definition."""

    pattern = re.compile(
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
    keywords = frozenset({"kernel", "const", "index", "input", "output",
                          "select", "sum", "f64", "f32", "i64", "i32"})

    # -- statements --------------------------------------------------------------

    def skip_newlines(self) -> None:
        while self.current.kind == "newline" or (
            self.current.kind == "op" and self.current.text == ";"
        ):
            self.advance()

    def end_statement(self) -> None:
        if self.current.kind == "eof":
            return
        if self.current.kind == "op" and self.current.text == "}":
            return
        if self.accept("newline") or self.accept("op", ";"):
            self.skip_newlines()
            return
        raise self.error(f"expected end of statement, found {self.current.text!r}")

    # -- kernel ------------------------------------------------------------------

    def parse_kernel(self) -> ast.Kernel:
        self.skip_newlines()
        self.expect("kw", "kernel")
        name = self.expect("ident").text
        self.expect("op", "{")
        self.skip_newlines()
        kernel = ast.Kernel(name=name)
        while not (self.current.kind == "op" and self.current.text == "}"):
            if self.current.kind == "eof":
                raise self.error("unexpected end of input inside kernel body")
            self._parse_statement(kernel)
        self.expect("op", "}")
        self.skip_newlines()
        if self.current.kind != "eof":
            raise self.error("trailing input after kernel")
        if not kernel.outputs:
            raise self.error(f"kernel {name!r} declares no outputs")
        return kernel

    def _parse_statement(self, kernel: ast.Kernel) -> None:
        tok = self.current
        if tok.kind == "kw" and tok.text == "const":
            kernel.consts.append(self._parse_const())
        elif tok.kind == "kw" and tok.text == "index":
            kernel.indices.extend(self._parse_index())
        elif tok.kind == "kw" and tok.text == "input":
            kernel.inputs.append(self._parse_input())
        elif tok.kind == "kw" and tok.text == "output":
            self.advance()
            while True:
                out = self.expect("ident")
                kernel.outputs.append(
                    ast.OutputDecl(out.text, line=out.line, column=out.column)
                )
                if not self.accept("op", ","):
                    break
            self.end_statement()
        else:
            kernel.body.append(self._parse_assign())

    def _parse_const(self) -> ast.ConstDecl:
        start = self.expect("kw", "const")
        name = self.expect("ident").text
        self.expect("op", "=")
        value = int(self.expect("int").text)
        self.end_statement()
        return ast.ConstDecl(name, value, line=start.line, column=start.column)

    def _parse_index(self) -> List[ast.IndexDecl]:
        start = self.expect("kw", "index")
        decls: List[ast.IndexDecl] = []
        while True:
            name = self.expect("ident").text
            self.expect("op", ":")
            if self.current.kind == "int":
                extent: object = int(self.advance().text)
            else:
                extent = self.expect("ident").text
            decls.append(
                ast.IndexDecl(name, extent, line=start.line, column=start.column)
            )
            if not self.accept("op", ","):
                break
        self.end_statement()
        return decls

    def _parse_input(self) -> ast.InputDecl:
        start = self.expect("kw", "input")
        name = self.expect("ident").text
        dims: List[ast.Dim] = []
        if self.accept("op", "["):
            while True:
                tok = self.current
                if tok.kind == "int":
                    self.advance()
                    dims.append(ast.Dim(int(tok.text), None,
                                        line=tok.line, column=tok.column))
                else:
                    ident = self.expect("ident").text
                    # Resolved later: index name -> named axis, const -> extent.
                    dims.append(ast.Dim(ident, ident,
                                        line=tok.line, column=tok.column))
                if not self.accept("op", ","):
                    break
            self.expect("op", "]")
        dtype = "f64"
        if self.accept("op", ":"):
            tok = self.current
            if tok.kind == "kw" and tok.text in ("f64", "f32", "i64", "i32"):
                dtype = self.advance().text
            else:
                raise self.error(f"unknown dtype {tok.text!r}")
        self.end_statement()
        return ast.InputDecl(name, dims, dtype, line=start.line,
                             column=start.column)

    def _parse_assign(self) -> ast.Assign:
        target = self.expect("ident")
        target_axes: Optional[List[str]] = None
        if self.accept("op", "["):
            target_axes = []
            while True:
                target_axes.append(self.expect("ident").text)
                if not self.accept("op", ","):
                    break
            self.expect("op", "]")
        self.expect("op", "=")
        value = self._parse_expr()
        self.end_statement()
        return ast.Assign(target.text, target_axes, value,
                          line=target.line, column=target.column)

    # -- expressions ----------------------------------------------------------------

    def _parse_expr(self, min_prec: int = 0) -> ast.Expr:
        lhs = self._parse_unary()
        while True:
            tok = self.current
            if tok.kind != "op" or tok.text not in _PRECEDENCE:
                return lhs
            prec = _PRECEDENCE[tok.text]
            if prec < min_prec:
                return lhs
            self.advance()
            rhs = self._parse_expr(prec + 1)
            lhs = ast.BinOp(tok.text, lhs, rhs, line=tok.line, column=tok.column)

    def _parse_unary(self) -> ast.Expr:
        tok = self.current
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            operand = self._parse_unary()
            return ast.UnaryOp("-", operand, line=tok.line, column=tok.column)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while self.current.kind == "op" and self.current.text == "[":
            open_tok = self.advance()
            indices: List[ast.Expr] = []
            while True:
                indices.append(self._parse_expr())
                if not self.accept("op", ","):
                    break
            self.expect("op", "]")
            expr = ast.Subscript(expr, indices, line=open_tok.line,
                                 column=open_tok.column)
        return expr

    def _parse_primary(self) -> ast.Expr:
        tok = self.current
        if tok.kind == "int":
            self.advance()
            return ast.IntLit(int(tok.text), line=tok.line, column=tok.column)
        if tok.kind == "float":
            self.advance()
            return ast.FloatLit(float(tok.text), line=tok.line,
                                column=tok.column)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self._parse_expr()
            self.expect("op", ")")
            return inner
        if tok.kind == "op" and tok.text == "[":
            self.advance()
            elements: List[ast.Expr] = []
            while True:
                elements.append(self._parse_expr())
                if not self.accept("op", ","):
                    break
            self.expect("op", "]")
            return ast.StackExpr(elements, line=tok.line, column=tok.column)
        if tok.kind == "kw" and tok.text == "select":
            self.advance()
            self.expect("op", "(")
            cond = self._parse_expr()
            self.expect("op", ",")
            then = self._parse_expr()
            self.expect("op", ",")
            otherwise = self._parse_expr()
            self.expect("op", ")")
            return ast.SelectExpr(cond, then, otherwise, line=tok.line,
                                  column=tok.column)
        if tok.kind == "kw" and tok.text == "sum":
            self.advance()
            self.expect("op", "[")
            over: List[str] = []
            while True:
                over.append(self.expect("ident").text)
                if not self.accept("op", ","):
                    break
            self.expect("op", "]")
            self.expect("op", "(")
            body = self._parse_expr()
            self.expect("op", ")")
            return ast.SumExpr(over, body, line=tok.line, column=tok.column)
        if tok.kind == "ident":
            self.advance()
            if tok.text in _INTRINSICS and self.current.kind == "op" \
                    and self.current.text == "(":
                self.advance()
                args: List[ast.Expr] = [self._parse_expr()]
                while self.accept("op", ","):
                    args.append(self._parse_expr())
                self.expect("op", ")")
                return ast.CallExpr(tok.text, args, line=tok.line,
                                    column=tok.column)
            return ast.Name(tok.text, line=tok.line, column=tok.column)
        raise self.error(f"unexpected token {tok.text!r} in expression")


def parse_kernel(source: str) -> ast.Kernel:
    """Parse EKL source text into a :class:`~repro.frontends.ekl.ast.Kernel`."""
    return EKLParser(source).parse_kernel()
