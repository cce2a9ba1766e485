"""docs-check: verify that documentation code blocks are honest.

Extracts every fenced ``python`` code block from README.md and docs/*.md
and, for each block:

1. syntax-checks it with :func:`compile`;
2. executes its ``import``/``from`` statements (so documented APIs must
   actually exist);
3. executes the *whole* block when it is self-contained — i.e. every
   name it loads is defined inside the block, imported by it, or a
   builtin.

It then compares the request-field tables of docs/serve.md with the
schema the daemon checks bodies against (``repro.basecamp.serve.SCHEMA``,
``TASK`` and ``FAILURE``): one table per POST endpoint, one for a
described task and one for an injected failure, each row the field's
name, kind, default and bounds in schema order.

Exit status is nonzero on the first failing block or table, with the
file and block or table in the message.  Run via ``make docs-check``.
"""

from __future__ import annotations

import ast
import builtins
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
SERVE_DOC = ROOT / "docs" / "serve.md"


def code_blocks(path: Path):
    for i, match in enumerate(FENCE.finditer(path.read_text()), start=1):
        yield i, match.group(1)


def defined_names(tree: ast.AST) -> set:
    names = set(dir(builtins)) | {"__name__", "__file__"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                     (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.For, ast.comprehension)):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
    return names


def loaded_names(tree: ast.AST) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def check_block(source: str, label: str) -> str:
    """Returns what was checked: 'ran', 'imports', or 'syntax'."""
    tree = ast.parse(source)  # raises SyntaxError on malformed docs
    compile(source, label, "exec")
    imports = [node for node in tree.body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    if not imports:
        return "syntax"
    missing = loaded_names(tree) - defined_names(tree)
    if not missing:
        exec(compile(source, label, "exec"), {"__name__": "__docscheck__"})
        return "ran"
    import_module = ast.Module(body=imports, type_ignores=[])
    exec(compile(import_module, label, "exec"),
         {"__name__": "__docscheck__"})
    return "imports"


def markdown_tables(text: str) -> dict:
    """{first header cell: [row cells]} of each Markdown table, cells
    stripped of blanks and backticks."""
    def cells(line):
        return [cell.strip().strip("`")
                for cell in line.strip()[1:-1].split("|")]

    tables, lines = {}, text.splitlines()
    for i, line in enumerate(lines[:-1]):
        if line.startswith("|") and lines[i + 1].startswith("|---"):
            rows = []
            for body in lines[i + 2:]:
                if not body.startswith("|"):
                    break
                rows.append(cells(body))
            tables[cells(line)[0]] = rows
    return tables


def schema_row(row) -> list:
    """A schema row as its table shows it: name, kind, default, bounds."""
    kinds = [kind.__name__ for kind in (
        row.kind if isinstance(row.kind, tuple) else (row.kind,))]
    if row.entries:
        entries, noun = row.entries
        kinds[kinds.index("list")] = "list of " + (
            "str" if entries is str else noun)
    default = "required" if row.default is ... else json.dumps(row.default)
    if row.low is None and row.high is None:
        bounds = ""
    elif "str" in kinds:
        bounds = "not blank"
    elif row.high is None:
        bounds = f"≥ {row.low}"
    else:
        bounds = f"[{row.low}, {row.high}]"
    return [row.name, " or ".join(kinds), default, bounds]


def check_schema_tables() -> str:
    """'' when docs/serve.md shows the request schema, else the first
    difference."""
    from repro.basecamp.serve import FAILURE, SCHEMA, TASK

    tables = markdown_tables(SERVE_DOC.read_text())
    declared = [(f"POST /{endpoint}", table)
                for endpoint, table in SCHEMA.items()] \
        + [("task", TASK), ("failure", FAILURE)]
    for title, table in declared:
        if title not in tables:
            return f"no table headed `{title}`"
        shown = [cells[:4] for cells in tables[title]]
        for index, row in enumerate(table):
            wanted = schema_row(row)
            if index >= len(shown) or shown[index] != wanted:
                got = shown[index] if index < len(shown) else "no row"
                return f"table `{title}` row {index + 1}: {got} " \
                       f"!= schema {wanted}"
        if len(shown) > len(table):
            return f"table `{title}`: {shown[len(table)]} is not in the schema"
    return ""


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    checked = 0
    for path in DOC_FILES:
        if not path.exists():
            continue
        for index, source in code_blocks(path):
            label = f"{path.relative_to(ROOT)}[block {index}]"
            try:
                mode = check_block(source, label)
            except Exception as error:  # noqa: BLE001 - report and fail
                print(f"docs-check: FAIL {label}: "
                      f"{type(error).__name__}: {error}", file=sys.stderr)
                return 1
            print(f"docs-check: ok {label} ({mode})")
            checked += 1
    if not checked:
        print("docs-check: no python code blocks found", file=sys.stderr)
        return 1
    print(f"docs-check: {checked} block(s) verified")
    problem = check_schema_tables()
    if problem:
        print(f"docs-check: FAIL {SERVE_DOC.relative_to(ROOT)}: {problem}",
              file=sys.stderr)
        return 1
    print(f"docs-check: ok {SERVE_DOC.relative_to(ROOT)} request tables "
          "equal the schema")
    return 0


if __name__ == "__main__":
    sys.exit(main())
