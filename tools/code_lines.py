"""Count the code lines of ``src/mimomrc``: the physical lines that hold
code, not a docstring, a comment or nothing.

Docstrings are found with ``ast`` (the leading string of a module, class
or function), comments and blank lines with ``tokenize``; a statement
over several lines counts each of them. Prints each file's count, each
function's under it (its ``def`` line to its last line, a nested
function counted in its parent's too), and the total:

    python tools/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mimomrc"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> set[int]:
    """The numbers of the lines of ``source`` that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, *_FUNCTIONS))
                and ast.get_docstring(node, clean=False) is not None):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - docstrings


def functions(tree: ast.AST, lines: set[int], prefix: str = ""):
    """(qualified name, code lines) of every function under ``tree``, in
    source order."""
    for node in ast.iter_child_nodes(tree):
        name = f"{prefix}{node.name}" if isinstance(node, (ast.ClassDef, *_FUNCTIONS)) else None
        if isinstance(node, _FUNCTIONS):
            yield name, len(lines.intersection(range(node.lineno, node.end_lineno + 1)))
        yield from functions(node, lines, f"{name}." if name else prefix)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = code_lines(source)
        total += len(lines)
        print(f"{len(lines):6d}  {path.name}")
        for name, count in functions(ast.parse(source), lines):
            print(f"{count:6d}      {name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
