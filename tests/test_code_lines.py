"""tools/code_lines.py: the package's code-line count skips docstrings,
comments and blank lines, and counts each line of a split statement."""

import ast
import importlib.util
import textwrap
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = textwrap.dedent('''\
    """Module docstring,
    over two lines."""
    import math  # a trailing comment


    # a comment line
    class Box:
        """Class docstring."""

        def area(self, side):
            """Method docstring."""
            text = """not a docstring
    """
            return math.prod(
                (side, side))


    def outer():
        def inner():
            return 1
        return inner
''')


def test_counts_code_lines_only():
    lines = code_lines.code_lines(SOURCE)
    assert sorted(lines) == [3, 7, 10, 12, 13, 14, 15, 18, 19, 20, 21]


def test_counts_each_function():
    found = list(code_lines.functions(ast.parse(SOURCE), code_lines.code_lines(SOURCE)))
    assert found == [("Box.area", 5), ("outer", 4), ("outer.inner", 2)]
