"""Count code-only lines of the ``*.py`` files under each root given.

A line counts unless it is blank, a comment alone, or inside a string
statement (a docstring). Prints one total per root::

    python3 tools/count_lines.py src tests
"""

import ast
import pathlib
import sys


def code_lines(path):
    """The code-only lines of one Python file."""
    text = path.read_text()
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Expr) and isinstance(getattr(node.value, "value", None), str):
            doc.update(range(node.lineno, node.end_lineno + 1))
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.strip().startswith("#") and i not in doc)


if __name__ == "__main__":
    for root in sys.argv[1:]:
        print(root, sum(map(code_lines, sorted(pathlib.Path(root).rglob("*.py")))))
