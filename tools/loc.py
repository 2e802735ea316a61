"""Print the lines and the code lines of each module of ``src/sortnet``.

Lines are counted as ``wc -l`` counts them.  Code lines hold a token
outside docstrings and comments.  Standard library only:
``python tools/loc.py``.
"""

import ast
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sortnet"
OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(path):
    source, code = path.read_bytes(), set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in NOT_CODE:
                code.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, OWNERS) and ast.get_docstring(node) is not None:
            code -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return source.count(b"\n"), len(code)


rows = [(path.name, *count(path)) for path in sorted(PACKAGE.glob("*.py"))]
rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
for name, lines, code in rows:
    print(f"{name:<16}{lines:>6}{code:>6}")
